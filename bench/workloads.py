"""The benchmark's four workloads: seeded inputs, timed calls and their oracles.

Each workload function takes the imported `tensorspec` package, a seeded generator and
a scratch directory, and returns the fixed case list of one pass.  A case's
``call`` is the only thing timed; its ``check`` runs afterwards and returns an
`oracles.Verdict`.  Calls use public entry points and options that are meant
to outlive the solver rewrites (never ``threads``, ``grid``,
``newton_iters`` or ``newton_tol``).

Cases that reproduce a defect known when the benchmark was written carry the
ROADMAP entry that owns it in ``known_defect``.  They are the run's defect
probes: `run.py` calls each once per run, untimed, after the timed passes,
and prints whether it still reproduces its defect; probes are outside
``attempted`` and ``failed``.  The timed cases are chosen so that no call
fails at the seed: random size-2 inputs keep their root lines apart, and lO
on 3x3x3 and the z-eigenpairs of planted odeco tensors run only as probes,
on fixed inputs that reproduce their defects.  An oracle still names the
defect in ``Verdict.known`` when a timed failure matches one; such a
failure counts as failed but does not mark the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles as orc
from oracles import Verdict, fail


@dataclass
class Case:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    known_defect: str = ""


# Solver time on seeded input varies with the input by 20-60% per call, so
# the iterative workloads draw several independent rounds of inputs per pass.
SPECTRAL_ROUNDS = 3
DECOMP_ROUNDS = 10

SCALE_DEFECT = "ROADMAP scale-equivariance: solver output changes with the scale of the tensor"
SIZE2_DEFECT = "ROADMAP size-2 solve and scale-equivariance: absolute tolerances in the circle solver"
ALS_DEFECT = "ROADMAP ALS crash: cp_als raises AssertionError from its monotonicity assert"
SIGN_DEFECT = "ROADMAP signs: the iterative eigen path does not report both signs"
# random size-2 inputs whose root lines are closer than this are redrawn
ROOT_LINE_SEPARATION_RAD = 2 * orc.CLOSE_ROOTS_RAD


def _symmetric(rng, n: int, order: int) -> np.ndarray:
    a = rng.normal(size=(n,) * order)
    perms = list(itertools.permutations(range(order)))
    return sum(np.transpose(a, p) for p in perms) / len(perms)


def _all_ok(*verdicts: Verdict) -> Verdict:
    for v in verdicts:
        if not v.ok:
            return v
    return Verdict(True, sum(v.expected for v in verdicts), sum(v.recovered for v in verdicts))


def _nonempty(records) -> Verdict:
    return Verdict(True) if len(records) else fail("no records")


def _fixtures(ts, workdir: str) -> list[tuple[str, np.ndarray, str]]:
    """(name, array, path) of every golden fixture, written and read back."""
    from tensorspec import golden

    paths = golden.write_fixtures(os.path.join(workdir, "fixtures"))
    out = []
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        out.append((name, ts.load_tensor(path).to_array(), path))
    return out


def _rounds(n: int, build) -> list[Case]:
    """``n`` rounds of freshly generated cases, names tagged with the round.

    Defect probes are kept from the first round only.
    """
    cases = []
    for r in range(n):
        for case in build():
            if r and case.known_defect:
                continue
            case.name = f"{case.name}#{r}"
            cases.append(case)
    return cases


# -- spectral ----------------------------------------------------------------------


def spectral(ts, rng, workdir: str) -> list[Case]:
    cases = _rounds(SPECTRAL_ROUNDS, lambda: _spectral_round(ts, rng))
    # fixed inputs that reproduce a defect: about one planted odeco 4^3 input
    # in sixty misses one sign of a component, and about one symmetric 3^3
    # input in forty gets an lO tuple with a zero factor
    odeco, w, q = orc.planted_odeco(np.random.default_rng(54), 4, 3)
    cases.append(Case("eig.z.odeco4^3.seed54", lambda t=ts.DenseTensor(odeco): ts.find_eigenpairs(t, 1, "z"),
                      lambda r: orc.check_odeco_eigs(odeco, r, w, q[0]), SIGN_DEFECT))
    sym = _symmetric(np.random.default_rng(22), 3, 3)
    cases.append(Case("svd.3.sym3^3.seed22", lambda t=ts.DenseTensor(sym): ts.find_singular_tuples(t, 3),
                      lambda r: orc.check_singular_records(sym, r, 3), orc.ZERO_FACTOR_DEFECT))
    return cases


def _spectral_round(ts, rng) -> list[Case]:
    arrays = {
        "sym3^3": _symmetric(rng, 3, 3),
        "sym4^4": _symmetric(rng, 4, 4),
        "gen3^3": rng.normal(size=(3, 3, 3)),
        "gen8^3": rng.normal(size=(8, 8, 8)),
        "nonneg3^3": np.abs(rng.normal(size=(3, 3, 3))),
        "gen5x6x7": rng.normal(size=(5, 6, 7)),
    }
    arr4, w4, _ = orc.planted_odeco(rng, 4, 3)
    tensors = {k: ts.DenseTensor(a) for k, a in arrays.items()}
    tensors["odeco4^3"] = ts.DenseTensor(arr4)
    results: dict[str, Any] = {}
    cases = []

    def remember(name, verdict_fn):
        def check(result):
            results[name] = result
            return verdict_fn(result)

        return check

    # symmetric z and nonnegative h always have a real solution the solver converges to
    must_converge = {("sym3^3", "z"), ("sym4^4", "z"), ("nonneg3^3", "h")}
    for key in ("sym3^3", "sym4^4", "gen3^3", "gen8^3", "nonneg3^3"):
        arr, t = arrays[key], tensors[key]
        for v in "zh":
            extra = orc.require_converged if (key, v) in must_converge else _nonempty
            cases.append(Case(
                f"eig.{v}.{key}",
                lambda t=t, v=v: ts.find_eigenpairs(t, 1, v),
                remember(f"eig.{v}.{key}", lambda r, a=arr, v=v, x=extra: _all_ok(x(r), orc.check_eig_records(a, r, v, 1))),
            ))
    for key, p in (("sym3^3", 2), ("gen5x6x7", 2), ("sym4^4", 2), ("sym4^4", 4)):
        arr, t = arrays[key], tensors[key]
        cases.append(Case(
            f"svd.{p}.{key}",
            lambda t=t, p=p: ts.find_singular_tuples(t, p),
            remember(f"svd.{p}.{key}", lambda r, a=arr, p=p: _all_ok(_nonempty(r), orc.check_singular_records(a, r, p))),
        ))
    cases.append(Case("best_rank_one.sym3^3", lambda: ts.best_rank_one(tensors["sym3^3"]),
                      lambda r: _check_rank_one(arrays["sym3^3"], r)))
    cases.append(Case("best_rank_one.odeco4^3", lambda: ts.best_rank_one(tensors["odeco4^3"]),
                      lambda r: _check_rank_one(arr4, r, planted_sigma=float(np.max(np.abs(w4))))))

    # the same problems with the tensor scaled: sigma and lambda are linear in T
    for base, scale, kind in (("svd.2.sym3^3", 1e200, "svd"), ("svd.2.sym3^3", 1e-200, "svd"), ("eig.z.sym3^3", 1e100, "eig")):
        arr = arrays["sym3^3"] * scale
        t = ts.DenseTensor(arr)
        call = (lambda t=t: ts.find_singular_tuples(t, 2)) if kind == "svd" else (lambda t=t: ts.find_eigenpairs(t, 1, "z"))
        cases.append(Case(
            f"{base}.x{scale:.0e}",
            call,
            lambda r, a=arr, b=base, s=scale, k=kind: _check_scaled(a, r, results.get(b), s, k),
            SCALE_DEFECT,
        ))
    return cases


def _check_rank_one(arr, res, planted_sigma=None) -> Verdict:
    if res.sigma < 0 or any(abs(np.linalg.norm(v) - 1.0) > 1e-8 for v in res.vectors):
        return fail("sigma negative or factors not unit")
    approx = res.sigma * orc.cp_tensor([1.0], [v[:, None] for v in res.vectors])
    err = float(np.linalg.norm(arr - approx))
    norm = float(np.linalg.norm(arr))
    if abs(err - res.error) > 1e-9 * norm or abs(err**2 - (norm**2 - res.sigma**2)) > 1e-8 * norm**2:
        return fail("reported error inconsistent with the factors")
    if planted_sigma is None:
        return Verdict(True)
    found = int(abs(res.sigma - planted_sigma) <= 1e-8 * planted_sigma)
    return Verdict(bool(found), 1, found, "" if found else "sigma is not the largest planted weight")


def _check_scaled(arr, records, base_records, scale, kind) -> Verdict:
    if base_records is None:
        return fail("unscaled case did not run")
    check = orc.check_singular_records(arr, records, 2) if kind == "svd" else orc.check_eig_records(arr, records, "z", 1)
    if not check.ok:
        return check

    def values(rs, s):
        return sorted(abs(r.sigma if kind == "svd" else r.value) / s for r in rs if r.converged)

    got, want = values(records, scale), values(base_records, 1.0)
    if len(got) != len(want) or not np.allclose(got, want, rtol=1e-6, atol=0.0):
        return fail(f"{len(got)} converged records after scaling, {len(want)} before")
    return Verdict(True)


# -- size2 -------------------------------------------------------------------------


def size2(ts, rng, workdir: str) -> list[Case]:
    cases = []
    for name, arr, _ in _fixtures(ts, workdir):
        t = ts.DenseTensor(arr)
        for mode, v in itertools.product(range(1, arr.ndim + 1), "zh"):
            cases.append(_size2_case(ts, f"eig.{v}.m{mode}.{name}", t, arr, mode, v))
    for order, k in itertools.product((3, 4, 5), range(4)):
        arr = _separated_size2(rng, order, (1, order))
        t = ts.DenseTensor(arr)
        for mode, v in itertools.product((1, order), "zh"):
            cases.append(_size2_case(ts, f"eig.{v}.m{mode}.rand2^{order}.{k}", t, arr, mode, v))
    # the input on which close root lines were found missing
    arr = np.random.default_rng(270).normal(size=(2, 2, 2))
    cases.append(_size2_case(ts, "eig.h.m1.rand2^3.seed270", ts.DenseTensor(arr), arr, 1, "h", orc.CLOSE_ROOTS_DEFECT))
    # scaled copies: the solver returns too many or too few pairs on most of them
    for k, scale in itertools.product(range(4), (1e-10, 1e6)):
        arr = rng.normal(size=(2, 2, 2)) * scale
        cases.append(_size2_case(ts, f"eig.z.m1.rand2^3.{k}.x{scale:.0e}", ts.DenseTensor(arr), arr, 1, "z", SIZE2_DEFECT))
    return cases


def _separated_size2(rng, order: int, modes) -> np.ndarray:
    """A Gaussian 2^order tensor whose root lines on ``modes`` are all well apart."""
    while True:
        arr = rng.normal(size=(2,) * order)
        gaps = [orc.root_line_gap(orc.binary_form(arr, m, v)) for m in modes for v in "zh"]
        if min(gaps) > ROOT_LINE_SEPARATION_RAD:
            return arr


def _size2_case(ts, name, t, arr, mode, v, known_defect="") -> Case:
    return Case(
        name,
        lambda: ts.find_eigenpairs(t, mode, v),
        lambda r: orc.check_size2(arr, r, v, mode),
        known_defect,
    )


# -- decomp ------------------------------------------------------------------------


def decomp(ts, rng, workdir: str) -> list[Case]:
    cases = _rounds(DECOMP_ROUNDS, lambda: _decomp_round(ts, rng))
    for name, arr, _ in _fixtures(ts, workdir):
        if name.startswith("rank3_multilinear22"):
            cases.append(Case(f"multilinear_rank.{name}", lambda t=ts.DenseTensor(arr): ts.multilinear_rank(t),
                              lambda r: _check_mlrank(r, (2, 2, 2))))
    # the reproduction recorded in the ROADMAP: a fixed 2x2x2 input fitted at rank 4
    small = np.random.default_rng(1).normal(size=(2, 2, 2))
    cases.append(Case("cp_als.roadmap2x2x2.r4", lambda t=ts.DenseTensor(small): ts.cp_als(t, 4),
                      lambda res: _check_cp(small, res, planted=False), ALS_DEFECT))
    return cases


def _decomp_round(ts, rng) -> list[Case]:
    cases = []
    # orthonormal factor columns: with Gaussian factors the sweep count, and so
    # the time, varies by 60% between seeds and some fits stop near 1e-7
    for dims, rank in (((6, 6, 6), 3), ((10, 10, 10), 5), ((4, 4, 4, 4), 2)):
        weights = rng.uniform(1.0, 2.0, size=rank)
        factors = [np.linalg.qr(rng.normal(size=(d, rank)))[0] for d in dims]
        arr = orc.cp_tensor(weights, factors)
        cases.append(Case(
            f"cp_als.planted{'x'.join(map(str, dims))}.r{rank}",
            lambda t=ts.DenseTensor(arr), r=rank: ts.cp_als(t, r),
            lambda res, a=arr: _check_cp(a, res, planted=True),
        ))
    # random input has no exact fit: with the default tolerance a start runs
    # anywhere from 40 sweeps to the 500 cap, so each start is capped at 50 and
    # stops earlier only if its error stops falling
    arr = rng.normal(size=(6, 6, 6))
    cases.append(Case("cp_als.rand6x6x6.r3", lambda t=ts.DenseTensor(arr): ts.cp_als(t, 3, max_iters=50, tol=0.0),
                      lambda res, a=arr: _check_cp(a, res, planted=False)))

    core = rng.normal(size=(5, 5, 5, 5))
    qs = [np.linalg.qr(rng.normal(size=(10, 5)))[0] for _ in range(4)]
    tucker = orc.tucker_tensor(core, qs)
    cases.append(Case("hosvd.planted10^4.r5", lambda t=ts.DenseTensor(tucker): ts.hosvd(t, [5] * 4),
                      lambda tk: _check_tucker(tucker, tk)))

    ranks = (2, 3, 4, 5, 6)
    big = orc.tucker_tensor(rng.normal(size=ranks), [rng.normal(size=(10, r)) for r in ranks])
    cases.append(Case("multilinear_rank.planted10^5", lambda t=ts.DenseTensor(big): ts.multilinear_rank(t),
                      lambda r: _check_mlrank(r, ranks)))

    sym, w, q = orc.planted_odeco(rng, 5, 3)
    cases.append(Case("odeco_decompose.sym5^3", lambda t=ts.DenseTensor(sym): ts.odeco_decompose(t, symmetric=True),
                      lambda res: _check_odeco(res, w, q)))
    gen, wg, qg = orc.planted_odeco(rng, 5, 3, symmetric=False)
    cases.append(Case("odeco_decompose.gen5^3", lambda t=ts.DenseTensor(gen): ts.odeco_decompose(t),
                      lambda res: _check_odeco(res, wg, qg)))
    return cases


def _check_cp(arr, res, planted: bool) -> Verdict:
    err = orc.relative_error(arr, orc.cp_tensor(res.cp.weights, res.cp.factors))
    if abs(err - res.error) > 1e-9:
        return fail(f"reported error {res.error:.3e}, recomputed {err:.3e}")
    if not planted:
        return Verdict(True)
    ok = err <= 1e-8
    return Verdict(ok, 1, int(ok), "" if ok else f"planted fit error {err:.3e}")


def _check_tucker(arr, tk) -> Verdict:
    factors = [np.asarray(f) for f in tk.factors]
    if any(not np.allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10) for f in factors):
        return fail("factors not orthonormal")
    err = orc.relative_error(arr, orc.tucker_tensor(tk.core.to_array(), factors))
    ok = err <= 1e-8
    return Verdict(ok, 1, int(ok), "" if ok else f"reconstruction error {err:.3e}")


def _check_mlrank(got, want) -> Verdict:
    ok = tuple(got) == tuple(want)
    return Verdict(ok, 1, int(ok), "" if ok else f"multilinear rank {tuple(got)}, planted {tuple(want)}")


def _check_odeco(res, weights, factors) -> Verdict:
    if not res.ok:
        return fail(f"status {res.status}", len(weights))
    return orc.check_odeco_components(res.cp.weights, res.cp.factors, weights, factors)


# -- cli-io ------------------------------------------------------------------------


def cli_io(ts, rng, workdir: str) -> list[Case]:
    from tensorspec import cli

    src = os.path.join(workdir, "in")
    out = os.path.join(workdir, "out")
    os.makedirs(src, exist_ok=True)
    os.makedirs(out, exist_ok=True)

    def write(name, arr):
        path = os.path.join(src, name)
        ts.save_tensor(ts.DenseTensor(arr), path)
        return path

    big = rng.normal(size=(10,) * 5)
    mat = rng.normal(size=(10, 10))
    vec = rng.normal(size=10)
    cp_w, cp_f = rng.uniform(1.0, 2.0, size=2), [np.linalg.qr(rng.normal(size=(4, 2)))[0] for _ in range(3)]
    cp_arr = orc.cp_tensor(cp_w, cp_f)
    big_p, mat_p, vec_p, cp_p = write("big.json", big), write("mat.json", mat), write("vec.json", vec), write("cp.json", cp_arr)
    first: dict[str, bytes] = {}
    cases = []

    def command(name, argv, check):
        path = os.path.join(out, name)

        def run():
            try:
                return cli.main(argv + ["--output", path])
            except SystemExit as exc:
                return exc.code

        def verify(code):
            if code != 0:
                return fail(f"exit code {code}")
            with open(path, "rb") as fh:
                data = fh.read()
            if first.setdefault(name, data) != data:
                return fail("output bytes differ from the first pass")
            return check(data.decode("utf-8"))

        cases.append(Case(f"cli.{name}", run, verify))

    norm = float(np.linalg.norm(big))
    command("info.big", ["info", big_p], lambda s: _check_info(json.loads(s), big))
    command("mlrank.big", ["mlrank", big_p], lambda s: _check_mlrank(json.loads(s)["multilinear_rank"], (10,) * 5))
    command("hosvd.big", ["hosvd", big_p], lambda s: _close(json.loads(s)["reconstruction_error"], 0.0, 1e-8 * norm))
    command("tucker.hosvd", ["tucker", os.path.join(out, "hosvd.big")], lambda s: _check_tensor_json(s, big))
    command("contract.big.mat", ["contract", big_p, mat_p], lambda s: _check_tensor_json(s, np.tensordot(big, mat, axes=(4, 0))))
    command("contract.big.vec", ["contract", big_p, vec_p, "--mode", "3"],
            lambda s: _check_tensor_json(s, np.tensordot(big, vec, axes=(2, 0))))
    command("contract.mat.mat", ["contract", mat_p, mat_p], lambda s: _check_tensor_json(s, mat @ mat))
    command("cp.planted4^3.r2", ["cp", cp_p, "--rank", "2", "--starts", "1"], lambda s: _check_cp_json(json.loads(s), cp_arr))
    for name, arr, path in _fixtures(ts, workdir):
        for mode, v, fmt in itertools.product(range(1, 4), "zh", ("json", "table")):
            command(f"eig.{v}.m{mode}.{fmt}.{name}", ["eig", path, "--variant", v, "--mode", str(mode), "--format", fmt],
                    lambda s, a=arr, v=v, m=mode, f=fmt: orc.check_size2(a, _parse_pairs(s, f), v, m))

    for dims in ((10, 10, 10), (6, 6, 6, 6)):
        arr = rng.normal(size=dims)
        t = ts.DenseTensor(arr)
        path = os.path.join(out, f"roundtrip{'x'.join(map(str, dims))}.json")
        key = f"save_tensor.{'x'.join(map(str, dims))}"
        cases.append(Case(key, lambda t=t, p=path: ts.save_tensor(t, p), lambda _, p=path, k=key: _same_bytes(first, k, p)))
        cases.append(Case(f"load_tensor.{'x'.join(map(str, dims))}", lambda p=path: ts.load_tensor(p),
                          lambda r, a=arr: Verdict(True) if np.array_equal(r.to_array(), a) else fail("round trip changed entries")))
    return cases


def _close(got, want, tol) -> Verdict:
    return Verdict(True) if abs(got - want) <= tol else fail(f"{got!r} differs from {want!r}")


def _same_bytes(first, key, path) -> Verdict:
    with open(path, "rb") as fh:
        data = fh.read()
    return Verdict(True) if first.setdefault(key, data) == data else fail("output bytes differ from the first pass")


def _tensor_from_json(obj) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"], order="F")


def _check_tensor_json(text, want) -> Verdict:
    got = _tensor_from_json(json.loads(text))
    if got.shape != want.shape:
        return fail(f"shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want)))
    return Verdict(True) if err <= 1e-9 * float(np.max(np.abs(want))) else fail(f"entries off by {err:.3e}")


def _check_info(obj, arr) -> Verdict:
    if obj["shape"] != list(arr.shape) or obj["order"] != arr.ndim or obj["multilinear_rank"] != list(arr.shape):
        return fail("shape, order or multilinear rank wrong")
    return _close(obj["frobenius_norm"], float(np.linalg.norm(arr)), 1e-10 * float(np.linalg.norm(arr)))


def _check_cp_json(obj, arr) -> Verdict:
    weights = np.asarray(obj["weights"])
    factors = [np.asarray(f) for f in obj["factors"]]
    err = orc.relative_error(arr, orc.cp_tensor(weights, factors))
    ok = err <= 1e-8 and obj["relative_error"] <= 1e-8
    return Verdict(ok, 1, int(ok), "" if ok else f"planted fit error {err:.3e}")


_VECTOR = re.compile(r"\(([^)]*)\)")


def _parse_pairs(text: str, fmt: str) -> list:
    """Eigenpair records from the CLI's json or table output."""
    if fmt == "json":
        rows = json.loads(text)["pairs"]
        return [SimpleNamespace(variant=r["variant"], mode=r["mode"], value=r["lambda"], vector=np.asarray(r["vector"]),
                                residual=r["residual"], converged=r["converged"]) for r in rows]
    pairs = []
    for line in text.splitlines()[1:]:
        vector = _VECTOR.search(line)
        head = line[: vector.start()].split()
        pairs.append(SimpleNamespace(
            variant=head[0], mode=int(head[1]), value=float(head[2]),
            vector=np.array([float(x) for x in vector.group(1).split(",")]),
            residual=float(line[vector.end():]), converged=True,
        ))
    return pairs


CASE_LISTS = {"spectral": spectral, "size2": size2, "decomp": decomp, "cli-io": cli_io}
