"""Per-class digests of a seeded record corpus, to compare two trees bit for bit.

    PYTHONPATH=src python tests/corpus.py

prints one line per solver class, ``<class>: <calls> calls, <records>
records, sha256 <hex>``, in the order of their first call.  A call that returns a list counts
its items as records; any other call is one record.  Run it with another
tree's ``src`` on the path and diff the outputs: a line that differs names
the class whose records moved.  The digests depend on the BLAS build, so
compare two trees on one machine only.  The classes are:

* ``size2.z`` and ``size2.h``: 8,400 size-2 `find_eigenpairs` calls; 20
  seeds; orders 2-5; Gaussian, integer, nonnegative, sparse and rank-one 2^O
  tensors at x1, x1e-8 and x1e150; every mode.
* ``eig.z``, ``eig.h`` (iterative), ``svd.2`` and ``svd.O``: 624 calls; 4
  seeds; general, symmetric, nonnegative and sparse 3^3, 4^3 and 3^4
  tensors, eigenpairs on modes 1 and O and both tuple variants; general,
  nonnegative and sparse 5x6x7 tensors, tuples only; all at x1 and x1e8.
* ``odeco.sym``, ``odeco.gen``, ``cp_als``, ``hosvd`` and ``mlrank``: 536
  calls over 4 seeds, each input at x1 and x1e8.  `odeco_decompose`,
  symmetric on 3^3, 4^3, 5^3 and 3^4 and general on 3^3, 4x5x6 and 3x4x3x2,
  on exact planted, noisy planted (1e-3 and 1e-2 of the norm) and Gaussian
  random input; `cp_als` on 4^3 at rank 2, 5x6x7 at rank 3 and 3^4 at rank
  2, on exact planted input with orthonormal and with Gaussian factors, and
  on Gaussian random input; `hosvd` at full ranks and at ranks one less, and
  `multilinear_rank`, on every `cp_als` input and on planted Tucker 6^3 of
  multilinear rank (2, 3, 4).
* ``tall``: 144 calls on tall modes (``M_o > N_o``) of seeded Gaussian
  8x2x2, 10x2x2 and 10x3x2 tensors over 4 seeds, each at x1 and x1e8:
  `cp_als` at rank 2, `odeco_decompose`, `hosvd` at full ranks and at
  ranks of ones, and l2 and lO `find_singular_tuples`.
* ``cp_als.rand6^3`` and ``cp_als.orth4^4``: 8 calls each, the two
  `cp_als` configurations of the decomp benchmark that the ``cp_als`` class
  does not hold, over 4 seeds at x1 and x1e8: Gaussian random 6^3 at rank 3
  with ``max_iters=50, tol=0`` (every start runs all 50 sweeps), and 4^4 at
  rank 2 planted with orthonormal factors.
* ``cli.<subcommand>``: 554 in-process `tensorspec.cli.main` runs on the 9
  golden fixtures and on seeded Gaussian 3^3, 2x3x4, 4x3 and 4-vector files
  at x1e-8 and x1e8: every subcommand (hosvd at full and unit ranks, svd
  with p = 2 and p = O, eig z and h on every mode, contract with itself),
  and tucker on each hosvd output, each in json and table form.  Runs that
  the CLI rejects count too.  Files are named relative to a temporary
  working directory, so no path enters a digest.

A record is its eigen or tuple scalar, vectors, residual and ``converged``
flag; CP weights, factors, error trace, winning start and flag; Tucker core
and factors; ranks; odeco reconstruction error, defect and status; a CLI
run's argv, stdout, stderr and exit code.  The library's warnings are
ignored; the CLI runs see the interpreter's default filters, so their
``warning:`` lines are digested.
"""

import contextlib
import hashlib
import io
import itertools
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

from tensorspec import cli
from tensorspec.decomp import CpDecomposition, cp_als, cp_eval, hosvd, multilinear_rank, odeco_decompose
from tensorspec.serialize import save_tensor
from tensorspec.spectra import find_eigenpairs, find_singular_tuples
from tensorspec.tensor import DenseTensor, outer

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
SHAPES = {"cube": (3, 3, 3), "box": (2, 3, 4), "mat": (4, 3), "vec": (4,)}


def encode(x) -> bytes:
    """The bytes of a result: floats and arrays by their bytes, bools, ints, strings, and tuples of these."""
    if isinstance(x, (tuple, list)):
        return b"(" + b"".join(map(encode, x)) + b")"
    if isinstance(x, str):
        return b"s%d:" % len(x.encode()) + x.encode()
    if isinstance(x, (bool, np.bool_)):
        return b"T" if x else b"F"
    if isinstance(x, (int, np.integer)):
        return b"i%d;" % x
    if isinstance(x, (float, np.floating, np.ndarray)):
        a = np.asarray(x, dtype=np.float64)
        return b"f%r:" % (a.shape,) + a.tobytes()
    raise TypeError(f"no encoding for {type(x).__name__}")


# -- inputs -----------------------------------------------------------------


def size2_inputs(order, seed):
    g = np.random.default_rng(10_000 * order + seed)
    shape = (2,) * order
    yield g.normal(size=shape)
    yield g.integers(-3, 4, size=shape).astype(float)
    yield np.abs(g.normal(size=shape))
    yield np.where(g.random(shape) < 0.4, g.normal(size=shape), 0.0)
    yield outer(*[g.normal(size=2) for _ in range(order)]).to_array()


def solver_inputs(shape, seed):
    """The general, symmetric (cubical shapes only), nonnegative and sparse inputs of one shape and seed."""
    g = np.random.default_rng([seed, *shape])
    yield g.normal(size=shape)
    if len(set(shape)) == 1:
        a = g.normal(size=shape)
        perms = list(itertools.permutations(range(len(shape))))
        yield sum(a.transpose(p) for p in perms) / len(perms)
    yield np.abs(g.normal(size=shape))
    yield np.where(g.random(shape) < 0.4, g.normal(size=shape), 0.0)


def orthonormal(g, m, r):
    return np.linalg.qr(g.normal(size=(m, m)))[0][:, :r]


def odeco_inputs(shape, symmetric, seed):
    """Exact planted, two noisy planted and one random input of one shape and seed."""
    g = np.random.default_rng([seed, symmetric, *shape])
    r = min(shape)
    weights = (np.arange(1, r + 1) + g.uniform(0.1, 0.9, size=r)) * g.choice([-1.0, 1.0], size=r)
    factors = [orthonormal(g, shape[0], r)] * len(shape) if symmetric else [orthonormal(g, m, r) for m in shape]
    exact = cp_eval(CpDecomposition(weights, factors)).to_array()
    yield exact
    for noise in (1e-3, 1e-2):
        direction = g.normal(size=shape)
        if symmetric:
            direction = sum(np.transpose(direction, q) for q in itertools.permutations(range(len(shape))))
        yield exact + noise * np.linalg.norm(exact) * direction / np.linalg.norm(direction)
    random = g.normal(size=shape)
    if symmetric:
        random = sum(np.transpose(random, q) for q in itertools.permutations(range(len(shape))))
    yield random


def cp_inputs(shape, rank, seed):
    """Exact planted input with orthonormal and with Gaussian factors, and one random input."""
    g = np.random.default_rng([seed, rank, *shape])
    weights = g.uniform(0.5, 2.0, size=rank)
    yield cp_eval(CpDecomposition(weights, [orthonormal(g, m, rank) for m in shape])).to_array()
    yield cp_eval(CpDecomposition(weights, [g.normal(size=(m, rank)) for m in shape])).to_array()
    yield g.normal(size=shape)


def tucker_input(seed):
    g = np.random.default_rng([seed, 6])
    arr = g.normal(size=(2, 3, 4))
    for o in range(3):
        arr = np.moveaxis(np.tensordot(orthonormal(g, 6, arr.shape[o]), arr, axes=(1, o)), 0, o)
    return arr


def write_inputs():
    """The input files in the working directory: the fixtures, then the seeded tensors; name -> order."""
    orders = {}
    for path in FIXTURES:
        shutil.copy(path, path.name)
        orders[path.name] = 3
    for name, shape in SHAPES.items():
        arr = np.random.default_rng(list(shape)).normal(size=shape)
        for scale in (1e-8, 1e8):
            orders[f"{name}_{scale:g}.json"] = len(shape)
            save_tensor(DenseTensor(arr * scale), f"{name}_{scale:g}.json")
    return orders


def argvs(name, order):
    """Every subcommand on one input file; the hosvd runs are each followed by tucker on their output."""
    yield ["info", name]
    yield ["mlrank", name]
    for ranks in (None, ",".join(["1"] * order)):
        yield ["hosvd", name] + (["--ranks", ranks] if ranks else [])
        yield ["tucker", "tk.json"]
    yield ["cp", name, "--rank", "2"]
    yield ["odeco", name]
    yield ["svd", name]
    yield ["svd", name, "--p", "O"]
    for mode in range(1, order + 1):
        for variant in "zh":
            yield ["eig", name, "--variant", variant, "--mode", str(mode)]
    yield ["contract", name, name, "--mode", "1"]


# -- calls: (class, result) in the corpus order ------------------------------


def eigen(pairs):
    return [(p.value, p.vector, p.residual, p.converged) for p in pairs]


def tuples(ts):
    return [(s.sigma, s.vectors, s.residual, s.converged) for s in ts]


def als(res):
    return (res.cp.weights, res.cp.factors, res.errors, res.start, res.converged)


def size2_calls():
    for seed, order in itertools.product(range(20), range(2, 6)):
        for arr in size2_inputs(order, seed):
            for scale in (1.0, 1e-8, 1e150):
                t = DenseTensor(arr * scale)
                for mode, variant in itertools.product(range(1, order + 1), "zh"):
                    yield f"size2.{variant}", eigen(find_eigenpairs(t, mode, variant))


def solver_calls():
    for seed, shape in itertools.product(range(4), ((3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (5, 6, 7))):
        for arr in solver_inputs(shape, seed):
            for scale in (1.0, 1e8):
                t = DenseTensor(arr * scale)
                if len(set(shape)) == 1:
                    for mode, variant in itertools.product((1, t.order), "zh"):
                        yield f"eig.{variant}", eigen(find_eigenpairs(t, mode, variant))
                for p, name in ((2, "svd.2"), (t.order, "svd.O")):
                    yield name, tuples(find_singular_tuples(t, p))


def ranks_calls(t):
    """`hosvd` at full ranks and at ranks one less (at least 1), then `multilinear_rank`."""
    dims = t.to_array().shape
    for ranks in (dims, [max(m - 1, 1) for m in dims]):
        tk = hosvd(t, ranks)
        yield "hosvd", (tk.core.to_array(), tk.factors)
    yield "mlrank", multilinear_rank(t)


def decomp_calls():
    for seed, scale in itertools.product(range(4), (1.0, 1e8)):
        for shape, symmetric in [((3, 3, 3), True), ((4, 4, 4), True), ((5, 5, 5), True), ((3, 3, 3, 3), True),
                                 ((3, 3, 3), False), ((4, 5, 6), False), ((3, 4, 3, 2), False)]:
            for arr in odeco_inputs(shape, symmetric, seed):
                res = odeco_decompose(DenseTensor(arr * scale), symmetric=symmetric)
                yield ("odeco.sym" if symmetric else "odeco.gen"), (
                    res.cp.weights, res.cp.factors, res.reconstruction_error, res.orthogonality_defect, res.status)
        for shape, rank in [((4, 4, 4), 2), ((5, 6, 7), 3), ((3, 3, 3, 3), 2)]:
            for arr in cp_inputs(shape, rank, seed):
                t = DenseTensor(arr * scale)
                yield "cp_als", als(cp_als(t, rank))
                yield from ranks_calls(t)
        yield from ranks_calls(DenseTensor(tucker_input(seed) * scale))


def tall_calls():
    for seed, shape, scale in itertools.product(range(4), ((8, 2, 2), (10, 2, 2), (10, 3, 2)), (1.0, 1e8)):
        t = DenseTensor(np.random.default_rng([seed, *shape]).normal(size=shape) * scale)
        yield "tall", ("cp_als",) + als(cp_als(t, 2))
        res = odeco_decompose(t)
        yield "tall", ("odeco", res.cp.weights, res.cp.factors, res.reconstruction_error, res.orthogonality_defect, res.status)
        for ranks in (shape, (1,) * len(shape)):
            tk = hosvd(t, ranks)
            yield "tall", ("hosvd", tk.core.to_array(), tk.factors)
        for p in (2, len(shape)):
            yield "tall", tuples(find_singular_tuples(t, p))


def bench_als_calls():
    """`cp_als` as the decomp benchmark calls it, on random 6^3 at rank 3 and orthonormal planted 4^4 at rank 2."""
    for seed, scale in itertools.product(range(4), (1.0, 1e8)):
        arr = np.random.default_rng([seed, 6, 6, 6]).normal(size=(6, 6, 6))
        # every start runs every sweep
        yield "cp_als.rand6^3", als(cp_als(DenseTensor(arr * scale), 3, max_iters=50, tol=0.0))
        arr = next(cp_inputs((4, 4, 4, 4), 2, seed))
        yield "cp_als.orth4^4", als(cp_als(DenseTensor(arr * scale), 2))


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_calls():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, order in write_inputs().items():
                for argv, fmt in itertools.product(argvs(name, order), ("json", "table")):
                    code, out, err = run(argv + ["--format", fmt])
                    if argv[0] == "hosvd" and fmt == "json":
                        Path("tk.json").write_text(out)
                    yield f"cli.{argv[0]}", (argv + [fmt], out, err, code)
        finally:
            os.chdir(cwd)


def library_calls():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield from size2_calls()
        yield from solver_calls()
        yield from decomp_calls()
        yield from tall_calls()
        yield from bench_als_calls()


def main():
    digests = {}  # classes print in the order of their first call
    for cls, result in itertools.chain(library_calls(), cli_calls()):
        entry = digests.setdefault(cls, [0, 0, hashlib.sha256()])
        entry[0] += 1
        entry[1] += len(result) if isinstance(result, list) else 1
        entry[2].update(encode(result))
    for cls, (calls, records, digest) in digests.items():
        print(f"{cls}: {calls} calls, {records} records, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
