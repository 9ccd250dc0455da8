"""Reference kernels that the tests hold the library to.

`contract_all_but_loop` is ``F_o`` written as a plain loop: one
`np.tensordot` per contracted mode, for one set of vectors.  The library
evaluates ``F_o`` only through the batched kernel
`contract._contract_all_but_batch`, which the tests compare against this loop.

`contract_all_but_batch_parent` is that kernel as it was before it took a
plan: it transposed and reshaped the tensor on every call.
`eig_jacobian_parent` and `tuple_jacobian_parent` are the two systems'
Jacobians on top of it, with one kernel call per other mode or pair of modes.
The planned kernel and the Jacobians built on it, one stacked kernel pass for
the eigen system, must match them bit for bit, at one column too.

`power_sweeps_loop` and `damped_newton_loop` are the solvers' two shared
iterations written step by step: the power sweep slices the running columns
out of the blocks and writes them back every sweep, and the Newton line search
halves the step one residual call at a time and takes every step by the
truncated SVD.  The library's `contract._power_sweeps` must match the loop bit
for bit.  `spectra._damped_newton` evaluates the whole halving ladder in one
residual call and takes its steps from `contract._lstsq`, which solves square
systems by LU; its converged columns must match the loop's to rounding, since
the two steps differ only at Jacobians singular to rounding.

`als_sweeps_parent` is the batched ALS loop of `decomp._als_sweeps` as it
was before it kept its running starts between sweeps: every sweep gathers the
running starts out of the factor and Gram stacks, writes each of them back and
appends each start's error in a Python loop.  It stops the batch at the
rounding floor as the library does.  The library must match it bit for bit:
factors, traces and convergence flags.

`starts_loop` is `contract._starts`, the start generator of the spectral
solvers, drawn and normalized one column and one mode at a time; the library
draws one block and must match it bit for bit.

`odeco_deflation` is odeco recovery as it was before GEVD: one multi-start
power iteration per component on the deflated remainder.  On noisy planted
input `decomp.odeco_decompose` must fit no worse than it.

`finish_loop` is the end of a spectral solve on record objects: converged
records deduplicated one pair at a time, or the best record alone, then
sorted as printed.  `spectra._finish` does the same on arrays and must
return the same records in the same order.

`root_lines_parent` and `root_clusters_parent` are the size-2 root finder
as it was before it tested for a possible multiple root: `np.roots` once per
chart, `spectra._split_roots` on every root group, and the clusters kept one
at a time.  `spectra._root_lines` makes one `np.linalg.eigvals` call for both
charts and skips `_split_roots` where a bound proves it passes no group; it
must match them bit for bit.

`count_linalg` is not a kernel but a probe the solver tests share: it records
the shape of every `np.linalg.svd`, `np.linalg.solve` and `np.linalg.qr`
argument, to check which matrices a solve factors.

`cli_json` is the CLI's JSON byte contract written with the standard encoder:
round every float to 12 significant digits (a non-finite one, which JSON
cannot spell, becomes ``None``), then ``json.dumps(indent=2)``.  The CLI
writes the same bytes in one pass with `cli._to_json`.
"""

import functools
import json
import math

import numpy as np

from tensorspec.contract import _column_norms, _contract_all_but_batch, _contract_plan, _lstsq, _mode_unfolding, _power_sweeps, _starts
from tensorspec.decomp import _khatri_rao
from tensorspec.spectra import _DEDUP_TOL, _phi, _split_roots


def contract_all_but_loop(arr, o, xs):
    """Contract ``xs`` (increasing mode order, skipping ``o``) onto every mode of ``arr`` except ``o``."""
    modes = [m for m in range(1, arr.ndim + 1) if m != o]
    out = arr
    # contract from the highest mode down; axis numbers below stay valid
    for m, x in sorted(zip(modes, xs), key=lambda p: -p[0]):
        out = np.tensordot(out, x, axes=(m - 1, 0))
    return out


def contract_all_but_batch_parent(arr, keep, xs):
    """`contract._contract_all_but_batch` before it took a plan, which set up the same unfolding on every call."""
    keep = (keep,) if isinstance(keep, int) else tuple(keep)
    rest = [m for m in range(1, arr.ndim + 1) if m not in keep]
    mats = [xs] * len(rest) if isinstance(xs, np.ndarray) else list(xs)
    lead = arr.transpose([k - 1 for k in keep] + [m - 1 for m in rest])
    if not rest:
        return lead[..., None]
    s = mats[-1].shape[1]
    out = lead.reshape(-1, arr.shape[rest[-1] - 1]) @ mats[-1]
    for m, x in zip(rest[-2::-1], mats[-2::-1]):
        d = arr.shape[m - 1]
        out = np.einsum("rjs,js->rs", out.reshape(out.shape[0] // d, d, s), x)
    return out.reshape(lead.shape[: len(keep)] + (s,))


def eig_jacobian_parent(arr, mode, power, v):
    """The eigen system's Jacobian with one kernel call and one ``+=`` per other mode."""
    m = arr.shape[0]
    x, lam = v[:m], v[m]
    jac = np.zeros((x.shape[1], m + 1, m + 1))
    for j in range(1, arr.ndim + 1):
        if j != mode:
            jac[:, :m, :m] += np.moveaxis(contract_all_but_batch_parent(arr, (mode, j), x), -1, 0)
    diag = np.arange(m)
    jac[:, diag, diag] -= (power * lam * x ** (power - 1)).T
    jac[:, :m, m] = -(x**power).T
    jac[:, m, :m] = 2.0 * x.T
    return jac


def tuple_jacobian_parent(arr, p, v):
    """The square singular system's Jacobian, one sigma per mode, with one kernel call per pair of modes."""
    order = arr.ndim
    power = p - 1
    offsets = np.cumsum([0] + list(arr.shape))
    n = int(offsets[-1])
    xs, sig = np.split(v[:n], offsets[1:-1]), v[n:]
    jac = np.zeros((v.shape[1], n + order, n + order))
    for o in range(order):
        rows = slice(offsets[o], offsets[o + 1])
        for j in range(o + 1, order):
            cols = slice(offsets[j], offsets[j + 1])
            rest = [xs[k] for k in range(order) if k not in (o, j)]
            block = np.moveaxis(contract_all_but_batch_parent(arr, (o + 1, j + 1), rest), -1, 0)
            jac[:, rows, cols] = block
            jac[:, cols, rows] = np.swapaxes(block, 1, 2)
        diag = np.arange(offsets[o], offsets[o + 1])
        jac[:, diag, diag] = -(power * sig[o] * np.abs(xs[o]) ** (power - 1)).T
        jac[:, rows, n + o] = -_phi(xs[o], power).T
        jac[:, n + o, rows] = (p * _phi(xs[o], p - 1)).T
    return jac


def power_sweeps_loop(update, blocks, p, tol, max_iters):
    """`contract._power_sweeps`, re-slicing and writing back the running columns every sweep."""
    blocks = [np.array(b, dtype=float) for b in blocks]
    status = np.zeros(blocks[0].shape[1], dtype=int)
    cols = np.arange(status.size)
    for _ in range(max_iters):
        if not cols.size:
            break
        current = [b[:, cols] for b in blocks]
        alive = np.ones(cols.size, dtype=bool)
        delta = np.zeros(cols.size)
        for k, x in enumerate(current):
            y = update(k, current, cols)
            nrm = _column_norms(y, p)
            alive &= nrm != 0.0
            y = np.where(alive, y / np.where(alive, nrm, 1.0), x)
            delta = np.maximum(delta, np.minimum(_column_norms(y - x), _column_norms(y + x)))
            current[k] = y
        for b, c in zip(blocks, current):
            b[:, cols] = c
        done = alive & (delta <= tol)
        status[cols[~alive]] = -1
        status[cols[done]] = 1
        cols = cols[alive & ~done]
    return blocks, status


def damped_newton_loop(residual, jacobian, v, iters=50, tol=1e-13):
    """`spectra._damped_newton` with the line search halving one residual call at a time."""
    v = np.array(v, dtype=float)
    g = residual(v)
    cols = np.arange(v.shape[1])
    for _ in range(iters):
        cols = cols[np.max(np.abs(g[:, cols]), axis=0) > tol]
        if not cols.size:
            break
        jac = jacobian(v[:, cols])
        finite = np.all(np.isfinite(jac), axis=(1, 2)) & np.all(np.isfinite(g[:, cols]), axis=0)
        cols, jac = cols[finite], jac[finite]
        if not cols.size:
            break
        try:
            u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        except np.linalg.LinAlgError:
            break
        kept = sv > np.finfo(float).eps * max(jac.shape[1:]) * sv[:, :1]
        coef = np.einsum("crk,rc->ck", u, g[:, cols])
        coef = np.where(kept, coef / np.where(kept, sv, 1.0), 0.0)
        step = -np.einsum("ckn,ck->nc", vt, coef)
        base = np.linalg.norm(g[:, cols], axis=0)
        pending = np.ones(cols.size, dtype=bool)
        t = 1.0
        for _ in range(20):
            idx = np.flatnonzero(pending)
            cand = v[:, cols[idx]] + t * step[:, idx]
            gc = residual(cand)
            better = np.linalg.norm(gc, axis=0) < base[idx]
            v[:, cols[idx[better]]] = cand[:, better]
            g[:, cols[idx[better]]] = gc[:, better]
            pending[idx[better]] = False
            if not pending.any():
                break
            t /= 2.0
        cols = cols[~pending]
    return v


def als_sweeps_parent(arr: np.ndarray, factors: list[np.ndarray], max_iters: int, tol: float):
    """`decomp._als_sweeps` as it was, gathering and writing back the running starts every sweep.

    Run ALS from every start at once; start ``s`` is slice ``s`` of each stack.

    ``factors[o]`` stacks the starts' mode-o factors, shape ``(S, M_o, R)``.
    A sweep updates modes 1..O in turn for the running starts.  Its error is
    the exact relative residual ``||X_(O) - A_O kr^T||_F / ||T||_F`` of the
    last mode's unfolding against the Khatri-Rao product its update just
    built.  A start stops, frozen, when a sweep would raise its error (it
    keeps the previous sweep), when the error gains less than ``tol`` or
    reaches 1e-15 (converged), or after ``max_iters`` sweeps (not converged).
    Once some start reaches 1e-15 every start stops after that sweep, each
    keeping its own last kept sweep and flag.  Returns the final stacks,
    each start's error trace and convergence flags.

    Memory: the stacked Khatri-Rao product holds ``S * R * |T| / M_o``
    entries, S times what one start needs; the residual is taken for all
    running starts at once, one batched matmul and one batched dot, so it
    holds S copies of the last unfolding.
    """
    order = arr.ndim
    starts = factors[0].shape[0]
    norm_t = float(np.linalg.norm(arr))
    unfoldings = [_mode_unfolding(arr, o) for o in range(1, order + 1)]
    factors = [np.array(f, dtype=float) for f in factors]
    grams = [np.swapaxes(f, 1, 2) @ f for f in factors]
    traces: list[list[float]] = [[] for _ in range(starts)]
    last = np.full(starts, np.inf)
    converged = np.zeros(starts, dtype=bool)
    cols = np.arange(starts)
    for _ in range(max_iters):
        if not cols.size:
            break
        cur = [f[cols] for f in factors]
        cur_grams = [g[cols] for g in grams]
        for o in range(order):
            # colex unfolding pairs with the reversed-order Khatri-Rao chain
            kr = _khatri_rao([cur[j] for j in range(order - 1, -1, -1) if j != o])
            gram = np.ones_like(cur_grams[0])
            for j in range(order):
                if j != o:
                    gram = gram * cur_grams[j]
            # x @ gram = rhs, transposed to gram^T @ x^T = rhs^T
            cur[o] = np.swapaxes(_lstsq(np.swapaxes(gram, 1, 2), np.swapaxes(unfoldings[o] @ kr, 1, 2)), 1, 2)
            cur_grams[o] = np.swapaxes(cur[o], 1, 2) @ cur[o]
        resid = cur[-1] @ np.swapaxes(kr, 1, 2)
        resid -= unfoldings[-1]
        flat = resid.reshape(cols.size, 1, -1)
        # a batched dot, the one np.linalg.norm takes of each start's residual
        err = np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0, 0]
        err = err / norm_t if norm_t > 0 else np.zeros_like(err)
        prev = last[cols]
        # an exact least-squares sweep cannot increase the objective, so a
        # rise is rounding at the fit's floor: the start keeps its previous sweep
        keep = ~(err > prev)
        kept = cols[keep]
        for f, g, c, cg in zip(factors, grams, cur, cur_grams):
            f[kept] = c[keep]
            g[kept] = cg[keep]
        last[kept] = err[keep]
        for k, e in zip(kept.tolist(), err[keep].tolist()):
            traces[k].append(e)
        floor = err <= 1e-15
        done = ~keep | (prev - err < tol) | floor
        converged[cols[done]] = True
        # once a start reaches the floor every start stops, keeping its own flag
        cols = cols[~done] if not floor.any() else cols[:0]
    return factors, traces, converged


def starts_loop(arr, modes, count, seed):
    """`contract._starts` with one ``g.normal`` per mode per column and one `np.linalg.norm` per draw."""
    dims = [arr.shape[o - 1] for o in modes]
    r = min(dims)
    lead = [np.linalg.svd(np.linalg.qr(_mode_unfolding(arr, o).T, mode="r").T)[0][:, :r] for o in modes]
    g = np.random.default_rng(seed)
    draws = [[g.normal(size=d) for d in dims] for _ in range(count - 2 * r)]
    return [
        np.column_stack([u, np.eye(d, r)] + [w[k] / np.linalg.norm(w[k]) for w in draws])[:, :count]
        for k, (u, d) in enumerate(zip(lead, dims))
    ]


def odeco_deflation(arr, symmetric=False, rank=None, max_iters=500, tol=1e-10, seed=0, starts=8):
    """`decomp.odeco_decompose` as it was before GEVD: multi-start power iteration with deflation.

    Each round runs the `contract._starts` columns of the remainder through
    one `contract._power_sweeps` call, keeps the first start of largest
    ``|value|`` and subtracts its rank-one term, until ``rank`` components
    (default: the smallest mode size) or the remainder is at most ``tol``
    times the input norm.  Returns the weights, the factor matrices and the
    relative reconstruction error; no weights when a round fails.
    """
    data = arr = np.asarray(arr, dtype=float)
    order = arr.ndim
    rank = min(arr.shape) if rank is None else rank
    norm0 = np.linalg.norm(arr)
    weights, vectors = [], []
    while len(weights) < rank and np.linalg.norm(arr) > tol * max(norm0, 1e-300):
        blocks = _starts(arr, [1] if symmetric else range(1, order + 1), starts, seed)
        plans = [_contract_plan(arr, (o,)) for o in range(1, len(blocks) + 1)]

        def update(k, cur, cols):
            return _contract_all_but_batch(plans[0], cur[0]) if symmetric else _contract_all_but_batch(plans[k], cur[:k] + cur[k + 1:])

        blocks, status = _power_sweeps(update, blocks, 2, tol, max_iters)
        xs = blocks * order if symmetric else blocks
        value = np.sum(_contract_all_but_batch(plans[0], xs[1:]) * xs[0], axis=0)
        value[status < 0] = 0.0
        k = int(np.argmax(np.abs(value)))
        if status[k] != 1 or value[k] == 0.0:
            return [], [], 1.0
        weights.append(value[k])
        vectors.append([x[:, k] for x in xs])
        arr = arr - value[k] * functools.reduce(np.multiply.outer, vectors[-1])
    factors = [np.column_stack(v) for v in zip(*vectors)]
    fit = np.einsum("r," + ",".join(f"{c}r" for c in "abcde"[:order]) + "->" + "abcde"[:order], np.array(weights), *factors)
    return np.array(weights), factors, np.linalg.norm(fit - data) / max(norm0, 1e-300)


def root_clusters_parent(p: np.ndarray, roots: np.ndarray, noise: float) -> list:
    near = np.argsort(np.abs(roots[:, None] - roots[None, :]), axis=1, kind="stable")
    fits = _split_roots(p, roots[near], noise)
    means, taken = [], np.zeros(roots.size, dtype=bool)
    for k in range(roots.size, 1, -1):
        for i in np.flatnonzero(fits[:, k - 1]):
            if not taken[near[i, :k]].any():
                taken[near[i, :k]] = True
                means.append(roots[near[i, :k]].mean())
    return means + list(roots[~taken])


def root_lines_parent(g: np.ndarray, noise: float) -> np.ndarray:
    cols = []
    for coeffs, line in ((g[::-1], lambda r: (1.0, r)), (g, lambda r: (r, 1.0))):
        roots = np.roots(coeffs)
        # a cluster with its mean in the unit disc lies well inside modulus 2
        for r in root_clusters_parent(coeffs, roots[np.abs(roots) <= 2.0], noise):
            if abs(r.imag) <= 1e-9 and abs(r) <= 1.0 + 1e-9:
                cols.append(line(r.real))
    x = np.array(cols, dtype=float).reshape(-1, 2).T
    return x / _column_norms(x)


def finish_loop(records: list, key, top: float = 1.0) -> list:
    """`spectra._finish` on records: ``key`` maps a record to its (scalar, vector) pair.

    The printed order reads the scalar times ``top``, the factor the solvers
    scale records back by.
    """

    def dedup(records: list) -> list:
        """Drop records within ``_DEDUP_TOL`` of a lower-residual one."""
        kept = []
        for r in sorted(records, key=lambda q: q.residual):
            s, v = key(r)
            if not any(
                abs(s - ks) <= _DEDUP_TOL * max(1.0, abs(ks)) and np.max(np.abs(v - kv)) <= _DEDUP_TOL
                for _, ks, kv in kept
            ):
                kept.append((r, s, v))
        return [k[0] for k in kept]

    def printed_order(records: list) -> list:
        """By decreasing |scalar| to 12 significant digits, as printed, then unit-scale entries to 12 decimals."""

        def rank(r):
            s, v = key(r)
            return -float(f"{abs(s * top):.12g}"), [round(e, 12) for e in v.tolist()]

        return sorted(records, key=rank)

    def converged_or_best(records: list) -> list:
        """The converged records through `dedup`; if none converged, the lowest-residual record alone."""
        good = [r for r in records if r.converged]
        if good or not records:
            return dedup(good)
        return [min(records, key=lambda r: r.residual)]

    return printed_order(converged_or_best(records))


def count_linalg(monkeypatch):
    """The shapes of the first arguments of every later `np.linalg.svd`, `np.linalg.solve` and `np.linalg.qr` call, by name."""
    calls = {"svd": [], "solve": [], "qr": []}
    for name, shapes in calls.items():
        def wrapped(a, *args, _fn=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(a.shape)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


def round12(obj):
    """Every float in nested dicts and lists rounded to 12 significant digits; a non-finite float is None."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [round12(v) for v in obj]
    return obj


def cli_json(obj):
    return json.dumps(round12(obj), indent=2)
