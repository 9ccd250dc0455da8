"""Reference kernels that the tests hold the library to.

`contract_all_but_loop` is ``F_o`` written as a plain loop: one
`np.tensordot` per contracted mode, for one set of vectors.  The library
evaluates ``F_o`` only through the batched kernel
`contract._contract_all_but_batch`, which the tests compare against this loop.

`power_sweeps_loop` and `damped_newton_loop` are the solvers' two shared
iterations written step by step: the power sweep slices the running columns
out of the blocks and writes them back every sweep, and the Newton line search
halves the step one residual call at a time and takes every step by the
truncated SVD.  The library's `contract._power_sweeps` must match the loop bit
for bit.  `spectra._damped_newton` evaluates the whole halving ladder in one
residual call and solves square systems by LU; its converged columns must
match the loop's to rounding, since the two steps differ only at Jacobians
singular to rounding.

`starts_loop` is `spectra._starts` drawn and normalized one column and one
mode at a time; the library draws one block and must match it bit for bit.

`finish_loop` is the end of a spectral solve on record objects: converged
records deduplicated one pair at a time, or the best record alone, then
sorted as printed.  `spectra._finish` does the same on arrays and must
return the same records in the same order.

`cli_json` is the CLI's JSON byte contract written with the standard encoder:
round every float to 12 significant digits, then ``json.dumps(indent=2)``.
The CLI writes the same bytes in one pass with `cli._to_json`.
"""

import json

import numpy as np

from tensorspec.contract import _column_norms, _mode_unfolding
from tensorspec.spectra import _DEDUP_TOL


def contract_all_but_loop(arr, o, xs):
    """Contract ``xs`` (increasing mode order, skipping ``o``) onto every mode of ``arr`` except ``o``."""
    modes = [m for m in range(1, arr.ndim + 1) if m != o]
    out = arr
    # contract from the highest mode down; axis numbers below stay valid
    for m, x in sorted(zip(modes, xs), key=lambda p: -p[0]):
        out = np.tensordot(out, x, axes=(m - 1, 0))
    return out


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


def starts_loop(arr, modes, count, seed):
    """`spectra._starts` with one ``g.normal`` per mode per column and one `np.linalg.norm` per draw."""
    dims = [arr.shape[o - 1] for o in modes]
    r = min(dims)
    lead = [np.linalg.svd(_mode_unfolding(arr, o), full_matrices=False)[0][:, :r] for o in modes]
    g = np.random.default_rng(seed)
    draws = [[g.normal(size=d) for d in dims] for _ in range(count - 2 * r)]
    return [
        np.column_stack([u, np.eye(d, r)] + [w[k] / np.linalg.norm(w[k]) for w in draws])[:, :count]
        for k, (u, d) in enumerate(zip(lead, dims))
    ]


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


def round12(obj):
    """Every float in nested dicts and lists rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [round12(v) for v in obj]
    return obj


def cli_json(obj):
    return json.dumps(round12(obj), indent=2)
