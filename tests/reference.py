"""Reference kernels that the tests hold the library to.

`contract_all_but_loop` is ``F_o`` written as a plain loop: one
`np.tensordot` per contracted mode, for one set of vectors.  The library
evaluates ``F_o`` only through the batched kernel
`contract._contract_all_but_batch`, which the tests compare against this loop.

`power_sweeps_loop` and `damped_newton_loop` are the solvers' two shared
iterations written step by step: the power sweep slices the running columns
out of the blocks and writes them back every sweep, and the Newton line search
halves the step one residual call at a time.  The library's
`contract._power_sweeps` must match the loop bit for bit, and
`spectra._damped_newton`, which evaluates the whole halving ladder in one
residual call, must match it to rounding.

`cli_json` is the CLI's JSON byte contract written with the standard encoder:
round every float to 12 significant digits, then ``json.dumps(indent=2)``.
The CLI writes the same bytes in one pass with `cli._to_json`.
"""

import json

import numpy as np

from tensorspec.contract import _column_norms


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
