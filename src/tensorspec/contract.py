"""Contraction primitives: dot products, traces, mode products, and friends.

All operations are pure functions over immutable tensors.  Conventions:

* `contract(a, o1, b, o2)` keeps a's surviving modes (in order) before b's.
* `mode_product(t, o, L)` leaves the transformed mode in position ``o``; the
  literature sometimes moves the fresh mode to the end instead, and we do not
  follow that convention.
* operations whose result would have order zero return a plain float.

Sums are accumulated pairwise by numpy, which keeps the library's 1e-12
property tolerances honest at desk scale.

The private helpers at the end are the kernels the solvers share: the mode
unfolding and its one SVD (`_mode_svd`, taken of a small R factor, forming
only the vectors its caller reads), the contraction evaluated at many vectors
at once on a tensor laid out once per operator (the one kernel for ``F_o``,
which `contract_all_but` also evaluates, with a single column; a stacked plan
is one concatenated matrix, and the solvers stack only the mode-1 slabs of
their C-ordered copy), one multi-start power iteration that runs every
start as a column of one matrix (the spectral starts, and the odeco
components as one polish), the one start generator of the spectral solvers,
and one batched minimum-norm least-squares solve (the Newton steps, the ALS
normal equations and the odeco pencil).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .shape import _check_mode
from .tensor import DenseTensor, _as_array, _as_matrix, _as_vector, frobenius_inner

__all__ = [
    "dot",
    "trace_pair",
    "contract",
    "mode_product",
    "multi_mode_product",
    "contract_all",
    "contract_all_but",
]


def _wrap(arr: np.ndarray):
    """DenseTensor for order >= 1 results, plain float for order 0."""
    if arr.ndim == 0:
        return float(arr)
    return DenseTensor(arr)


def dot(u, v) -> float:
    """Standard dot product of two equal-length vectors."""
    u, v = _as_vector(u), _as_vector(v)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.size} vs {v.size}")
    return float(np.dot(u, v))


def trace_pair(t: DenseTensor, mode_a: int, mode_b: int):
    """Internal contraction of two equal-sized modes of one tensor.

    Drops the order by two; on a square matrix with modes (1, 2) this is the
    trace.  On an elementary tensor it multiplies by the dot product of the
    two designated vector factors.  Returns a float when the order reaches
    zero.
    """
    arr = _as_array(t)
    if mode_a == mode_b:
        raise ValueError("trace needs two distinct modes")
    mode_a, mode_b = _check_mode(mode_a, arr.ndim), _check_mode(mode_b, arr.ndim)
    if arr.shape[mode_a - 1] != arr.shape[mode_b - 1]:
        raise ValueError(
            f"modes {mode_a} and {mode_b} have unequal sizes "
            f"{arr.shape[mode_a - 1]} vs {arr.shape[mode_b - 1]}"
        )
    return _wrap(np.trace(arr, axis1=mode_a - 1, axis2=mode_b - 1))


def contract(a: DenseTensor, mode_a: int, b: DenseTensor, mode_b: int):
    """Contract mode ``mode_a`` of ``a`` against mode ``mode_b`` of ``b``.

    The result's modes are a's surviving modes followed by b's; matrix
    multiplication is ``contract(X, 2, Y, 1)``.  Returns a float when both
    inputs are vectors.
    """
    aa, bb = _as_array(a), _as_array(b)
    mode_a, mode_b = _check_mode(mode_a, aa.ndim), _check_mode(mode_b, bb.ndim)
    if aa.shape[mode_a - 1] != bb.shape[mode_b - 1]:
        raise ValueError(
            f"contracted sizes differ: {aa.shape[mode_a - 1]} vs {bb.shape[mode_b - 1]}"
        )
    return _wrap(np.tensordot(aa, bb, axes=(mode_a - 1, mode_b - 1)))


def mode_product(t: DenseTensor, o: int, L) -> DenseTensor:
    """Apply a matrix to every mode-``o`` fiber of ``t``.

    ``L`` must have width equal to the size of mode ``o``; the result has
    ``L``'s height there and is otherwise unchanged.  For matrices this is
    multiplication from the left (mode 1) or by the transpose from the right
    (mode 2).
    """
    arr = _as_array(t)
    mat = _as_matrix(L)
    o = _check_mode(o, arr.ndim)
    if mat.shape[1] != arr.shape[o - 1]:
        raise ValueError(
            f"matrix width {mat.shape[1]} does not match mode-{o} size {arr.shape[o - 1]}"
        )
    moved = np.tensordot(mat, arr, axes=(1, o - 1))  # new mode lands in front
    return DenseTensor(np.moveaxis(moved, 0, o - 1))


def multi_mode_product(g: DenseTensor, factors: Sequence) -> DenseTensor:
    """Apply one matrix per mode: the tensor product of linear maps at ``g``.

    Equivalent to sequential `mode_product` calls in any mode order.
    """
    arr = _as_array(g)
    if len(factors) != arr.ndim:
        raise ValueError(f"need {arr.ndim} factors, got {len(factors)}")
    out = DenseTensor(arr)
    for o, L in enumerate(factors, start=1):
        out = mode_product(out, o, L)
    return out


def contract_all(t: DenseTensor, u: DenseTensor) -> float:
    """Contraction along all modes of two same-shaped tensors; the entrywise dot."""
    return frobenius_inner(t, u)


def contract_all_but(t: DenseTensor, o: int, xs: Sequence) -> DenseTensor:
    """Contract a vector onto every mode except ``o``.

    ``xs`` lists the O-1 vectors in increasing mode order (skipping ``o``);
    the result is the length-``M_o`` vector of full contractions against each
    mode-``o`` slice.  Multilinear in the ``xs``.  Evaluated by
    `_contract_all_but_batch` with one column each.
    """
    arr = _as_array(t)
    xs = [_as_vector(x) for x in xs]
    order = arr.ndim
    o = _check_mode(o, order)
    if len(xs) != order - 1:
        raise ValueError(f"need {order - 1} vectors, got {len(xs)}")
    modes = [m for m in range(1, order + 1) if m != o]
    for m, x in zip(modes, xs):
        if x.shape[0] != arr.shape[m - 1]:
            raise ValueError(
                f"vector of length {x.shape[0]} does not match mode-{m} size {arr.shape[m - 1]}"
            )
    return DenseTensor(_contract_all_but_batch(_contract_plan(arr, (o,)), [x[:, None] for x in xs])[:, 0])


# -- kernels shared by the solvers ----------------------------------------------


def _mode_unfolding(arr: np.ndarray, o: int) -> np.ndarray:
    """Mode-o matricization on raw arrays: rows = mode o, columns colex over the rest.

    One transpose puts mode o first (the view `np.moveaxis` builds, at a
    fraction of its call cost), and the F-order reshape is a view where the
    strides allow one and an F-contiguous copy otherwise.  So the layout is
    that of the `np.moveaxis` form, which matters: BLAS sums the ALS MTTKRP
    in an order that depends on it.  On a C- or F-contiguous array a view is
    C- or F-contiguous too: the last mode's unfolding of an F-ordered array,
    as `DenseTensor` stores it, is a C-contiguous view.
    """
    return arr.transpose([o - 1, *range(o - 1), *range(o, arr.ndim)]).reshape(arr.shape[o - 1], -1, order="F")


def _contract_plan(arr: np.ndarray, keep) -> tuple:
    """What `_contract_all_but_batch` needs of ``arr`` for the modes ``keep``, set up once.

    ``keep`` is a tuple of distinct 1-based modes (plain ints), which lead
    the result in the order given, or a list of such tuples of equal sizes,
    stacked along a new leading axis.  The plan is ``(mat, dims, shape)``:
    ``arr`` with the kept modes first as a matrix whose columns are the last
    contracted mode (the reshape copies ``arr`` once per keep, or is a
    view), the sizes of the other contracted modes, last first, and the kept
    shape.  Stacked matrices are always concatenated.  The stack has the
    bits of its keeps planned one by one where each keep's matrix is
    C-ordered (BLAS sums a column of another layout in another order), as
    for the mode-1 slabs of a C-ordered ``arr``, the only stacks the solvers
    build.  With nothing to contract ``mat`` is the result and ``dims`` is None.
    """
    stacked = isinstance(keep, list)
    keeps = keep if stacked else [keep]
    leads = [arr.transpose([m - 1 for m in k] + [m - 1 for m in range(1, arr.ndim + 1) if m not in k]) for k in keeps]
    kept = len(keeps[0])
    shape = ((len(leads),) if stacked else ()) + leads[0].shape[:kept]
    if kept == arr.ndim:
        return (np.stack(leads) if stacked else leads[0])[..., None], None, shape
    mats = [lead.reshape(-1, lead.shape[-1]) for lead in leads]
    return np.concatenate(mats) if stacked else mats[0], leads[0].shape[kept:-1][::-1], shape


def _contract_all_but_batch(plan: tuple, xs) -> np.ndarray:
    """Contract column ``s`` of ``xs`` onto every mode outside a `_contract_plan`'s ``keep``, for every ``s``.

    ``xs`` is either one ``(M, S)`` matrix whose columns go on every
    contracted mode (eigenvectors) or a sequence of one ``(M_m, S)`` matrix
    per contracted mode, in increasing mode order.  The result has shape
    ``(M_k for k in keep) + (S,)``, after the stacking axis if any; with
    nothing left to contract the last axis has length 1 and broadcasts.

    One matmul contracts the last mode for all columns at once, then one
    batched reduction per remaining mode; a single many-operand einsum is
    far slower at these sizes.
    """
    mat, dims, shape = plan
    if dims is None:
        return mat
    mats = [xs] * (len(dims) + 1) if isinstance(xs, np.ndarray) else xs
    s = mats[-1].shape[1]
    out = mat @ mats[-1]
    for d, x in zip(dims, mats[-2::-1]):
        out = np.einsum("rjs,js->rs", out.reshape(out.shape[0] // d, d, s), x)
    return out.reshape(shape + (s,))


def _column_norms(y: np.ndarray, p: int = 2) -> np.ndarray:
    if p == 2:
        return np.sqrt(np.add.reduce(y * y, axis=0))
    return np.add.reduce(np.abs(y) ** p, axis=0) ** (1.0 / p)


def _chunk_length(before, last, floor: float, run: int) -> int:
    """How many sweeps `_power_sweeps` runs next, after ``run`` sweeps.

    ``before`` and ``last`` are the running columns' squared moves in the
    last two sweeps; after one sweep ``before`` is None and taken as 2, the
    largest squared move up to sign between unit vectors, which overstates
    the first rate.  Each column's move is extrapolated at its last rate to
    the sweep at which it reaches ``floor``, the log of ``tol^2``, where it
    would stop.  The chunk ends at the sweep after which at most one column
    is predicted to be left, and is at least 1 and at most ``run + 1``
    sweeps long: a rate is read from one sweep, and a column can converge
    faster than its last rate says (the odeco components converge faster
    than linearly), so a chunk runs at most one sweep more than all the
    sweeps before it.
    """
    cap = run + 1
    # a column whose move did not shrink is predicted never to stop
    last = np.log(last)
    left = (floor - last) / np.minimum(last - (math.log(2.0) if before is None else np.log(before)), -1e-12)
    left.partition(left.size - 2)
    ahead = float(left[-2] if left.size > 1 else left[0])
    if not ahead < cap:
        return cap
    return math.ceil(ahead) if ahead > 1.0 else 1


def _power_sweeps(update, blocks: Sequence[np.ndarray], p: int, tol: float, max_iters: int):
    """Multi-start power iteration with every start as one column.

    Column ``s`` of each matrix in ``blocks`` is start ``s``.  A sweep
    replaces block ``k = 0, 1, ...`` in turn by ``update(k, current, cols)``
    scaled to unit p-norm, where ``current`` holds the blocks restricted to
    the running columns and ``cols`` their indices.  A column stops, frozen,
    when an update of it has zero norm (that block keeps its value; status
    -1), when no block moved by more than ``tol`` in 2-norm up to sign
    during a sweep (status 1), or after ``max_iters`` sweeps (status 0).
    Returns the final blocks and the per-column status.

    The sweeps run in chunks of `_chunk_length` sweeps.  A sweep only
    updates each block, normalizes it and writes it into the chunk's
    history, one ``(n + 1, sum M_k, S)`` array; the stop tests run once per
    chunk on the whole history, with the expressions of a per-sweep test
    (the moves block by block, in one scratch array of the block's size),
    and a column that stopped inside the chunk takes its blocks from the
    sweep it stopped at.  Columns that stopped early keep being updated
    until the chunk ends, which changes no bit of the others: a BLAS
    product rounds each column the same whatever the column count, as long
    as it is at least two.  A one-column product rounds differently, so
    when the running set drops to exactly one column inside a chunk, the
    chunk ends at that sweep and the survivor goes on alone, as it would in
    a loop that narrows after every sweep.
    """
    sizes = [b.shape[0] for b in blocks]
    spans = [slice(a, a + m) for a, m in zip(itertools.accumulate(sizes, initial=0), sizes)]
    final = np.concatenate(blocks, dtype=float)  # every block's rows, one after the other
    status = np.zeros(final.shape[1], dtype=int)
    cols = np.arange(status.size)
    start = final
    floor = math.log(tol * tol) if tol * tol > 0.0 else -math.inf
    run, length, last = 0, 1, None  # last: the running columns' moves in the sweep before
    while cols.size and run < max_iters:
        length = min(length, max_iters - run)
        hist = np.empty((length + 1,) + start.shape)
        hist[0] = start
        current = [hist[0, span] for span in spans]
        dead = None
        for t in range(1, length + 1):
            alive = None  # None until a norm is zero in this sweep
            for k, span in enumerate(spans):
                y = update(k, current, cols)
                nrm = _column_norms(y, p)
                out = hist[t, span]
                if alive is None and np.count_nonzero(nrm) == nrm.size:
                    np.divide(y, nrm, out=out)
                else:
                    alive = nrm != 0.0 if alive is None else alive & (nrm != 0.0)
                    out[...] = np.where(alive, y / np.where(alive, nrm, 1.0), current[k])
                current[k] = out
            if alive is not None:
                dead = np.zeros((length, cols.size), dtype=bool) if dead is None else dead
                dead[t - 1] = ~alive
        # per sweep and column, the largest squared move of any block up to sign
        moves = None
        for span in spans:
            new, old = hist[1:, span], hist[:-1, span]
            step = np.subtract(new, old)
            step *= step
            minus = np.add.reduce(step, axis=1)
            np.add(new, old, out=step)
            step *= step
            move = np.minimum(minus, np.add.reduce(step, axis=1))
            moves = move if moves is None else np.maximum(moves, move)
        # the sweep each column stops at, length for none
        stop = np.empty((length + 1, cols.size), dtype=bool)
        np.less_equal(np.sqrt(moves), tol, out=stop[:length])
        if dead is not None:
            stop[:length] |= dead
        stop[length] = True
        ends = stop.argmax(axis=0)
        keep = ends == length
        running = np.count_nonzero(keep)
        if running < cols.size:
            if running < 2 and cols.size > 1 and length > 1:
                top = ends.copy()
                top.partition(cols.size - 2)
                if top[-2] < min(top[-1], length - 1):
                    length = int(top[-2]) + 1  # one column is left: it goes on alone
                    keep = ends >= length
            idx = np.flatnonzero(~keep)
            final[:, cols[idx]] = hist[1][:, idx] if length == 1 else hist[ends[idx] + 1, :, idx].T
            status[cols[idx]] = 1 if dead is None else np.where(dead[ends[idx], idx], -1, 1)
            cols = cols[keep]
        else:
            keep = slice(None)
        run += length
        if cols.size:
            start = hist[length][:, keep]
            if run < max_iters:
                before = moves[length - 2][keep] if length > 1 else None if last is None else last[keep]
                last = moves[length - 1][keep]
                length = _chunk_length(before, last, floor, run)
    if cols.size:
        final[:, cols] = start
    return [final[span] for span in spans], status


def _mode_svd(arr: np.ndarray, o: int, cols: int) -> tuple[np.ndarray | None, np.ndarray]:
    """``(U, s)``: the first ``cols`` left singular vectors and every singular value of the mode-o unfolding.

    Both come from the SVD of the small ``R.T``, ``R`` the R factor of
    ``qr(unfolding.T)``: the unfolding is ``R.T @ Q.T`` with orthonormal rows
    in ``Q.T``, so the SVD skips the ``|T| / M_o`` columns of the unfolding's
    ``V`` (Chan's R-bidiagonalisation).  With ``cols`` 0, ``U`` is ``None``;
    otherwise the SVD forms ``min(M_o, N_o)`` vectors, ``N_o`` the column
    count, or all ``M_o`` for a larger ``cols`` (the rest complete a basis).
    """
    r_t = np.linalg.qr(_mode_unfolding(arr, o).T, mode="r").T
    if not cols:
        return None, np.linalg.svd(r_t, compute_uv=False)
    u, s, _ = np.linalg.svd(r_t, full_matrices=cols > r_t.shape[1])
    return u[:, :cols], s


def _starts(arr: np.ndarray, modes, count: int, seed: int) -> list[np.ndarray]:
    """One ``(M_o, count)`` block of unit start columns for each mode ``o`` in ``modes``.

    With ``R`` the smallest listed mode size, columns ``0 .. R-1`` are the
    leading left singular vectors of each mode's unfolding (`_mode_svd`
    forms ``min(M_o, N_o)`` of them, no square basis on a tall mode), columns
    ``R .. 2R-1`` the first ``R`` coordinate vectors, and every later column
    takes one ``default_rng(seed).normal`` draw per mode, mode by mode.  The
    blocks keep their first ``count`` columns.  The draws are one
    ``(count - 2R, sum M_o)`` block, split by mode, and each is divided by
    the square root of its own dot product (a batched ``w @ w``, the dot
    that `np.linalg.norm` takes), so every column has the bits of a
    per-column draw and norm.
    """
    dims = [arr.shape[o - 1] for o in modes]
    r = min(dims)
    draws = np.random.default_rng(seed).normal(size=(max(count - 2 * r, 0), sum(dims)))
    blocks = []
    for o, d, w in zip(modes, dims, np.split(draws, np.cumsum(dims)[:-1], axis=1)):
        nrm = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0]
        blocks.append(np.hstack([_mode_svd(arr, o, r)[0], np.eye(d, r), (w / nrm).T])[:, :count])
    return blocks


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(C, n, K)`` minimum-norm least-squares solutions of the square systems ``a[c] @ x = b[c]``.

    ``a`` is a ``(C, n, n)`` batch and ``b`` its ``(C, n, K)`` right-hand
    sides, solved with one batched LU.  A batch in which some matrix is
    exactly singular, so that LU raises, takes the SVD, dropping singular
    values below lstsq's cutoff ``eps * n * sigma_max``; there the matrices
    that drop none are solved by LU again, which gives them the bits they
    get alone.  Raises `np.linalg.LinAlgError` when the SVD does not
    converge.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        pass
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    kept = (sv > np.finfo(float).eps * a.shape[-1] * sv[:, :1])[:, :, None]
    coef = np.einsum("crk,crj->ckj", u, b)
    coef = np.where(kept, coef / np.where(kept, sv[:, :, None], 1.0), 0.0)
    x = np.einsum("ckn,ckj->cnj", vt, coef)
    full = kept.all(axis=(1, 2))
    if full.any():
        try:
            x[full] = np.linalg.solve(a[full], b[full])
        except np.linalg.LinAlgError:
            pass
    return x
