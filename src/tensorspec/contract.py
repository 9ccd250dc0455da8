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
unfolding and the small R factor that every unfolding SVD is taken of, the
contraction evaluated at many vectors at once on a tensor laid out once per
operator (the one kernel for ``F_o``, which `contract_all_but` also
evaluates, with a single column; a stacked plan is one concatenated matrix,
and the solvers stack only the mode-1 slabs of their C-ordered copy), one
multi-start power iteration that runs every start as a column of one matrix
(the spectral starts, and the odeco components as one polish), the one start
generator of the spectral solvers, and one batched minimum-norm
least-squares solve (the Newton steps, the ALS normal equations and the
odeco pencil).
"""

from __future__ import annotations

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
    """Mode-o matricization on raw arrays: rows = mode o, columns colex over the rest."""
    return np.moveaxis(arr, o - 1, 0).reshape(arr.shape[o - 1], -1, order="F")


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


def _power_sweeps(update, blocks: Sequence[np.ndarray], p: int, tol: float, max_iters: int):
    """Multi-start power iteration with every start as one column.

    Column ``s`` of each matrix in ``blocks`` is start ``s``.  A sweep
    replaces block ``k = 0, 1, ...`` in turn by ``update(k, current, cols)``
    scaled to unit p-norm, where ``current`` holds the blocks restricted to
    the running columns and ``cols`` their indices.  A column stops, frozen,
    when an update of it has zero norm (that block keeps its value; status
    -1), when no block moved by more than ``tol`` in 2-norm up to sign
    during a sweep (status 1), or after ``max_iters`` sweeps (status 0).
    ``current`` is kept from sweep to sweep; it is written back into the
    blocks and narrowed to the running columns only after a sweep in which
    some column stopped, and once at the end; a sweep with no zero norm in
    which some block moved every column by more than ``tol`` does neither.
    Returns the final blocks and the per-column status.
    """
    blocks = [np.array(b, dtype=float) for b in blocks]
    status = np.zeros(blocks[0].shape[1], dtype=int)
    cols = np.arange(status.size)
    current = list(blocks)
    for _ in range(max_iters):
        if not cols.size:
            break
        alive, may_stop, moved = None, True, []  # alive is None until a norm is zero
        for k, x in enumerate(current):
            y = update(k, current, cols)
            nrm = _column_norms(y, p)
            if alive is None and np.count_nonzero(nrm) == nrm.size:
                y = y / nrm
            else:
                alive = nrm != 0.0 if alive is None else alive & (nrm != 0.0)
                y = np.where(alive, y / np.where(alive, nrm, 1.0), x)
            d, s = y - x, y + x
            moved.append(np.minimum(np.add.reduce(d * d, axis=0), np.add.reduce(s * s, axis=0)))
            # none stops once a block moved every column by more than tol; sqrt is
            # monotone, so the sqrt of the smallest move decides it to the bit
            may_stop = may_stop and not math.sqrt(np.minimum.reduce(moved[-1])) > tol
            current[k] = y
        if alive is None and not may_stop:
            continue
        alive = np.ones(cols.size, dtype=bool) if alive is None else alive
        done = alive & (np.sqrt(np.max(moved, axis=0)) <= tol)
        running = alive & ~done
        if running.all():
            continue
        for b, c in zip(blocks, current):
            b[:, cols] = c
        status[cols[~alive]] = -1
        status[cols[done]] = 1
        cols = cols[running]
        current = [c[:, running] for c in current]
    for b, c in zip(blocks, current):
        b[:, cols] = c
    return blocks, status


def _unfolding_r(arr: np.ndarray, o: int) -> np.ndarray:
    """The R factor of ``qr(unfolding.T)`` for the mode-o unfolding, at most ``M_o`` rows.

    The unfolding is ``R.T @ Q.T`` with orthonormal rows in ``Q.T``, so
    ``R.T`` has its singular values and left singular vectors, and an SVD of
    the small ``R`` skips the ``|T| / M_o`` columns of the unfolding's ``V``
    (Chan's R-bidiagonalisation).
    """
    return np.linalg.qr(_mode_unfolding(arr, o).T, mode="r")


def _leading_vectors(arr: np.ndarray, modes, ranks) -> list[np.ndarray]:
    """For each mode ``o`` and rank ``r``, ``r`` leading orthonormal left singular vectors of the mode-o unfolding.

    They come from the full SVD of the small ``_unfolding_r(arr, o).T``,
    which has ``M_o`` left singular vectors even where the unfolding has
    fewer than ``M_o`` columns: past the unfolding's rank they complete an
    orthonormal basis.
    """
    return [np.linalg.svd(_unfolding_r(arr, o).T)[0][:, :r] for o, r in zip(modes, ranks)]


def _starts(arr: np.ndarray, modes, count: int, seed: int) -> list[np.ndarray]:
    """One ``(M_o, count)`` block of unit start columns for each mode ``o`` in ``modes``.

    With ``R`` the smallest listed mode size, columns ``0 .. R-1`` are the
    leading left singular vectors of each mode's unfolding, columns
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
    lead = _leading_vectors(arr, modes, [r] * len(dims))
    draws = np.random.default_rng(seed).normal(size=(max(count - 2 * r, 0), sum(dims)))
    blocks = []
    for u, d, w in zip(lead, dims, np.split(draws, np.cumsum(dims)[:-1], axis=1)):
        nrm = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0]
        blocks.append(np.hstack([u, np.eye(d, r), (w / nrm).T])[:, :count])
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
