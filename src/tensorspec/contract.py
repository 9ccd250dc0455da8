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
unfolding, the contraction evaluated at many vectors at once (the one kernel
for ``F_o``, which `contract_all_but` also evaluates, with a single column),
and one multi-start power iteration that runs every start as a column of one
matrix.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

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
    order = arr.ndim
    if mode_a == mode_b:
        raise ValueError("trace needs two distinct modes")
    for o in (mode_a, mode_b):
        if not 1 <= o <= order:
            raise IndexError(f"mode {o} out of range [1, {order}]")
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
    if not 1 <= mode_a <= aa.ndim:
        raise IndexError(f"mode {mode_a} out of range [1, {aa.ndim}] for first tensor")
    if not 1 <= mode_b <= bb.ndim:
        raise IndexError(f"mode {mode_b} out of range [1, {bb.ndim}] for second tensor")
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
    if not 1 <= o <= arr.ndim:
        raise IndexError(f"mode {o} out of range [1, {arr.ndim}]")
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
    `_contract_all_but_batch` with one column per vector.
    """
    arr = _as_array(t)
    xs = [_as_vector(x) for x in xs]
    order = arr.ndim
    if not 1 <= o <= order:
        raise IndexError(f"mode {o} out of range [1, {order}]")
    if len(xs) != order - 1:
        raise ValueError(f"need {order - 1} vectors, got {len(xs)}")
    modes = [m for m in range(1, order + 1) if m != o]
    for m, x in zip(modes, xs):
        if x.shape[0] != arr.shape[m - 1]:
            raise ValueError(
                f"vector of length {x.shape[0]} does not match mode-{m} size {arr.shape[m - 1]}"
            )
    return DenseTensor(_contract_all_but_batch(arr, o, [x[:, None] for x in xs])[:, 0])


# -- kernels shared by the solvers ----------------------------------------------


def _mode_unfolding(arr: np.ndarray, o: int) -> np.ndarray:
    """Mode-o matricization on raw arrays: rows = mode o, columns colex over the rest."""
    return np.moveaxis(arr, o - 1, 0).reshape(arr.shape[o - 1], -1, order="F")


def _contract_all_but_batch(arr: np.ndarray, keep, xs) -> np.ndarray:
    """Contract column ``s`` of ``xs`` onto every mode outside ``keep``, for every ``s``.

    ``keep`` is one 1-based mode or a tuple of distinct modes; they lead the
    result in the order given.  ``xs`` is either one ``(M, S)`` matrix whose
    columns go on every contracted mode (eigenvectors) or a sequence of one
    ``(M_m, S)`` matrix per contracted mode, in increasing mode order.  The
    result has shape ``(M_k for k in keep) + (S,)``; with nothing left to
    contract the last axis has length 1 and broadcasts.

    One matmul contracts the last mode for all columns at once, then one
    batched reduction per remaining mode; a single many-operand einsum is
    far slower at these sizes.
    """
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


def _column_norms(y: np.ndarray, p: int = 2) -> np.ndarray:
    if p == 2:
        return np.sqrt(np.add.reduce(y * y, axis=0))
    return np.add.reduce(np.abs(y) ** p, axis=0) ** (1.0 / p)


def _check_run_opts(tol: float, **counts: int) -> None:
    """Reject a ``tol`` below 0 or NaN, then each count below 1, in the order given.

    A count that is not an integer raises `TypeError` (`operator.index`).
    """
    if not tol >= 0:  # also catches NaN
        raise ValueError("tol must be >= 0")
    for name, n in counts.items():
        if operator.index(n) < 1:
            raise ValueError(f"{name} must be >= 1")


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
    some column stopped, and once at the end.  Returns the final blocks and
    the per-column status.
    """
    blocks = [np.array(b, dtype=float) for b in blocks]
    status = np.zeros(blocks[0].shape[1], dtype=int)
    cols = np.arange(status.size)
    current = list(blocks)
    for _ in range(max_iters):
        if not cols.size:
            break
        alive = np.ones(cols.size, dtype=bool)
        moved = np.zeros(cols.size)
        for k, x in enumerate(current):
            y = update(k, current, cols)
            nrm = _column_norms(y, p)
            alive &= nrm != 0.0
            if alive.all():
                y = y / nrm
            else:
                y = np.where(alive, y / np.where(alive, nrm, 1.0), x)
            d, s = y - x, y + x
            moved = np.maximum(moved, np.minimum(np.add.reduce(d * d, axis=0), np.add.reduce(s * s, axis=0)))
            current[k] = y
        # sqrt is monotone, so this is the largest over the blocks of the
        # smaller 2-norm of y -/+ x, to the bit
        done = alive & (np.sqrt(moved) <= tol)
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
