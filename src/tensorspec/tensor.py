"""Dense real tensors over multi-index sets.

`DenseTensor` is the universal value type of the library: a shape plus an
entry buffer held in colexicographic (column-major) order.  Entries are
addressed with 1-based multi-indices; the translation to 0-based numpy
indexing lives entirely inside this module.

Tensors are immutable after construction (the backing array is marked
read-only), so every operation here is a pure function and concurrent reads
need no coordination.

It also holds the library's one check of each array and option rule:
`_check_order` (order >= 2), `_check_cubical`, `_check_run_opts`
(``tol`` and ``seed`` >= 0, counts >= 1) and `_symmetric_input` (the one
test, relative to max|T|, that picks the symmetric maps).
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Sequence

import numpy as np

from .shape import ContiguousPartition, Shape, _as_shape, _check_mode, _check_sizes, _ints, _layout, check_permutation

__all__ = [
    "DenseTensor",
    "unit_tensor",
    "outer",
    "fiber",
    "frobenius_inner",
    "frobenius_norm",
    "permute_modes",
    "is_symmetric",
    "vectorize",
    "tensorize",
    "matricize",
    "kronecker",
    "zehfuss",
    "moment_tensor",
    "squeeze",
]


class DenseTensor:
    """A real-valued dense tensor: an immutable numpy array with 1-based access.

    Parameters
    ----------
    data : array-like
        Entry values.  A nested array is used as-is; a flat buffer is
        interpreted in colex (column-major) order when ``dims`` is given.
    dims : sequence of int, optional
        Mode sizes.  Required when ``data`` is flat and the intended shape
        is not 1-D.

    Construction rejects NaN/Inf entries so that solver residuals stay
    meaningful downstream, and complex or string entries, as the file
    reader does.
    """

    __slots__ = ("_array", "shape")

    def __init__(self, data, dims: Sequence[int] | None = None):
        arr = _as_array(data)
        if dims is not None:
            dims = _ints(dims)
            if arr.size != math.prod(dims):
                raise ValueError(
                    f"buffer of {arr.size} entries cannot fill shape {list(dims)}"
                )
            arr = arr.reshape(dims, order="F")
        if arr.ndim == 0:
            raise ValueError("order-0 values are plain floats, not DenseTensor")
        arr = arr.copy(order="F")
        arr.flags.writeable = False
        self._array = arr
        self.shape = Shape(arr.shape)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "DenseTensor":
        return cls(np.zeros(tuple(dims)))

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        return cls(arr)

    # -- basic queries -----------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    @property
    def order(self) -> int:
        return self.shape.order

    @property
    def cardinality(self) -> int:
        return self.shape.cardinality

    @property
    def is_cubical(self) -> bool:
        return len(set(self.dims)) == 1

    def to_array(self) -> np.ndarray:
        """Read-only view of the underlying numpy array (0-based indexing)."""
        return self._array

    def to_buffer(self) -> np.ndarray:
        """The colex-ordered entry buffer as a fresh 1-D array."""
        return self._array.flatten(order="F")

    def __getitem__(self, m: Sequence[int]) -> float:
        if np.isscalar(m):
            m = (m,)
        m = self.shape.check_index(m)
        return float(self._array[tuple(x - 1 for x in m)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self._array, other._array)

    def __hash__(self):
        return hash((self.dims, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"DenseTensor(shape={list(self.dims)})"

    # -- linear structure ----------------------------------------------------

    def _binary(self, other, op):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"shape mismatch: {self.dims} vs {other.dims}")
        return DenseTensor(op(self._array, other._array))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return DenseTensor(self._array * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return DenseTensor(self._array / float(scalar))

    def __neg__(self):
        return DenseTensor(-self._array)

    def allclose(self, other: "DenseTensor", tol: float = 1e-12) -> bool:
        return self.dims == other.dims and bool(
            np.max(np.abs(self._array - other._array), initial=0.0) <= tol
        )


def _not_real(v) -> bool:
    """Whether ``v`` is a string or a complex number with no real type."""
    return isinstance(v, (str, bytes)) or isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real)


def _as_array(t) -> np.ndarray:
    """Accept DenseTensor, ndarray, or nested lists; return a float ndarray with finite entries and no empty mode.

    Complex and string entries raise `ValueError`, as the file reader does;
    an int beyond int64, which numpy holds as an object, reads as a float.
    The one finite check of every tensor, read or computed (an overflow).
    """
    if isinstance(t, DenseTensor):
        return t.to_array()
    arr = np.asarray(t)
    if arr.dtype.kind in "cSU" or arr.dtype.kind == "O" and any(map(_not_real, arr.flat)):
        raise ValueError(f"tensor entries must be real numbers, got {arr.dtype} entries")
    arr = np.asarray(arr, dtype=float)
    _check_sizes(arr.shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite (no NaN/Inf, and no computed entry past the float maximum)")
    return arr


def _as_matrix(t) -> np.ndarray:
    arr = _as_array(t)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix (order 2), got order {arr.ndim}")
    return arr


def _as_vector(t) -> np.ndarray:
    arr = _as_array(t)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector (order 1), got order {arr.ndim}")
    return arr


def _check_order(arr: np.ndarray, what: str) -> int:
    """The order of ``arr``; below 2 raises `ValueError`, naming ``what`` the call computes."""
    if arr.ndim < 2:
        raise ValueError(f"{what} need a tensor of order >= 2, got order {arr.ndim}")
    return arr.ndim


def _check_cubical(arr: np.ndarray, what: str) -> int:
    """The common mode size of a cubical array; any other shape raises `ValueError`."""
    if len(set(arr.shape)) != 1:
        raise ValueError(f"{what} are defined for cubical tensors only, got shape {arr.shape}")
    return arr.shape[0]


def _check_run_opts(tol: float, seed: int = 0, **counts: int) -> None:
    """Reject ``tol`` (also NaN), then ``seed``, below 0, then each count below 1; a non-integer seed or count raises `TypeError`."""
    if not tol >= 0:  # also catches NaN
        raise ValueError("tol must be >= 0")
    if operator.index(seed) < 0:
        raise ValueError("seed must be >= 0")
    for name, n in counts.items():
        if operator.index(n) < 1:
            raise ValueError(f"{name} must be >= 1")


def unit_tensor(shape: Shape | Sequence[int], m: Sequence[int]) -> DenseTensor:
    """The indicator tensor of multi-index ``m``: entry 1 at ``m``, 0 elsewhere.

    Equals the outer product of the corresponding unit vectors,
    ``e_{m_1} o ... o e_{m_O}``.
    """
    shape = _as_shape(shape)
    m = shape.check_index(m)
    arr = np.zeros(shape.dims)
    arr[tuple(x - 1 for x in m)] = 1.0
    return DenseTensor(arr)


def outer(*factors) -> DenseTensor:
    """Tensor (outer) product of one or more tensors.

    The result's shape is the concatenation of the factor shapes and its
    entry at a concatenated multi-index is the product of factor entries.
    Multilinear in every factor and associative; not commutative.
    """
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if len(factors) == 0:
        raise ValueError("outer product needs at least one factor")
    arrays = [_as_array(f) for f in factors]
    result = arrays[0]
    for arr in arrays[1:]:
        result = np.tensordot(result, arr, axes=0)
    return DenseTensor(result)


def fiber(t: DenseTensor, mode: int, fixed: Sequence[int]) -> DenseTensor:
    """The mode-``mode`` fiber of ``t`` at the multi-index ``fixed``.

    ``fixed`` gives 1-based indices for all modes except ``mode``, in
    increasing mode order; the result is the length-``M_mode`` vector obtained
    by sweeping the free index.
    """
    arr = _as_array(t)
    mode = _check_mode(mode, arr.ndim)
    m = list(fixed)
    m.insert(mode - 1, 1)  # checked as one multi-index of ``t``, with index 1 in the free mode
    key = [x - 1 for x in Shape(arr.shape).check_index(m)]
    key[mode - 1] = slice(None)
    return DenseTensor(arr[tuple(key)])


def frobenius_inner(a: DenseTensor, b: DenseTensor) -> float:
    """Entrywise dot product of two same-shaped tensors."""
    aa, bb = _as_array(a), _as_array(b)
    if aa.shape != bb.shape:
        raise ValueError(f"shape mismatch: {aa.shape} vs {bb.shape}")
    return float(np.sum(aa * bb))


def _scale_exponent(arr: np.ndarray) -> int:
    """The ``e`` whose power of two ``2**e`` is nearest ``max|arr|`` (0 for a zero array).

    ``np.ldexp(arr, -e)`` scales by an exact power of two, so a computation on
    the scaled array keeps every bit it has at ordinary scales, while squares
    and products of its largest entries neither underflow nor overflow.
    """
    peak = float(np.max(np.abs(arr), initial=0.0))
    return round(math.log2(peak)) if peak > 0.0 else 0


def frobenius_norm(t: DenseTensor) -> float:
    """Square root of the entrywise dot, taken on ``t`` scaled by `_scale_exponent`.

    The scaling keeps the norm of a tensor with tiny or huge entries (1e-170
    or 1e170) from underflowing to 0 or overflowing to inf.  A norm beyond
    the float maximum, which finite entries can reach (a 2x2x2 tensor of
    1e308 has norm 2.8e308), is returned as ``inf``, without a warning.
    """
    arr = _as_array(t)
    e = _scale_exponent(arr)
    arr = np.ldexp(arr, -e)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(float(np.sum(arr * arr))), e))


def permute_modes(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Rearrange modes: mode ``j`` of the result is mode ``perm[j]`` of ``t``.

    On elementary tensors this reorders the outer-product factors; the order-2
    case with ``perm=(2,1)`` is matrix transposition.
    """
    arr = _as_array(t)
    perm = check_permutation(perm, arr.ndim)
    return DenseTensor(np.transpose(arr, axes=[p - 1 for p in perm]))


def is_symmetric(t: DenseTensor, tol: float = 0.0) -> bool:
    """True iff ``t`` is invariant under every permutation of its modes.

    Only cubical tensors can be symmetric; non-cubical input is an error.
    The check runs over the adjacent-transposition generators of the
    symmetric group: a tensor exactly invariant under all adjacent swaps is
    invariant under every permutation (the generators generate S_O).  With a
    nonzero ``tol``, deviations can accumulate along a product of at most
    O(O^2) generators, so the generator check certifies symmetry up to that
    constant times ``tol``; the test suite cross-checks against full
    enumeration for orders <= 4.
    """
    arr = _as_array(t)
    _check_run_opts(tol)
    _check_cubical(arr, "symmetry tests")
    order = arr.ndim
    for o in range(order - 1):
        axes = list(range(order))
        axes[o], axes[o + 1] = axes[o + 1], axes[o]
        if np.max(np.abs(arr - np.transpose(arr, axes)), initial=0.0) > tol:
            return False
    return True


def _symmetric_input(arr: np.ndarray) -> bool:
    """Whether ``arr`` is cubical and `is_symmetric` within ``1e-12 * max|arr|``, so its scale does not decide."""
    return len(set(arr.shape)) == 1 and is_symmetric(arr, tol=1e-12 * float(np.max(np.abs(arr), initial=0.0)))


def vectorize(t: DenseTensor, ordering: str = "colex") -> np.ndarray:
    """Flatten to a vector; component k is the entry at ``unrank(k, ordering)``."""
    return _as_array(t).flatten(order=_layout(ordering))


def tensorize(v, dims: Sequence[int], ordering: str = "colex") -> DenseTensor:
    """Inverse of `vectorize`: rebuild a tensor of shape ``dims`` from a flat vector."""
    order = _layout(ordering)
    v = np.asarray(v, dtype=float).reshape(-1)
    dims = _ints(dims)
    if v.size != math.prod(dims):
        raise ValueError(f"vector of length {v.size} cannot fill shape {list(dims)}")
    return DenseTensor(v.reshape(dims, order=order))


def matricize(t: DenseTensor, row_modes: Sequence[int], ordering: str = "colex") -> DenseTensor:
    """Unfold to a matrix: rows ranked over ``row_modes``, columns over the rest.

    ``row_modes`` is a nonempty proper subset of the modes (1-based, listed in
    increasing order within each side).  Both sides are ranked with the given
    ordering (colex by default, matching the storage layout).
    """
    arr = _as_array(t)
    order = arr.ndim
    row_modes = _ints(row_modes)
    if len(set(row_modes)) != len(row_modes) or any(not 1 <= o <= order for o in row_modes):
        raise ValueError(f"row modes {row_modes} invalid for order {order}")
    if len(row_modes) == 0 or len(row_modes) == order:
        raise ValueError("row modes must be a nonempty proper subset of the modes")
    flat = _layout(ordering)
    row_modes = tuple(sorted(row_modes))
    col_modes = tuple(o for o in range(1, order + 1) if o not in row_modes)
    moved = np.transpose(arr, axes=[o - 1 for o in row_modes + col_modes])
    nrows = math.prod(arr.shape[o - 1] for o in row_modes)
    # with row axes leading, one reshape ranks rows and columns consistently
    return DenseTensor(moved.reshape(nrows, -1, order=flat))


def kronecker(a, b) -> DenseTensor:
    """Kronecker product of two matrices (standard block structure)."""
    return DenseTensor(np.kron(_as_matrix(a), _as_matrix(b)))


def zehfuss(
    a: DenseTensor,
    pa: ContiguousPartition,
    b: DenseTensor,
    pb: ContiguousPartition,
) -> DenseTensor:
    """Block-interleaved tensor product of ``a`` and ``b``.

    The mode sets of ``a`` and ``b`` are partitioned into equally many
    contiguous blocks; the result is ``outer(a, b)`` followed by the mode
    permutation that interleaves the blocks as (a-block 1, b-block 1,
    a-block 2, b-block 2, ...).  Its matricizations recover Kronecker
    products of matricizations.
    """
    arr_a, arr_b = _as_array(a), _as_array(b)
    if pa.ground_size != arr_a.ndim:
        raise ValueError(f"partition {pa} does not cover the {arr_a.ndim} modes of a")
    if pb.ground_size != arr_b.ndim:
        raise ValueError(f"partition {pb} does not cover the {arr_b.ndim} modes of b")
    if pa.block_count != pb.block_count:
        raise ValueError(
            f"partitions must have equal block counts: {pa.block_count} vs {pb.block_count}"
        )
    prod = outer(arr_a, arr_b)
    da = arr_a.ndim
    perm: list[int] = []
    for blk_a, blk_b in zip(pa.blocks(), pb.blocks()):
        perm.extend(blk_a)
        perm.extend(da + o for o in blk_b)
    return permute_modes(prod, perm)


def moment_tensor(samples, order: int, central: bool = False) -> DenseTensor:
    """Empirical order-``order`` (central) moment tensor of vector samples.

    The mean over samples of ``x^{outer order}`` (with ``x`` replaced by
    ``x - mean`` when ``central``); always a symmetric cubical tensor.
    """
    mat = np.asarray(samples, dtype=float)
    if mat.size == 0 or mat.ndim != 2:
        raise ValueError("samples must be a nonempty list of equal-length vectors")
    if order < 1:
        raise ValueError("moment order must be >= 1")
    if central:
        mat = mat - mat.mean(axis=0)
    n, m = mat.shape
    acc = np.zeros((m,) * order)
    for row in mat:
        term = row
        for _ in range(order - 1):
            term = np.tensordot(term, row, axes=0)
        acc += term
    return DenseTensor(acc / n)


def squeeze(t: DenseTensor) -> DenseTensor:
    """Drop all size-1 modes (explicitly; construction never squeezes).

    If every mode has size 1 the result is the order-1 tensor of length 1,
    since order-0 values are out of scope for `DenseTensor`.
    """
    arr = _as_array(t)
    kept = tuple(d for d in arr.shape if d > 1)
    if not kept:
        kept = (1,)
    return DenseTensor(arr.reshape(kept))
