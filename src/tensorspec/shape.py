"""Multi-index sets, their linear orderings, and contiguous mode partitions.

A shape is an ordered list of mode sizes ``(M_1, ..., M_O)``; the multi-index
set it describes is the Cartesian product ``[M_1] x ... x [M_O]`` of 1-based
index sets.  Multi-indices are plain tuples of 1-based integers throughout the
public API; conversion to 0-based offsets happens only inside the storage
layer (`tensorspec.tensor`).

This module reads every integer argument of the library: sizes, indices,
ranks, block lengths and permutations go through `operator.index` (a float
raises `TypeError`), mode sizes through `_check_sizes`, modes through
`_check_mode`, orderings through `_layout`.

Two total orders are supported, both linear extensions of the componentwise
product order:

* colexicographic ("colex"): the last coordinate is most significant, so the
  first coordinate varies fastest (column-major).
* lexicographic ("lex"): the first coordinate is most significant (row-major).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

MultiIndex = tuple  # 1-based index tuple; validated against a Shape

# the numpy memory order of each ordering: "F" has the last coordinate most significant
_ORDERINGS = {"lex": "C", "colex": "F"}


def _ints(values: Sequence[int]) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each read by `operator.index` (a float raises `TypeError`)."""
    return tuple(map(operator.index, values))


def _check_mode(o: int, order: int) -> int:
    """``o`` read by `operator.index` as a 1-based mode of an order-``order`` tensor."""
    o = operator.index(o)
    if not 1 <= o <= order:
        raise IndexError(f"mode {o} out of range [1, {order}]")
    return o


def _layout(ordering: str) -> str:
    """The numpy memory order ("C" or "F") that stores entries in ``ordering``."""
    if ordering not in _ORDERINGS:
        raise ValueError(f"ordering must be one of {tuple(_ORDERINGS)}, got {ordering!r}")
    return _ORDERINGS[ordering]


def _check_sizes(dims: tuple[int, ...]) -> tuple[int, ...]:
    """``dims`` as given; a mode size below 1 raises `ValueError`."""
    if any(d < 1 for d in dims):
        raise ValueError(f"mode sizes must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class Shape:
    """An ordered list of mode sizes defining a multi-index set."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = _ints(dims)
        if len(dims) == 0:
            raise ValueError("a shape needs at least one mode")
        object.__setattr__(self, "dims", _check_sizes(dims))

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def cardinality(self) -> int:
        return math.prod(self.dims)

    def check_index(self, m: Sequence[int]) -> tuple[int, ...]:
        """Validate a 1-based multi-index against this shape, returning it as a tuple."""
        m = _ints(m)
        if len(m) != self.order:
            raise IndexError(f"multi-index {m} has {len(m)} components, shape has order {self.order}")
        for x, d in zip(m, self.dims):
            if not 1 <= x <= d:
                raise IndexError(f"multi-index {m} out of range for shape {list(self.dims)}")
        return m

    def iter_indices(self, ordering: str = "colex") -> Iterator[tuple[int, ...]]:
        """Enumerate all multi-indices in the given linear order."""
        ranges = [range(1, d + 1) for d in self.dims]
        if _layout(ordering) == "C":
            # itertools.product varies the last factor fastest: lex directly
            return itertools.product(*ranges)
        return (rev[::-1] for rev in itertools.product(*reversed(ranges)))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self.iter_indices()

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Shape({list(self.dims)})"


def _as_shape(shape: Shape | Sequence[int]) -> Shape:
    return shape if isinstance(shape, Shape) else Shape(shape)


def colex_rank(shape: Shape | Sequence[int], m: Sequence[int]) -> int:
    """1-based position of ``m`` in the colexicographic enumeration of ``shape``.

    The first coordinate varies fastest: on a ``[2, 2]`` shape the order is
    (1,1), (2,1), (1,2), (2,2).
    """
    return rank(shape, m, "colex")


def lex_rank(shape: Shape | Sequence[int], m: Sequence[int]) -> int:
    """1-based position of ``m`` in the lexicographic enumeration of ``shape``."""
    return rank(shape, m, "lex")


def unrank(shape: Shape | Sequence[int], k: int, ordering: str = "colex") -> tuple[int, ...]:
    """Inverse of `rank`: the multi-index at 1-based position ``k`` (read by `operator.index`)."""
    shape = _as_shape(shape)
    colex = _layout(ordering) == "F"
    k = operator.index(k)
    if not 1 <= k <= shape.cardinality:
        raise IndexError(f"rank {k} out of range [1, {shape.cardinality}]")
    rem = k - 1
    out = []
    # least significant coordinate first
    for d in shape.dims if colex else shape.dims[::-1]:
        out.append(rem % d + 1)
        rem //= d
    return tuple(out) if colex else tuple(out[::-1])


def rank(shape: Shape | Sequence[int], m: Sequence[int], ordering: str = "colex") -> int:
    """1-based position of ``m`` in the enumeration of ``shape`` in ``ordering``."""
    colex = _layout(ordering) == "F"
    shape = _as_shape(shape)
    pairs = list(zip(shape.check_index(m), shape.dims))
    out = 0
    # most significant coordinate first
    for x, d in pairs[::-1] if colex else pairs:
        out = out * d + x - 1
    return out + 1


@dataclass(frozen=True)
class ContiguousPartition:
    """A partition of ``[N]`` into consecutive blocks, stored as block lengths.

    Equivalently a monotone surjection ``[N] -> [B]`` where ``B`` is the number
    of blocks.  ``ContiguousPartition([3, 1, 2])`` is the partition 123|4|56.
    Non-contiguous partitions are unrepresentable by construction.
    """

    block_lengths: tuple[int, ...]

    def __init__(self, block_lengths: Sequence[int]):
        block_lengths = _ints(block_lengths)
        if len(block_lengths) == 0:
            raise ValueError("a partition needs at least one block")
        if any(b < 1 for b in block_lengths):
            raise ValueError(f"block lengths must be >= 1, got {block_lengths}")
        object.__setattr__(self, "block_lengths", block_lengths)

    @classmethod
    def singletons(cls, n: int) -> "ContiguousPartition":
        """The identity partition 1|2|...|n (all singleton blocks)."""
        return cls((1,) * n)

    @classmethod
    def whole(cls, n: int) -> "ContiguousPartition":
        """The one-block partition 12...n."""
        return cls((n,))

    @property
    def ground_size(self) -> int:
        return sum(self.block_lengths)

    @property
    def block_count(self) -> int:
        return len(self.block_lengths)

    def block_of(self, n: int) -> int:
        """The monotone surjection: 1-based block number of element ``n``."""
        n = operator.index(n)
        if not 1 <= n <= self.ground_size:
            raise IndexError(f"element {n} outside ground set [{self.ground_size}]")
        # the block's last element is the first cumulative length at least n
        return bisect.bisect_left(list(itertools.accumulate(self.block_lengths)), n) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        """The blocks as explicit tuples of consecutive elements."""
        out, start = [], 1
        for length in self.block_lengths:
            out.append(tuple(range(start, start + length)))
            start += length
        return out

    def __repr__(self) -> str:
        bars = "|".join("".join(str(n) for n in blk) for blk in self.blocks())
        return f"ContiguousPartition({bars})"


def coarsen(p: ContiguousPartition, q: ContiguousPartition) -> ContiguousPartition:
    """Merge blocks of ``p`` according to ``q``: the composite monotone surjection.

    ``q`` must partition ``[B]`` where ``B`` is the block count of ``p``; block
    ``j`` of the result is the union of the ``p``-blocks that ``q`` puts in its
    ``j``-th block.
    """
    if q.ground_size != p.block_count:
        raise ValueError(
            f"q partitions [{q.ground_size}] but p has {p.block_count} blocks"
        )
    merged, pos = [], 0
    for qlen in q.block_lengths:
        merged.append(sum(p.block_lengths[pos:pos + qlen]))
        pos += qlen
    return ContiguousPartition(merged)


def is_coarser(p2: ContiguousPartition, p1: ContiguousPartition) -> bool:
    """True iff every block of ``p1`` lies inside a single block of ``p2``."""
    if p2.ground_size != p1.ground_size:
        raise ValueError(
            f"ground sets differ: [{p2.ground_size}] vs [{p1.ground_size}]"
        )
    # Contiguous partitions: p2 is coarser iff each p2 block boundary is also
    # a p1 block boundary, i.e. p1's cut points contain p2's cut points.
    cuts1 = set(itertools.accumulate(p1.block_lengths))
    cuts2 = set(itertools.accumulate(p2.block_lengths))
    return cuts2 <= cuts1


def refinement_quotient(p2: ContiguousPartition, p1: ContiguousPartition) -> ContiguousPartition:
    """The unique ``q`` with ``coarsen(p1, q) == p2``, for ``p2`` coarser than ``p1``."""
    if not is_coarser(p2, p1):
        raise ValueError(f"{p2} is not coarser than {p1}")
    q, pos = [], 0
    for target in p2.block_lengths:
        count, acc = 0, 0
        while acc < target:
            acc += p1.block_lengths[pos]
            pos += 1
            count += 1
        q.append(count)
    return ContiguousPartition(q)


def check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate that ``perm`` is a permutation of ``[n]`` (1-based)."""
    perm = _ints(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of [{n}]")
    return perm


def compose_permutations(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The permutation ``r`` with ``r[j] = p[q[j]]`` (both 1-based, equal length).

    Chosen so that permuting tensor modes first by ``p`` and then by ``q``
    equals a single permutation by ``r``.
    """
    n = len(p)
    p = check_permutation(p, n)
    q = check_permutation(q, n)
    return tuple(p[qj - 1] for qj in q)


def invert_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    perm = check_permutation(perm, len(perm))
    inv = [0] * len(perm)
    for i, p in enumerate(perm, start=1):
        inv[p - 1] = i
    return tuple(inv)
