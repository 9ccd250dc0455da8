"""Multi-index ordering and partition tests.

Derived expectations are frozen from the brute-force enumeration oracle
below: sort all multi-indices of a shape with an explicit comparison key and
read positions off the sorted list.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorspec.shape import (
    ContiguousPartition,
    Shape,
    coarsen,
    colex_rank,
    compose_permutations,
    invert_permutation,
    is_coarser,
    lex_rank,
    rank,
    refinement_quotient,
    unrank,
)


def enumerate_oracle(dims, ordering):
    """Independent oracle: enumerate all multi-indices, sort by explicit key."""
    everything = list(itertools.product(*[range(1, d + 1) for d in dims]))
    if ordering == "lex":
        return sorted(everything)
    return sorted(everything, key=lambda m: m[::-1])


small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda d: 1 <= len(d) <= 4
)


class TestRanks:
    def test_colex_golden(self):
        # [2,2] colex order is (1,1),(2,1),(1,2),(2,2)
        assert colex_rank(Shape([2, 2]), (1, 1)) == 1
        assert colex_rank(Shape([2, 2]), (2, 1)) == 2
        # frozen from enumerate_oracle([3,2], "colex"): position of (2,2) is 5
        assert enumerate_oracle([3, 2], "colex").index((2, 2)) + 1 == 5
        assert colex_rank(Shape([3, 2]), (2, 2)) == 5

    def test_lex_golden(self):
        assert lex_rank(Shape([2, 2]), (1, 2)) == 2
        assert lex_rank(Shape([2, 2]), (2, 1)) == 3
        # frozen from enumerate_oracle([3,2], "lex"): position of (2,2) is 4
        assert enumerate_oracle([3, 2], "lex").index((2, 2)) + 1 == 4
        assert lex_rank(Shape([3, 2]), (2, 2)) == 4

    def test_unrank_golden(self):
        assert unrank(Shape([2, 2]), 4, "colex") == (2, 2)
        assert unrank(Shape([2, 2]), 2, "colex") == (2, 1)
        assert unrank(Shape([3, 2]), 5, "colex") == (2, 2)

    @pytest.mark.parametrize("ordering", ["lex", "colex"])
    @pytest.mark.parametrize("dims", [[2, 2], [3, 2], [2, 3, 2], [1, 4], [5], [2, 1, 3, 2]])
    def test_matches_enumeration_oracle(self, dims, ordering):
        oracle = enumerate_oracle(dims, ordering)
        shape = Shape(dims)
        for pos, m in enumerate(oracle, start=1):
            assert rank(shape, m, ordering) == pos
            assert unrank(shape, pos, ordering) == m
        assert list(shape.iter_indices(ordering)) == oracle

    @settings(max_examples=200)
    @given(dims=small_shapes, data=st.data())
    def test_rank_unrank_roundtrip(self, dims, data):
        shape = Shape(dims)
        ordering = data.draw(st.sampled_from(["lex", "colex"]))
        k = data.draw(st.integers(1, shape.cardinality))
        m = unrank(shape, k, ordering)
        assert rank(shape, m, ordering) == k

    @settings(max_examples=100)
    @given(dims=small_shapes, data=st.data())
    def test_linear_extension_of_product_order(self, dims, data):
        # componentwise m <= n implies rank(m) <= rank(n), both orderings
        shape = Shape(dims)
        ordering = data.draw(st.sampled_from(["lex", "colex"]))
        m = data.draw(st.tuples(*[st.integers(1, d) for d in dims]))
        n = data.draw(st.tuples(*[st.integers(1, d) for d in dims]))
        if all(a <= b for a, b in zip(m, n)):
            assert rank(shape, m, ordering) <= rank(shape, n, ordering)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            colex_rank(Shape([2, 2]), (3, 1))
        with pytest.raises(IndexError):
            lex_rank(Shape([2, 2]), (0, 1))
        with pytest.raises(IndexError):
            colex_rank(Shape([2, 2]), (1, 1, 1))
        with pytest.raises(IndexError):
            unrank(Shape([2, 2]), 5, "colex")
        with pytest.raises(IndexError):
            unrank(Shape([2, 2]), 0, "lex")
        with pytest.raises(ValueError):
            unrank(Shape([2, 2]), 1, "zigzag")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Shape([])
        with pytest.raises(ValueError):
            Shape([2, 0])
        assert Shape([1]).cardinality == 1
        assert Shape([3, 2]).order == 2


def partitions_of(n):
    """All contiguous partitions of [n] (compositions of n)."""
    out = []
    for cuts in itertools.product([0, 1], repeat=n - 1):
        lengths, run = [], 1
        for c in cuts:
            if c:
                lengths.append(run)
                run = 1
            else:
                run += 1
        lengths.append(run)
        out.append(ContiguousPartition(lengths))
    return out


class TestPartitions:
    def test_coarsen_golden(self):
        # 123|4|56 merged by 12|3 gives 1234|56
        p = ContiguousPartition([3, 1, 2])
        q = ContiguousPartition([2, 1])
        assert coarsen(p, q) == ContiguousPartition([4, 2])

    def test_coarsen_identity_and_total(self):
        p = ContiguousPartition([3, 1, 2])
        assert coarsen(p, ContiguousPartition.singletons(3)) == p
        assert coarsen(ContiguousPartition([1, 1, 1]), ContiguousPartition.whole(3)) == ContiguousPartition([3])

    def test_coarsen_mismatch(self):
        with pytest.raises(ValueError):
            coarsen(ContiguousPartition([2, 2]), ContiguousPartition([3]))

    def test_is_coarser_golden(self):
        assert is_coarser(ContiguousPartition([4, 2]), ContiguousPartition([3, 1, 2]))
        assert not is_coarser(ContiguousPartition([3, 1, 2]), ContiguousPartition([4, 2]))
        p = ContiguousPartition([2, 2])
        assert is_coarser(p, p)
        with pytest.raises(ValueError):
            is_coarser(ContiguousPartition([2, 2]), ContiguousPartition([2, 2, 2]))

    def test_is_coarser_matches_functional_definition(self):
        # oracle: quantify the implication over all element pairs
        for p1 in partitions_of(5):
            for p2 in partitions_of(5):
                expected = all(
                    p2.block_of(a) == p2.block_of(b)
                    for a in range(1, 6)
                    for b in range(1, 6)
                    if p1.block_of(a) == p1.block_of(b)
                )
                assert is_coarser(p2, p1) == expected

    def test_coarsen_associative_and_coarser(self):
        for p in partitions_of(5):
            for q in partitions_of(p.block_count):
                pq = coarsen(p, q)
                assert is_coarser(pq, p)
                for r in partitions_of(q.block_count):
                    assert coarsen(pq, r) == coarsen(p, coarsen(q, r))

    def test_coarsen_matches_function_composition(self):
        p = ContiguousPartition([2, 1, 3])
        q = ContiguousPartition([1, 2])
        pq = coarsen(p, q)
        for n in range(1, 7):
            assert pq.block_of(n) == q.block_of(p.block_of(n))

    def test_refinement_quotient(self):
        p1 = ContiguousPartition([3, 1, 2])
        p2 = ContiguousPartition([4, 2])
        q = refinement_quotient(p2, p1)
        assert coarsen(p1, q) == p2
        with pytest.raises(ValueError):
            refinement_quotient(p1, p2)

    def test_block_of_matches_blocks(self):
        for p in partitions_of(5) + [ContiguousPartition([1]), ContiguousPartition([7, 1, 1, 4])]:
            for b, blk in enumerate(p.blocks(), start=1):
                for n in blk:
                    assert p.block_of(n) == b
            for n in (0, p.ground_size + 1):
                with pytest.raises(IndexError, match=rf"^element {n} outside ground set \[{p.ground_size}\]$"):
                    p.block_of(n)

    def test_blocks_and_repr(self):
        p = ContiguousPartition([3, 1, 2])
        assert p.blocks() == [(1, 2, 3), (4,), (5, 6)]
        assert "123|4|56" in repr(p)
        with pytest.raises(ValueError):
            ContiguousPartition([])
        with pytest.raises(ValueError):
            ContiguousPartition([2, 0])


class TestPermutations:
    def test_compose_and_invert(self):
        p = (2, 3, 1)
        q = (3, 1, 2)
        r = compose_permutations(p, q)
        assert r == tuple(p[qj - 1] for qj in q)
        assert compose_permutations(p, invert_permutation(p)) == (1, 2, 3)
        assert compose_permutations(invert_permutation(p), p) == (1, 2, 3)
        with pytest.raises(ValueError):
            invert_permutation((1, 1, 2))
