"""Dense tensor value type and tensor-product operations."""

import itertools
import math
import warnings

import numpy as np
import pytest

from tensorspec.shape import ContiguousPartition, Shape, colex_rank, unrank
from tensorspec.tensor import (
    DenseTensor,
    fiber,
    frobenius_inner,
    frobenius_norm,
    is_symmetric,
    kronecker,
    matricize,
    moment_tensor,
    outer,
    permute_modes,
    squeeze,
    tensorize,
    unit_tensor,
    vectorize,
    zehfuss,
)


def golden_222():
    """The 2x2x2 tensor with frontal slice 1 all ones and slice 2 all twos."""
    arr = np.empty((2, 2, 2))
    arr[:, :, 0] = 1.0
    arr[:, :, 1] = 2.0
    return DenseTensor(arr)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestDenseTensor:
    def test_colex_buffer_layout(self):
        t = DenseTensor([1.0, 3.0, 2.0, 4.0], dims=[2, 2])
        # buffer in colex order fills (1,1),(2,1),(1,2),(2,2)
        assert t[(1, 1)] == 1.0
        assert t[(2, 1)] == 3.0
        assert t[(1, 2)] == 2.0
        assert t[(2, 2)] == 4.0
        assert np.array_equal(t.to_array(), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(t.to_buffer(), [1.0, 3.0, 2.0, 4.0])

    def test_rejects_nonfinite_and_bad_buffer(self):
        with pytest.raises(ValueError):
            DenseTensor([1.0, np.nan])
        with pytest.raises(ValueError):
            DenseTensor([1.0, np.inf])
        with pytest.raises(ValueError):
            DenseTensor([1.0, 2.0, 3.0], dims=[2, 2])
        with pytest.raises(ValueError):
            DenseTensor(5.0)

    def test_rejects_complex_and_string_entries(self):
        # a complex array used to keep its real part with only a ComplexWarning,
        # and strings were parsed, which the file reader rejects
        for bad in (
            np.array([[1 + 5j, 2], [3, 4]]),
            [1.0, 2j],
            [np.complex64(1), 2.0],
            ["1.5", "2"],
            np.array([b"1", b"2"]),
            np.array([1.0, "2"], dtype=object),
            np.array([1.0, 2j], dtype=object),
        ):
            with pytest.raises(ValueError, match="tensor entries must be real numbers"):
                DenseTensor(bad)
        from tensorspec.spectra import find_eigenpairs

        with pytest.raises(ValueError, match="tensor entries must be real numbers"):
            find_eigenpairs(np.full((2, 2, 2), 1 + 1j), 1, "z")

    def test_real_entries_of_every_kind_read_as_floats(self):
        # Python ints beyond int64 reach numpy as objects
        assert DenseTensor([2**70, 1]).to_array().tolist() == [2.0**70, 1.0]
        assert DenseTensor([True, False, np.float32(0.5), np.int8(-3)]).to_array().tolist() == [1.0, 0.0, 0.5, -3.0]
        with pytest.raises(ValueError, match="must be finite"):
            DenseTensor([None, 1.0])

    def test_raw_arrays_are_checked_like_dense_tensors(self):
        from tensorspec.decomp import cp_als, hosvd, multilinear_rank, odeco_decompose
        from tensorspec.spectra import find_eigenpairs, find_singular_tuples

        for bad in (np.nan, np.inf):
            arr = rng(5).normal(size=(3, 3, 3))
            arr[1, 2, 0] = bad
            for call in (
                lambda: find_eigenpairs(arr, 1, "z"),
                lambda: find_singular_tuples(arr, 2),
                lambda: cp_als(arr, 2),
                lambda: multilinear_rank(arr),
                lambda: odeco_decompose(arr),
                lambda: hosvd(arr, [2, 2, 2]),
            ):
                with pytest.raises(ValueError, match="must be finite"):
                    call()
        for shape in ((3, 0), (0, 3), (2, 0, 2)):
            arr = np.zeros(shape)
            for call in (
                lambda: find_eigenpairs(arr, 1, "z"),
                lambda: find_singular_tuples(arr, 2),
                lambda: cp_als(arr, 2),
                lambda: multilinear_rank(arr),
                lambda: odeco_decompose(arr),
                lambda: hosvd(arr, [1] * arr.ndim),
            ):
                with pytest.raises(ValueError, match="mode sizes must be >= 1"):
                    call()

    def test_immutability(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            t.to_array()[0, 0] = 99.0

    def test_entry_access_is_one_based(self):
        t = golden_222()
        assert t[(1, 1, 1)] == 1.0
        assert t[(2, 2, 2)] == 2.0
        with pytest.raises(IndexError):
            t[(0, 1, 1)]
        with pytest.raises(IndexError):
            t[(1, 1, 3)]

    def test_arithmetic(self):
        a = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        b = DenseTensor([[1.0, 0.0], [0.0, 1.0]])
        assert (a + b).to_array()[0, 0] == 2.0
        assert (a - a).allclose(DenseTensor.zeros([2, 2]))
        assert (2.0 * a)[(2, 2)] == 8.0
        assert (-a)[(1, 1)] == -1.0
        assert (a / 2.0)[(2, 1)] == 1.5
        with pytest.raises(ValueError):
            a + DenseTensor([1.0, 2.0])


class TestUnitAndOuter:
    def test_unit_tensor_golden(self):
        u = unit_tensor(Shape([2, 2]), (1, 2))
        assert np.array_equal(u.to_array(), [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(unit_tensor([2], (1,)).to_array(), [1.0, 0.0])

    def test_unit_tensor_via_colex_oracle(self):
        # single 1 lands at the colex rank of its multi-index
        u = unit_tensor([2, 2, 2], (2, 1, 2))
        k = colex_rank(Shape([2, 2, 2]), (2, 1, 2))
        assert k == 6
        buf = u.to_buffer()
        assert buf[k - 1] == 1.0 and np.sum(buf) == 1.0

    def test_unit_tensor_errors(self):
        with pytest.raises(IndexError):
            unit_tensor([2, 2], (3, 1))

    def test_outer_noncommutative_golden(self):
        t = np.array([1.0, 0.0])
        u = np.array([0.0, 1.0])
        assert np.array_equal(outer(t, u).to_array(), [[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(outer(u, t).to_array(), [[0.0, 0.0], [1.0, 0.0]])

    def test_outer_degenerate_mode(self):
        v = DenseTensor([1.0, 2.0, 3.0])
        w = outer(v, DenseTensor([1.0]))
        assert w.dims == (3, 1)
        assert np.array_equal(w.to_array()[:, 0], v.to_array())

    def test_outer_empty(self):
        with pytest.raises(ValueError):
            outer()

    def test_outer_multilinear(self):
        r = rng(1)
        u, v, w = r.normal(size=3), r.normal(size=4), r.normal(size=4)
        a, b = 0.7, -1.3
        lhs = outer(u, a * v + b * w).to_array()
        rhs = a * outer(u, v).to_array() + b * outer(u, w).to_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_outer_associative(self):
        r = rng(2)
        a, b, c = r.normal(size=2), r.normal(size=(2, 3)), r.normal(size=2)
        t1 = outer(outer(a, b), c)
        t2 = outer(a, b, c)
        t3 = outer(a, outer(b, c))
        assert t1.allclose(t2, tol=1e-15) and t2.allclose(t3, tol=1e-15)

    def test_unit_reconstruction_identity(self):
        r = rng(3)
        t = DenseTensor(r.normal(size=(2, 3, 2)))
        acc = DenseTensor.zeros([2, 3, 2])
        for m in t.shape:
            acc = acc + t[m] * unit_tensor(t.shape, m)
        assert acc.allclose(t)


class TestFiber:
    def test_matrix_fibers(self):
        m = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(fiber(m, 1, (2,)).to_array(), [2.0, 4.0])
        assert np.array_equal(fiber(m, 2, (1,)).to_array(), [1.0, 2.0])

    def test_golden_222_tube(self):
        t = golden_222()
        assert np.array_equal(fiber(t, 3, (1, 1)).to_array(), [1.0, 2.0])

    def test_fiber_errors(self):
        t = golden_222()
        with pytest.raises(IndexError):
            fiber(t, 4, (1, 1))
        with pytest.raises(IndexError):
            fiber(t, 3, (1, 3))
        with pytest.raises(IndexError):
            fiber(t, 3, (1,))

    def test_standard_fiber_decomposition(self):
        # t reconstructs from unit vectors around each mode-o fiber, every o
        r = rng(4)
        t = DenseTensor(r.normal(size=(2, 3, 2)))
        for o in range(1, 4):
            rest = [d for i, d in enumerate(t.dims) if i != o - 1]
            acc = DenseTensor.zeros(t.dims)
            for ms in itertools.product(*[range(1, d + 1) for d in rest]):
                factors = []
                pos = 0
                for mode in range(1, 4):
                    if mode == o:
                        factors.append(fiber(t, o, ms))
                    else:
                        factors.append(unit_tensor([t.dims[mode - 1]], (ms[pos],)))
                        pos += 1
                acc = acc + outer(*factors)
            assert acc.allclose(t, tol=1e-12)


class TestFrobenius:
    def test_golden(self):
        a = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        eye = DenseTensor([[1.0, 0.0], [0.0, 1.0]])
        assert frobenius_inner(a, eye) == 5.0
        assert frobenius_inner(a, DenseTensor.zeros([2, 2])) == 0.0
        # entrywise oracle: 4 ones squared + 4 twos squared
        t = golden_222()
        assert frobenius_inner(t, t) == pytest.approx(20.0, abs=1e-12)
        assert frobenius_norm(t) == pytest.approx(np.sqrt(20.0), abs=1e-12)

    def test_norm_over_the_whole_float_range(self):
        arr = np.random.default_rng(7).normal(size=(3, 4, 5))
        base = frobenius_norm(arr)
        # in the normal range the scaled sum keeps the bits of the plain one
        for a in (arr, 1e-100 * arr, 1e100 * arr, np.arange(24.0).reshape(2, 3, 4)):
            assert frobenius_norm(a) == np.sqrt(np.sum(a * a))
        for k in (-1000, -700, 700, 1000):
            assert frobenius_norm(np.ldexp(arr, k)) == np.ldexp(base, k)
        # these used to underflow to 0.0 and overflow to inf
        for c in (1e-170, 1e170, 1e-300, 1e300):
            assert frobenius_norm(c * arr) == pytest.approx(c * base, rel=1e-15)
        assert frobenius_norm(np.full(4, 5e-324)) == 1e-323
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_norm_past_the_float_maximum_is_inf(self):
        # finite entries whose norm, 2.8e308, is not a float: inf, and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_norm(np.full((2, 2, 2), 1e308)) == math.inf
            assert frobenius_norm(np.full((2, 2, 2), 6e307)) == pytest.approx(math.sqrt(8.0) * 6e307, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(DenseTensor([1.0]), DenseTensor([1.0, 2.0]))


class TestPermute:
    def test_matrix_transpose(self):
        m = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(permute_modes(m, (2, 1)).to_array(), [[1.0, 3.0], [2.0, 4.0]])
        assert permute_modes(m, (1, 2)) == m

    def test_golden_222_swap12_invariant(self):
        t = golden_222()
        assert permute_modes(t, (2, 1, 3)) == t

    def test_elementary_reorders_factors(self):
        r = rng(5)
        u, v, w = r.normal(size=2), r.normal(size=3), r.normal(size=4)
        lhs = permute_modes(outer(u, v, w), (3, 1, 2))
        rhs = outer(w, u, v)
        assert lhs.allclose(rhs, tol=1e-14)

    def test_group_action_and_norm_invariance(self):
        from tensorspec.shape import compose_permutations

        r = rng(6)
        t = DenseTensor(r.normal(size=(2, 3, 4)))
        p, q = (2, 3, 1), (3, 1, 2)
        assert permute_modes(permute_modes(t, p), q) == permute_modes(t, compose_permutations(p, q))
        assert frobenius_norm(permute_modes(t, p)) == pytest.approx(frobenius_norm(t), abs=1e-12)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            permute_modes(golden_222(), (1, 1, 2))


class TestSymmetry:
    def test_symmetric_matrix(self):
        assert is_symmetric(DenseTensor([[1.0, 2.0], [2.0, 5.0]]))
        assert not is_symmetric(DenseTensor([[1.0, 2.0], [3.0, 5.0]]))

    def test_golden_222_not_symmetric(self):
        assert not is_symmetric(golden_222())

    def test_vvv_symmetric(self):
        v = rng(7).normal(size=3)
        assert is_symmetric(outer(v, v, v), tol=1e-12)

    def test_non_cubical_rejected(self):
        with pytest.raises(ValueError):
            is_symmetric(DenseTensor(np.ones((2, 3))))

    def test_bad_tol_rejected(self):
        t = DenseTensor(rng(9).normal(size=(3, 3, 3)))
        for tol in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                is_symmetric(t, tol=tol)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_generator_check_matches_full_enumeration(self, order):
        r = rng(8 + order)
        for _ in range(5):
            arr = r.normal(size=(2,) * order)
            # symmetrize half the cases
            if r.uniform() < 0.5:
                sym = np.zeros_like(arr)
                for p in itertools.permutations(range(order)):
                    sym += np.transpose(arr, p)
                arr = sym
            t = DenseTensor(arr)
            full = all(
                np.allclose(arr, np.transpose(arr, p), atol=1e-12)
                for p in itertools.permutations(range(order))
            )
            assert is_symmetric(t, tol=1e-12) == full


class TestVectorizeMatricize:
    def test_vectorize_golden(self):
        m = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vectorize(m, "colex"), [1.0, 3.0, 2.0, 4.0])
        assert np.array_equal(vectorize(m, "lex"), [1.0, 2.0, 3.0, 4.0])
        v = DenseTensor([5.0, 6.0])
        assert np.array_equal(vectorize(v), [5.0, 6.0])

    def test_vectorize_component_matches_unrank(self):
        t = DenseTensor(rng(9).normal(size=(2, 3, 2)))
        for ordering in ("lex", "colex"):
            vec = vectorize(t, ordering)
            for k in range(1, t.cardinality + 1):
                assert vec[k - 1] == t[unrank(t.shape, k, ordering)]

    def test_tensorize_roundtrip(self):
        t = DenseTensor(rng(10).normal(size=(3, 2, 2)))
        for ordering in ("lex", "colex"):
            assert tensorize(vectorize(t, ordering), t.dims, ordering) == t
        with pytest.raises(ValueError):
            tensorize([1.0, 2.0], [3], "colex")
        with pytest.raises(ValueError):
            vectorize(t, "diagonal")

    def test_matricize_golden_222(self):
        # mode-3 unfolding oracle by direct enumeration: row k lists T[.,.,k]
        t = golden_222()
        m = matricize(t, (3,))
        assert np.array_equal(m.to_array(), [[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])

    def test_matricize_matrix_cases(self):
        m = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert matricize(m, (1,)) == m
        assert matricize(m, (2,)) == permute_modes(m, (2, 1))

    def test_matricize_entry_preservation_oracle(self):
        t = DenseTensor(rng(11).normal(size=(2, 3, 2)))
        m = matricize(t, (1, 3))
        rows = Shape([2, 2])
        cols = Shape([3])
        for m1 in range(1, 3):
            for m2 in range(1, 4):
                for m3 in range(1, 3):
                    r = colex_rank(rows, (m1, m3))
                    c = colex_rank(cols, (m2,))
                    assert m[(r, c)] == t[(m1, m2, m3)]

    def test_matricize_norm_preserved(self):
        t = DenseTensor(rng(12).normal(size=(2, 3, 4)))
        assert frobenius_norm(matricize(t, (2,))) == pytest.approx(frobenius_norm(t), abs=1e-12)

    def test_matricize_errors(self):
        t = golden_222()
        with pytest.raises(ValueError):
            matricize(t, ())
        with pytest.raises(ValueError):
            matricize(t, (1, 2, 3))
        with pytest.raises(ValueError):
            matricize(t, (0,))


class TestKroneckerZehfuss:
    def test_kronecker_identity_blocks(self):
        a = DenseTensor(rng(13).normal(size=(2, 3)))
        k = kronecker(np.eye(2), a)
        expected = np.zeros((4, 6))
        expected[:2, :3] = a.to_array()
        expected[2:, 3:] = a.to_array()
        assert np.array_equal(k.to_array(), expected)

    def test_kronecker_scalar_identity(self):
        a = DenseTensor(rng(14).normal(size=(2, 2)))
        assert kronecker(a, [[1.0]]) == a

    def test_kronecker_permutation_golden(self):
        # direct block expansion oracle
        k = kronecker([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(k.to_array(), expected)
        perm = k.to_array()
        assert np.array_equal(perm @ perm.T, np.eye(4))

    def test_zehfuss_single_block_is_outer(self):
        a = DenseTensor(rng(15).normal(size=(2, 3)))
        b = DenseTensor(rng(16).normal(size=(2,)))
        z = zehfuss(a, ContiguousPartition([2]), b, ContiguousPartition([1]))
        assert z == outer(a, b)

    def test_zehfuss_unit_tensors_interleave(self):
        # index bookkeeping oracle: unit in, unit out at the interleaved index
        a = unit_tensor([2, 3], (2, 1))
        b = unit_tensor([4, 5], (3, 5))
        z = zehfuss(a, ContiguousPartition([1, 1]), b, ContiguousPartition([1, 1]))
        assert z.dims == (2, 4, 3, 5)
        assert z[(2, 3, 1, 5)] == 1.0
        assert np.sum(z.to_buffer()) == 1.0

    def test_zehfuss_matricization_is_kronecker(self):
        r = rng(17)
        a = DenseTensor(r.normal(size=(2, 3)))
        b = DenseTensor(r.normal(size=(4, 2)))
        p2 = ContiguousPartition([1, 1])
        z = zehfuss(a, p2, b, p2)
        lex = matricize(z, (1, 2), ordering="lex").to_array()
        assert np.max(np.abs(lex - np.kron(a.to_array(), b.to_array()))) <= 1e-14
        colex = matricize(z, (1, 2), ordering="colex").to_array()
        assert np.max(np.abs(colex - np.kron(b.to_array(), a.to_array()))) <= 1e-14

    def test_zehfuss_block_count_mismatch(self):
        a = DenseTensor(rng(18).normal(size=(2, 3)))
        with pytest.raises(ValueError):
            zehfuss(a, ContiguousPartition([1, 1]), a, ContiguousPartition([2]))
        with pytest.raises(ValueError):
            zehfuss(a, ContiguousPartition([3]), a, ContiguousPartition([2]))


class TestMoments:
    def test_raw_second_moment(self):
        m = moment_tensor([[1.0, 0.0], [0.0, 1.0]], order=2)
        assert np.array_equal(m.to_array(), [[0.5, 0.0], [0.0, 0.5]])

    def test_central_first_moment_vanishes(self):
        m = moment_tensor(rng(19).normal(size=(7, 3)), order=1, central=True)
        assert np.max(np.abs(m.to_array())) <= 1e-14

    def test_single_rank_one_sample(self):
        m = moment_tensor([[1.0, 1.0]], order=3)
        assert m.dims == (2, 2, 2)
        assert np.array_equal(m.to_array(), np.ones((2, 2, 2)))

    def test_moment_is_symmetric(self):
        m = moment_tensor(rng(20).normal(size=(5, 3)), order=3)
        assert is_symmetric(m, tol=1e-12)

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            moment_tensor([], order=2)
        with pytest.raises(ValueError):
            moment_tensor([[1.0], [1.0, 2.0]], order=2)


class TestSqueeze:
    def test_squeeze(self):
        t = DenseTensor(np.arange(6.0).reshape(1, 2, 1, 3))
        s = squeeze(t)
        assert s.dims == (2, 3)
        assert squeeze(DenseTensor([[1.0]])).dims == (1,)
