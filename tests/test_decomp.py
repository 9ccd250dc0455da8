"""CP/Tucker formats, HOSVD, ALS fitting, and odeco recovery."""

import dataclasses
import functools
import importlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from reference import als_sweeps_parent, count_linalg, odeco_deflation

from tensorspec.contract import _lstsq, _mode_unfolding, contract_all_but
from tensorspec.decomp import (
    CpDecomposition,
    _als_sweeps,
    _gevd_factors,
    TuckerDecomposition,
    cp_als,
    cp_eval,
    cp_normalize,
    cp_to_tucker,
    hosvd,
    multilinear_rank,
    odeco_decompose,
    tucker_eval,
)
from tensorspec.tensor import DenseTensor, _scale_exponent, frobenius_norm, outer, unit_tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def e(i, m=2):
    v = np.zeros(m)
    v[i - 1] = 1.0
    return v


# the eight rank-3 tensors whose multilinear ranks are all (2, 2, 2),
# written as lists of (i, j, k) unit-vector triples
EIGHT_TRIPLES = [
    [(1, 1, 1), (1, 2, 2), (2, 1, 2)],
    [(1, 1, 1), (1, 2, 2), (2, 2, 1)],
    [(1, 1, 1), (2, 1, 2), (2, 2, 1)],
    [(1, 1, 2), (1, 2, 1), (2, 1, 1)],
    [(1, 1, 2), (1, 2, 1), (2, 2, 2)],
    [(1, 1, 2), (2, 1, 1), (2, 2, 2)],
    [(1, 2, 1), (2, 1, 1), (2, 2, 2)],
    [(1, 2, 2), (2, 1, 2), (2, 2, 1)],
]


def eight_tensor(n):
    cp = CpDecomposition(
        np.ones(3),
        [
            np.column_stack([e(t[o]) for t in EIGHT_TRIPLES[n]])
            for o in range(3)
        ],
    )
    return cp_eval(cp)


def planted_tucker(shape, ranks, seed):
    """A seeded normal core of shape ``ranks`` pushed through orthonormal factors."""
    g = rng(seed)
    arr = g.normal(size=ranks)
    for o, (m, r) in enumerate(zip(shape, ranks)):
        q = np.linalg.qr(g.normal(size=(m, r)))[0]
        arr = np.moveaxis(np.tensordot(q, arr, axes=(1, o)), 0, o)
    return arr


def unfolding_svd_ranks(arr, tol=1e-8):
    """Singular values of each whole unfolding above ``tol`` times the largest one."""
    out = []
    for o in range(1, arr.ndim + 1):
        s = np.linalg.svd(_mode_unfolding(arr, o), compute_uv=False)
        out.append(int(np.sum(s > tol * s[0])))
    return tuple(out)


def count_tensordot(monkeypatch):
    """The shapes of the first arguments of every later `np.tensordot` call."""
    calls = []

    def wrapped(a, *args, _fn=np.tensordot, **kwargs):
        calls.append(a.shape)
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np, "tensordot", wrapped)
    return calls


# shapes and multilinear ranks of planted Tucker inputs: wide and tall unfoldings
PLANTED = [((10,) * 5, (3, 5, 4, 2, 6)), ((10,) * 4, (5, 3, 4, 2)), ((30,) * 3, (7, 4, 10)), ((8, 3, 9), (5, 3, 6)), ((10, 2, 2), (3, 2, 2))]


def random_cp(r, dims, seed):
    g = rng(seed)
    return CpDecomposition(
        g.uniform(0.5, 2.0, size=r), [g.normal(size=(d, r)) for d in dims]
    )


def planted_odeco(dims, symmetric, seed, noise=0.0, weights=None):
    """A seeded odeco tensor with orthonormal factors, plus ``noise`` times its norm in a seeded direction.

    The weights default to ``1..R`` plus uniform(0.1, 0.9), with random signs;
    symmetric input shares one factor across the modes and gets symmetric noise.
    Returns the tensor, the weights and the factor matrices.
    """
    g = rng(seed)
    r = min(dims)
    if weights is None:
        weights = (np.arange(1, r + 1) + g.uniform(0.1, 0.9, size=r)) * g.choice([-1.0, 1.0], size=r)
    r = len(weights)
    if symmetric:
        factors = [np.linalg.qr(g.normal(size=(dims[0], dims[0])))[0][:, :r]] * len(dims)
    else:
        factors = [np.linalg.qr(g.normal(size=(d, d)))[0][:, :r] for d in dims]
    arr = reference_cp_eval(CpDecomposition(weights, factors))
    direction = g.normal(size=dims)
    if symmetric:
        direction = sum(np.transpose(direction, p) for p in itertools.permutations(range(len(dims))))
    arr = arr + noise * np.linalg.norm(arr) * direction / np.linalg.norm(direction)
    return arr, np.asarray(weights, dtype=float), factors


def random_odeco_symmetric(m, r, seed, order=3):
    g = rng(seed)
    q, _ = np.linalg.qr(g.normal(size=(m, m)))
    vecs = q[:, :r]
    lam = g.uniform(0.5, 2.0, size=r)
    acc = np.zeros((m,) * order)
    for i in range(r):
        acc += lam[i] * outer(*[vecs[:, i]] * order).to_array()
    return DenseTensor(acc), lam, vecs


class TestCpBasics:
    def test_rank_one_unit(self):
        cp = CpDecomposition([2.0], [e(1).reshape(2, 1)] * 3)
        assert cp_eval(cp).allclose(2.0 * unit_tensor([2, 2, 2], (1, 1, 1)))

    def test_normalize_preserves_eval(self):
        cp = random_cp(3, (2, 3, 2), seed=1)
        n = cp_normalize(cp)
        assert n.is_normalized()
        assert not CpDecomposition(cp.weights, [3.0 * f for f in cp.factors]).is_normalized()
        assert cp_eval(n).allclose(cp_eval(cp), tol=1e-12)

    def test_normalize_scaling_moves_to_weight(self):
        cp = CpDecomposition([1.0], [np.array([[3.0], [0.0]]), np.array([[0.0], [1.0]])])
        n = cp_normalize(cp)
        assert n.weights[0] == pytest.approx(3.0)
        assert np.allclose(n.factors[0][:, 0], [1.0, 0.0])

    def test_normalize_zero_column(self):
        cp = CpDecomposition([1.0], [np.zeros((2, 1)), np.ones((2, 1))])
        n = cp_normalize(cp)
        assert n.weights[0] == 0.0
        assert np.allclose(n.factors[0][:, 0], [1.0, 0.0])
        assert cp_eval(n).allclose(cp_eval(cp), tol=0.0)

    def test_first_of_eight(self):
        t = eight_tensor(0)
        want = (
            outer(e(1), e(1), e(1)) + outer(e(1), e(2), e(2)) + outer(e(2), e(1), e(2))
        )
        assert t == want

    def test_validation(self):
        with pytest.raises(ValueError):
            CpDecomposition([1.0, 2.0], [np.ones((2, 1))])
        with pytest.raises(ValueError):
            CpDecomposition([1.0], [])

    def test_non_matrix_factor(self):
        with pytest.raises(ValueError, match=r"^factors must be matrices$"):
            CpDecomposition([1.0], [np.ones((2, 1)), np.ones(2)])


class TestTucker:
    def test_identity_core(self):
        core = DenseTensor(rng(2).normal(size=(2, 3, 2)))
        tk = TuckerDecomposition(core, [np.eye(2), np.eye(3), np.eye(2)])
        assert tucker_eval(tk) == core

    def test_matrix_case_l1_g_l2t(self):
        g = rng(3).normal(size=(2, 3))
        l1 = rng(4).normal(size=(4, 2))
        l2 = rng(5).normal(size=(5, 3))
        tk = TuckerDecomposition(DenseTensor(g), [l1, l2])
        assert np.max(np.abs(tucker_eval(tk).to_array() - l1 @ g @ l2.T)) <= 1e-12

    def test_cp_to_tucker_roundtrip(self):
        cp = random_cp(2, (3, 2, 4), seed=6)
        tk = cp_to_tucker(cp)
        assert tk.core.dims == (2, 2, 2)
        assert tucker_eval(tk).allclose(cp_eval(cp), tol=1e-12)

    def test_cp_to_tucker_rank_one(self):
        cp = random_cp(1, (2, 2), seed=7)
        assert cp_to_tucker(cp).core.dims == (1, 1)

    def test_hyperdiagonal_core_weights(self):
        cp = random_cp(3, (2, 2, 2), seed=8)
        core = cp_to_tucker(cp).core
        for r in range(1, 4):
            assert core[(r, r, r)] == cp.weights[r - 1]
        assert core[(1, 2, 3)] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TuckerDecomposition(DenseTensor(np.ones((2, 2))), [np.eye(2)])
        with pytest.raises(ValueError):
            TuckerDecomposition(DenseTensor(np.ones((2, 2))), [np.eye(2), np.eye(3)])

    def test_ndarray_core_is_converted(self):
        core = rng(9).normal(size=(2, 3))
        tk = TuckerDecomposition(core, [np.eye(2), np.eye(3)])
        assert isinstance(tk.core, DenseTensor)
        assert np.array_equal(tk.core.to_array(), core)

    def test_non_matrix_factor(self):
        with pytest.raises(ValueError, match=r"^factors must be matrices$"):
            TuckerDecomposition(DenseTensor(np.ones((2, 2))), [np.eye(2), np.ones(2)])


class TestHosvd:
    def test_full_rank_exact(self):
        t = DenseTensor(rng(9).normal(size=(3, 3, 3)))
        tk = hosvd(t, [3, 3, 3])
        assert frobenius_norm(tucker_eval(tk) - t) <= 1e-10

    def test_rank_one_elementary(self):
        v1, v2, v3 = rng(10).normal(size=2), rng(11).normal(size=3), rng(12).normal(size=2)
        t = outer(v1, v2, v3)
        tk = hosvd(t, [1, 1, 1])
        assert frobenius_norm(tucker_eval(tk) - t) <= 1e-10

    def test_orthonormal_factors(self):
        t = DenseTensor(rng(13).normal(size=(3, 4, 2)))
        tk = hosvd(t, [2, 3, 2])
        for f in tk.factors:
            gram = f.T @ f
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-10

    def test_eight_tensors_exact_at_multilinear_rank(self):
        for n in range(8):
            t = eight_tensor(n)
            tk = hosvd(t, [2, 2, 2])
            assert tk.core.dims == (2, 2, 2)
            assert frobenius_norm(tucker_eval(tk) - t) <= 1e-10

    def test_tall_mode_gets_the_rank_asked_for(self):
        # mode 1 of 10x2x2 unfolds to 10x4: six factor columns complete the basis
        t = DenseTensor(rng(17).normal(size=(10, 2, 2)))
        tk = hosvd(t, [10, 2, 2])
        assert tk.core.dims == (10, 2, 2)
        assert [f.shape for f in tk.factors] == [(10, 10), (2, 2), (2, 2)]
        for f in tk.factors:
            assert np.max(np.abs(f.T @ f - np.eye(f.shape[1]))) <= 1e-12
        assert frobenius_norm(tucker_eval(tk) - t) <= 1e-12 * frobenius_norm(t)
        assert hosvd(t, [6, 2, 1]).core.dims == (6, 2, 1)

    def test_unfolding_svds_are_square(self, monkeypatch):
        t = DenseTensor(planted_tucker((10,) * 4, (5, 3, 4, 2), 18))
        with monkeypatch.context() as patch:
            calls = count_linalg(patch)
            hosvd(t, [5] * 4)
        assert calls["qr"] == [(1000, 10)] * 4
        assert calls["svd"] == [(10, 10)] * 4
        # multilinear_rank projects each mode to its rank before the next one;
        # the three modes that drop directions take a second SVD for the vectors
        with monkeypatch.context() as patch:
            calls = count_linalg(patch)
            multilinear_rank(t)
        assert calls["qr"] == [(1000, 10), (500, 10), (150, 10), (60, 10)]
        assert calls["svd"] == [(10, 10)] * 7

    def test_scaled_input_keeps_the_unscaled_bits(self):
        # factoring T / 2^e is exact: at ordinary scales the factors and core are
        # those of the unscaled factorization, bit for bit, and scaling T by 2^k
        # scales the core by 2^k and leaves the factors as they are
        from tensorspec.contract import _leading_vectors, multi_mode_product

        g = rng(40)
        inputs = [g.normal(size=(4, 5, 6)), planted_tucker((10,) * 4, (5,) * 4, 41), g.normal(size=(3, 3, 3, 3))]
        for arr in inputs:
            for ranks in (arr.shape, [max(1, d - 2) for d in arr.shape]):
                tk = hosvd(arr, ranks)
                factors = _leading_vectors(arr, range(1, arr.ndim + 1), ranks)
                core = multi_mode_product(DenseTensor(arr), [f.T for f in factors]).to_array()
                assert tk.core.to_array().tobytes() == core.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(tk.factors, factors))
                for k in (-1000, -40, 40, 900):
                    big = hosvd(np.ldexp(arr, k), ranks)
                    assert big.core.to_array().tobytes() == np.ldexp(core, k).tobytes()
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(big.factors, factors))

    def test_near_the_float_maximum(self):
        # the unfolding of 6e307 entries used to overflow, and 1e308 not to converge
        arr = np.full((2, 2, 2), 6e307)
        tk = hosvd(arr, [1, 1, 1])
        assert abs(tk.core[1, 1, 1]) == pytest.approx(math.sqrt(8.0) * 6e307, rel=1e-15)
        assert frobenius_norm(tucker_eval(tk) - DenseTensor(arr)) <= 1e-14 * 6e307
        # the core entry of 1e308 entries, 2.8e308, is not a float
        with pytest.raises(ValueError, match=r"must be finite .*past the float maximum"):
            hosvd(np.full((2, 2, 2), 1e308), [1, 1, 1])

    def test_rank_out_of_range(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            hosvd(t, [3, 1])
        with pytest.raises(ValueError):
            hosvd(t, [0, 1])
        with pytest.raises(ValueError):
            hosvd(t, [1])
        with pytest.raises(TypeError):
            hosvd(DenseTensor(np.ones((3, 3, 3))), [2.7, 3, 3])


class TestMultilinearRank:
    def test_eight_tensors(self):
        for n in range(8):
            assert multilinear_rank(eight_tensor(n)) == (2, 2, 2)

    def test_elementary(self):
        t = outer(rng(14).normal(size=2), rng(15).normal(size=3), rng(16).normal(size=4))
        assert multilinear_rank(t) == (1, 1, 1)

    def test_zero(self):
        assert multilinear_rank(DenseTensor.zeros([2, 3, 2])) == (0, 0, 0)

    def test_lower_bounds_tensor_rank(self):
        # the eight tensors are built from 3 terms; (2,2,2) stays below 3
        for n in range(8):
            assert max(multilinear_rank(eight_tensor(n))) <= 3

    def test_vector(self):
        assert multilinear_rank(DenseTensor([1.0, 2.0])) == (1,)
        assert multilinear_rank(DenseTensor([0.0, 0.0])) == (0,)

    @pytest.mark.parametrize("shape, ranks", PLANTED)
    def test_planted_tucker_against_unfolding_svd(self, shape, ranks):
        # noise near tol * max|T| puts singular values on either side of the cutoff
        arr = planted_tucker(shape, ranks, 19)
        noise = rng(20).normal(size=shape)
        for t in (DenseTensor(arr), arr * 1e150, arr * 1e-150, np.asfortranarray(arr)):
            assert multilinear_rank(t) == ranks
        for level in (0.0, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8):
            t = arr + level * np.max(np.abs(arr)) * noise
            assert multilinear_rank(DenseTensor(t)) == unfolding_svd_ranks(t), level

    @pytest.mark.parametrize("factor, count", [(1 + 1e-2, 4), (1 - 1e-2, 3)])
    def test_value_near_the_cutoff_after_a_projection(self, monkeypatch, factor, count):
        # mode 1 has rank 3 of 6, so it is projected to 3 before mode 2, whose
        # smallest singular value sits 1% above or below 1e-8 times the largest
        # (far above rounding, so it is kept either way)
        g = rng(21)
        sigma = np.array([1.0, 0.5, 0.3, 1e-8 * factor])
        w = np.linalg.qr(g.normal(size=(15, 4)))[0]
        u = np.linalg.qr(g.normal(size=(4, 4)))[0]
        core = np.moveaxis(((u * sigma) @ w.T).reshape((4, 3, 5), order="F"), 0, 1)
        arr = np.tensordot(np.linalg.qr(g.normal(size=(6, 3)))[0], core, axes=(1, 0))
        assert unfolding_svd_ranks(arr) == (3, count, 5)
        calls = count_tensordot(monkeypatch)
        for scaled in (arr, arr * 1e150, arr * 1e-150, np.asfortranarray(arr)):
            calls.clear()
            assert multilinear_rank(scaled) == (3, count, 5)
            assert calls == [(6, 4, 5)]

    def test_tol_zero_drops_nothing(self, monkeypatch):
        arr = planted_tucker((6, 5, 4), (2, 3, 4), 22)
        calls = count_tensordot(monkeypatch)
        assert multilinear_rank(arr) == (2, 3, 4)
        assert len(calls) == 2
        calls.clear()
        assert multilinear_rank(arr, tol=0) == unfolding_svd_ranks(arr, tol=0) == (6, 5, 4)
        assert calls == []

    def test_full_rank_input_is_not_projected(self, monkeypatch):
        calls = count_tensordot(monkeypatch)
        for shape, ranks in (((2, 2, 2), (2, 2, 2)), ((4, 5, 6), (4, 5, 6)), ((3,) * 4, (3,) * 4), ((5, 6), (5, 5))):
            arr = rng(23).normal(size=shape)
            assert multilinear_rank(arr) == unfolding_svd_ranks(arr) == ranks
        assert calls == []

    def test_seeded_corpus_against_unfolding_svd(self, monkeypatch):
        # planted Tucker inputs of orders 2-5 with noise around each tol, scaled
        # and laid out both ways; the noiseless calls with tol > 0, about a
        # quarter, project some mode
        calls = count_tensordot(monkeypatch)
        projected = 0
        for seed in range(200):
            g = rng(1000 + seed)
            order = 2 + seed % 4
            shape = tuple(int(m) for m in g.integers(2, (9, 9, 6, 5)[order - 2], size=order))
            ranks = tuple(int(g.integers(1, m + 1)) for m in shape)
            tol = (0.0, 1e-12, 1e-8, 1e-3)[seed // 4 % 4]
            arr = planted_tucker(shape, ranks, seed)
            level = g.choice([0.0, 0.3, 1.0, 3.0]) * max(tol, 1e-14)
            arr = (arr + level * np.max(np.abs(arr)) * g.normal(size=shape)) * (1.0, 1e150, 1e-150)[seed % 3]
            if seed % 2:
                arr = np.asfortranarray(arr)
            before = len(calls)
            assert multilinear_rank(arr, tol=tol) == unfolding_svd_ranks(arr, tol=tol), seed
            projected += len(calls) > before
            # a copy whose largest entry is 1.7e308 has the ranks of its exact copy at unit scale
            big = arr / np.max(np.abs(arr)) * 1.7e308
            assert multilinear_rank(big, tol=tol) == unfolding_svd_ranks(np.ldexp(big, -1024), tol=tol), seed
        assert projected >= 50


class TestCpAls:
    def test_rank_one_elementary(self):
        t = outer(rng(17).normal(size=3), rng(18).normal(size=2), rng(19).normal(size=2))
        res = cp_als(t, 1, seed=0)
        assert res.error <= 1e-10

    def test_construct_then_recover_rank2(self):
        cp = random_cp(2, (3, 3, 3), seed=20)
        t = cp_eval(cp)
        res = cp_als(t, 2, seed=0, max_iters=500)
        assert res.error <= 1e-6

    def test_monotone_errors(self):
        t = DenseTensor(rng(21).normal(size=(3, 3, 3)))
        res = cp_als(t, 2, seed=0, max_iters=50)
        diffs = np.diff(res.errors)
        assert np.all(diffs <= 1e-14)

    def test_rising_sweep_stops_the_start(self):
        # one start's error went from 5.3e-14 to 1.3e-13, which used to raise AssertionError
        arr = rng(1).normal(size=(2, 2, 2))
        res = cp_als(DenseTensor(arr), 4)
        assert np.all(np.diff(res.errors) <= 0.0)
        fit = cp_eval(res.cp).to_array()
        assert np.linalg.norm(fit - arr) / np.linalg.norm(arr) == pytest.approx(res.error, abs=1e-9)

    def test_deterministic(self):
        t = DenseTensor(rng(22).normal(size=(3, 2, 3)))
        r1 = cp_als(t, 2, seed=5)
        r2 = cp_als(t, 2, seed=5)
        assert r1.errors == r2.errors
        assert r1.start == r2.start
        for f1, f2 in zip(r1.cp.factors, r2.cp.factors):
            assert np.array_equal(f1, f2)

    def test_normalized_output(self):
        t = DenseTensor(rng(24).normal(size=(2, 2, 2)))
        res = cp_als(t, 2, seed=1, max_iters=30)
        assert res.cp.is_normalized(tol=1e-10)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            cp_als(DenseTensor(np.ones((2, 2))), 0)

    def test_bad_counts(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        for kw in ({"starts": 0}, {"starts": -1}, {"max_iters": 0}, {"max_iters": -3}):
            with pytest.raises(ValueError):
                cp_als(t, 1, **kw)

    def test_order1_is_rejected(self):
        with pytest.raises(ValueError, match="order >= 2"):
            cp_als(DenseTensor([1.0, 2.0]), 1)


class TestTolChecks:
    """A NaN or negative ``tol`` used to pass every gate silently; it is rejected."""

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_bad_tol_is_rejected(self, tol):
        t = DenseTensor(rng(30).normal(size=(2, 2, 2)))
        for call in (
            lambda: cp_als(t, 1, tol=tol),
            lambda: odeco_decompose(t, tol=tol),
            lambda: multilinear_rank(t, tol=tol),
        ):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                call()

    def test_zero_tol_is_allowed(self):
        t = DenseTensor(rng(31).normal(size=(2, 2, 2)))
        assert multilinear_rank(t, tol=0.0) == (2, 2, 2)
        assert cp_als(t, 1, tol=0.0, max_iters=3).errors
        odeco_decompose(t, tol=0.0, max_iters=3)


class TestOdeco:
    def test_axis_aligned(self):
        t = 2.0 * outer(e(1), e(1), e(1)) + 1.0 * outer(e(2), e(2), e(2))
        res = odeco_decompose(t, symmetric=True)
        assert res.ok
        assert res.reconstruction_error <= 1e-8
        got = sorted(
            (abs(w), tuple(np.round(np.abs(res.cp.factors[0][:, i]), 6)))
            for i, w in enumerate(res.cp.weights)
        )
        assert got[0][0] == pytest.approx(1.0, abs=1e-8)
        assert got[1][0] == pytest.approx(2.0, abs=1e-8)
        assert got[1][1] == (1.0, 0.0)

    def test_construct_then_recover(self):
        t, lam, vecs = random_odeco_symmetric(4, 3, seed=25)
        res = odeco_decompose(t, symmetric=True)
        assert res.ok and res.reconstruction_error <= 1e-8
        # match recovered components to the truth up to sign/permutation
        used = set()
        for lam_true, v_true in zip(lam, vecs.T):
            best = None
            for i in range(res.cp.rank):
                if i in used:
                    continue
                v = res.cp.factors[0][:, i]
                w = res.cp.weights[i]
                for s in (1.0, -1.0):
                    err = max(abs(s * w - lam_true), np.max(np.abs(s * v - v_true)))
                    if best is None or err < best[1]:
                        best = (i, err)
            assert best[1] <= 1e-8
            used.add(best[0])

    def test_recovered_vectors_are_eigenpairs(self):
        t, _, _ = random_odeco_symmetric(5, 4, seed=26)
        res = odeco_decompose(t, symmetric=True)
        assert res.ok
        for i in range(res.cp.rank):
            v = res.cp.factors[0][:, i]
            w = res.cp.weights[i]
            defect = contract_all_but(t, 1, [v, v]).to_array() - w * v
            assert np.max(np.abs(defect)) <= 1e-8

    def test_factor_gram_identity(self):
        t, _, _ = random_odeco_symmetric(4, 4, seed=27)
        res = odeco_decompose(t, symmetric=True)
        assert res.orthogonality_defect <= 1e-8

    def test_deflation_residual_strictly_decreases(self):
        t, lam, vecs = random_odeco_symmetric(4, 3, seed=28)
        res = odeco_decompose(t, symmetric=True)
        # replay the deflation and check the remaining norm drops each step
        arr = t.to_array().copy()
        norms = [np.linalg.norm(arr)]
        for i in range(res.cp.rank):
            term = res.cp.weights[i] * outer(*[res.cp.factors[o][:, i] for o in range(3)]).to_array()
            arr = arr - term
            norms.append(np.linalg.norm(arr))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_general_nonsymmetric_odeco(self):
        g = rng(29)
        dims = (3, 4, 3)
        r = 2
        qs = [np.linalg.qr(g.normal(size=(d, d)))[0][:, :r] for d in dims]
        sig = g.uniform(1.0, 2.0, size=r)
        acc = np.zeros(dims)
        for i in range(r):
            acc += sig[i] * outer(*[q[:, i] for q in qs]).to_array()
        t = DenseTensor(acc)
        res = odeco_decompose(t, symmetric=False, rank=2)
        assert res.reconstruction_error <= 1e-8
        assert res.orthogonality_defect <= 1e-8

    def test_non_odeco_flagged(self):
        # a random dense tensor is not orthogonally decomposable
        t = DenseTensor(rng(30).normal(size=(3, 3, 3)))
        res = odeco_decompose(t, symmetric=False)
        assert not res.ok
        assert res.status in ("not_orthogonal", "not_converged")

    @staticmethod
    def assert_recovers(res, weights, factors, tol):
        """Every planted component appears in ``res`` once, up to the signs of its vectors."""
        assert res.cp.rank == len(weights)
        left = list(range(res.cp.rank))
        for i, w in enumerate(weights):
            for r in left:
                signs = [np.sign(f[:, r] @ q[:, i]) for f, q in zip(res.cp.factors, factors)]
                if all(np.max(np.abs(s * f[:, r] - q[:, i])) <= tol for s, f, q in zip(signs, res.cp.factors, factors)):
                    assert abs(np.prod(signs) * res.cp.weights[r] - w) <= tol * abs(w)
                    left.remove(r)
                    break
            else:
                pytest.fail(f"component {i} not recovered")

    def test_exact_planted_input_is_recovered(self):
        for dims in [(5, 5, 5), (4, 4, 4, 4), (8, 8, 8)]:
            for symmetric in (True, False):
                for seed in range(5):
                    arr, w, fs = planted_odeco(dims, symmetric, seed=100 + seed)
                    res = odeco_decompose(arr, symmetric=symmetric)
                    assert res.ok and res.reconstruction_error <= 1e-12
                    assert np.all(np.diff(np.abs(res.cp.weights)) <= 0)
                    self.assert_recovers(res, w, fs, 1e-8)

    def test_fits_noisy_input_no_worse_than_deflation(self):
        """GEVD plus one power iteration against the deflation loop it replaced.

        At noise 1e-4 the fit is as good as deflation's; at 1e-3 it is within
        a relative 1e-4 (measured up to 1.6e-5 on symmetric 5^3 and 8^3).
        """
        for noise, slack in [(1e-4, 1e-6), (1e-3, 1e-4)]:
            for dims, symmetric in [((5, 5, 5), True), ((5, 5, 5), False), ((4, 4, 4, 4), True), ((4, 4, 4, 4), False), ((3, 4, 5), False)]:
                for seed in range(10):
                    arr = planted_odeco(dims, symmetric, seed=200 + seed, noise=noise)[0]
                    res = odeco_decompose(arr, symmetric=symmetric)
                    _, _, want = odeco_deflation(arr, symmetric)
                    assert res.status == "not_orthogonal" and res.cp.rank == min(dims)
                    assert res.reconstruction_error <= want * (1 + slack)

    def test_noise_loses_no_component(self):
        # noise mixes the GEVD eigenvectors of two nearly tied pencil eigenvalues,
        # and the power iteration then takes both columns to one component
        for dims, symmetric in [((5, 5, 5), True), ((8, 8, 8), True), ((10, 10, 10), True), ((5, 5, 5), False)]:
            for seed in range(60):
                arr = planted_odeco(dims, symmetric, seed=300 + seed, noise=1e-3)[0]
                assert odeco_decompose(arr, symmetric=symmetric).reconstruction_error <= 1e-3

    def test_collided_columns_are_redone(self):
        """Inputs on which the one power iteration took two GEVD columns to one component (errors 0.41-0.55 without the repair)."""
        for noise, slack, cases in [
            (3e-3, 1e-4, [((10, 10, 10), True, seed) for seed in (11, 30, 53, 91, 195)]),
            (1e-2, 1e-3, [((8, 8, 8), True, 1), ((8, 8, 8), True, 5), ((5, 5, 5), True, 50), ((8, 8, 8), False, 37), ((8, 8, 8), False, 54)]),
        ]:
            for dims, symmetric, seed in cases:
                arr = planted_odeco(dims, symmetric, seed=seed, noise=noise)[0]
                res = odeco_decompose(arr, symmetric=symmetric)
                _, _, want = odeco_deflation(arr, symmetric)
                assert res.cp.rank == min(dims) and res.orthogonality_defect <= 10 * noise
                assert res.reconstruction_error <= want * (1 + slack)

    def test_repair_never_raises_the_error(self, monkeypatch):
        """Redone columns are kept only where they fit better than the first polish."""
        import tensorspec.decomp as decomp

        inputs = [(rng(35 + seed).normal(size=(3, 3, 3)), symmetric) for seed in range(5) for symmetric in (True, False)]
        inputs += [(planted_odeco((10, 10, 10), True, seed=seed, noise=3e-3)[0], True) for seed in (11, 30)]
        repaired = 0
        for arr, symmetric in inputs:
            polished = []
            inner = decomp._power_sweeps

            def sweeps(*args):
                polished.append(inner(*args))
                return polished[-1]

            with monkeypatch.context() as patch:
                patch.setattr(decomp, "_power_sweeps", sweeps)
                res = odeco_decompose(arr, symmetric=symmetric)
            blocks = polished[0][0]
            xs = blocks * arr.ndim if symmetric else blocks
            weights = np.einsum("ijk,ir,jr,kr->r", arr, *xs)
            first = np.linalg.norm(np.einsum("r,ir,jr,kr->ijk", weights, *xs) - arr) / np.linalg.norm(arr)
            assert res.reconstruction_error <= first * (1 + 1e-12)
            repaired += len(polished) - 1
        assert repaired >= 4

    def test_gevd_factors_of_exact_input(self):
        # the planted columns up to order, scale and sign
        for dims, rank in [((6, 6, 6), 3), ((5, 4, 6), 4), ((4, 4, 4, 4), 2)]:
            cp = random_cp(rank, dims, 530)
            arr = cp_eval(cp).to_array()
            lead = hosvd(DenseTensor(arr), [rank] * len(dims)).factors[0]
            for got, want in zip(_gevd_factors(arr, lead), cp.factors):
                cos = np.abs((got / np.linalg.norm(got, axis=0)).T @ (want / np.linalg.norm(want, axis=0)))
                assert np.allclose(np.sort(cos.max(axis=0)), 1.0, rtol=0, atol=1e-10)

    def test_order_two_is_the_svd(self):
        m = rng(32).normal(size=(4, 6))
        s = np.linalg.svd(m, compute_uv=False)
        for rank, want in [(None, 4), (2, 2), (9, 4)]:
            res = odeco_decompose(m, rank=rank)
            assert res.ok and res.cp.rank == want
            np.testing.assert_allclose(np.abs(res.cp.weights), s[:want], rtol=0, atol=1e-12 * s[0])
        np.testing.assert_allclose(cp_eval(res.cp).to_array(), m, rtol=0, atol=1e-12)
        sym = m @ m.T
        res = odeco_decompose(sym, symmetric=True)
        assert res.ok
        np.testing.assert_allclose(res.cp.weights, np.linalg.eigvalsh(sym)[::-1], rtol=0, atol=1e-12 * s[0] ** 2)

    def test_rank_above_smallest_mode_is_capped(self):
        arr, w, fs = planted_odeco((3, 4, 5), False, seed=33)
        for rank in (3, 4, 50):
            res = odeco_decompose(arr, rank=rank)
            assert res.ok and res.cp.rank == 3
            self.assert_recovers(res, w, fs, 1e-8)
        res = odeco_decompose(arr, rank=2)
        assert res.ok and res.cp.rank == 2
        self.assert_recovers(res, w[1:], [f[:, 1:] for f in fs], 1e-8)

    def test_rank_cap_inside_a_weight_tie(self):
        for symmetric in (True, False):
            arr = planted_odeco((4, 4, 4), symmetric, seed=34, weights=[3.0, 2.0, 2.0, 1.0])[0]
            res = odeco_decompose(arr, symmetric=symmetric, rank=2)
            assert res.status in ("ok", "not_orthogonal", "not_converged") and res.cp.rank == 2
            assert np.all(np.isfinite(res.cp.weights)) and abs(res.cp.weights[0]) == pytest.approx(3.0, rel=1e-8)
            res = odeco_decompose(arr, symmetric=symmetric, rank=3)
            assert res.ok and np.abs(res.cp.weights) == pytest.approx([3.0, 2.0, 2.0], rel=1e-8)

    def test_zero_and_random_input(self):
        for symmetric in (True, False):
            res = odeco_decompose(np.zeros((3, 3, 3)), symmetric=symmetric)
            assert res.status == "not_converged" and res.reconstruction_error == 0.0
            assert res.cp.rank == 1 and res.cp.weights[0] == 0.0
            for seed in range(5):
                res = odeco_decompose(rng(35 + seed).normal(size=(3, 3, 3)), symmetric=symmetric)
                assert res.status in ("not_orthogonal", "not_converged")

    def test_symmetric_requires_cubical(self):
        with pytest.raises(ValueError):
            odeco_decompose(DenseTensor(np.ones((2, 3))), symmetric=True)

    def test_starts_and_seed_are_not_options(self):
        for kwargs in ({"starts": 8}, {"starts": 0}, {"seed": 0}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                odeco_decompose(DenseTensor(np.ones((2, 2, 2))), **kwargs)

    def test_bad_rank_and_max_iters(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        for kwargs in ({"rank": 0}, {"rank": -1}, {"max_iters": 0}, {"max_iters": -5}):
            with pytest.raises(ValueError, match="must be >= 1"):
                odeco_decompose(t, **kwargs)
        for kwargs in ({"rank": 2.5}, {"max_iters": 10.5}):
            with pytest.raises(TypeError):
                odeco_decompose(t, **kwargs)
        odeco_decompose(t, rank=1, max_iters=1)


def reference_cp_eval(cp):
    """The per-rank outer-product sum cp_eval computed before it became one matmul."""
    acc = np.zeros(cp.dims)
    for r in range(cp.rank):
        acc += cp.weights[r] * outer(*[f[:, r] for f in cp.factors]).to_array()
    return acc


def reference_als_single(arr, init, max_iters, tol):
    """One ALS start swept on its own, its error from the assembled fit.

    This is the per-start loop cp_als ran before its starts were batched,
    with the Khatri-Rao product built column by column from np.kron.
    """
    factors = [np.array(f, dtype=float) for f in init]
    order, rank = arr.ndim, factors[0].shape[1]
    norm_t = np.linalg.norm(arr)
    unfoldings = [_mode_unfolding(arr, o) for o in range(1, order + 1)]
    errors, converged = [], False
    for _ in range(max_iters):
        previous = list(factors)
        for o in range(order):
            others = [factors[j] for j in range(order - 1, -1, -1) if j != o]
            kr = np.column_stack([
                functools.reduce(np.kron, [f[:, r] for f in others]) for r in range(rank)
            ])
            gram = np.ones((rank, rank))
            for j in range(order):
                if j != o:
                    gram *= factors[j].T @ factors[j]
            rhs = unfoldings[o] @ kr
            try:
                factors[o] = np.linalg.solve(gram.T, rhs.T).T
            except np.linalg.LinAlgError:
                factors[o] = np.linalg.lstsq(gram.T, rhs.T, rcond=None)[0].T
        fit = reference_cp_eval(CpDecomposition(np.ones(rank), factors))
        err = np.linalg.norm(fit - arr) / norm_t if norm_t > 0 else 0.0
        if errors and err > errors[-1]:
            factors, converged = previous, True
            break
        errors.append(err)
        if len(errors) >= 2 and errors[-2] - errors[-1] < tol:
            converged = True
            break
        if err <= 1e-15:
            converged = True
            break
    return factors, errors, converged


def als_inits(arr, rank, seed, starts):
    """The documented cp_als starts: HOSVD vectors for start 0 when the rank allows, else uniform(-1, 1).

    Start k is row k of one ``default_rng(seed)`` draw of shape
    ``(starts, sum M_o, rank)``, cut into its mode factors in mode order.
    """
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(starts, sum(arr.shape), rank))
    ends = np.cumsum(arr.shape)
    inits = [[draw[end - d:end] for d, end in zip(arr.shape, ends)] for draw in draws]
    if rank <= min(arr.shape):
        inits[0] = list(hosvd(DenseTensor(arr), [rank] * arr.ndim).factors)
    return inits


def floor_sweep(traces, max_iters):
    """The first sweep in which some trace reaches the 1e-15 floor, else ``max_iters``."""
    return min([i + 1 for t in traces for i, err in enumerate(t) if err <= 1e-15] + [max_iters])


def stacked(inits):
    return [np.stack([init[o] for init in inits]) for o in range(len(inits[0]))]


def assert_same_trace(got, want):
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


ALS_CASES = [((3, 3, 3), 2), ((3, 2, 3), 2), ((6, 6, 6), 3), ((4, 4, 4, 4), 2)]


def singular_start_batch():
    """A 2x2x2 input and five rank-4 starts, of which start 2 has a zero factor column.

    The zero column keeps that start's normal-equation Gram exactly singular
    every sweep, so LU raises on the batch and that start takes the
    minimum-norm SVD solve.
    """
    arr = rng(1).normal(size=(2, 2, 2))
    inits = als_inits(arr, 4, 0, 4)
    singular = [f.copy() for f in inits[1]]
    for f in singular:
        f[:, 1] = 0.0
    inits.insert(2, singular)
    return arr, inits


class TestCpEval:
    def test_matches_rank_loop(self):
        for order in range(1, 6):
            for r in (1, 3):
                cp = random_cp(r, tuple(2 + (o % 3) for o in range(order)), seed=40 + order + r)
                want = reference_cp_eval(cp)
                got = cp_eval(cp).to_array()
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestBatchedAls:
    def test_traces_match_per_start_reference(self):
        for dims, rank in ALS_CASES:
            for seed in range(3):
                arr = rng(60 + seed).normal(size=dims)
                inits = als_inits(arr, rank, seed, 8)
                _, traces, converged = _als_sweeps(arr, stacked(inits), 60, 1e-12)
                refs = [reference_als_single(arr, init, 60, 1e-12) for init in inits]
                for k, (_, ref_errors, ref_conv) in enumerate(refs):
                    assert_same_trace(traces[k], ref_errors)
                    assert converged[k] == ref_conv
                res = cp_als(DenseTensor(arr), rank, seed=seed, max_iters=60)
                ref_best = min(range(8), key=lambda k: (refs[k][1][-1], k))
                if res.start != ref_best:
                    # only a tie at the rounding floor may pick another start
                    assert max(res.error, refs[ref_best][1][-1]) <= 1e-14
                assert_same_trace(res.errors, refs[res.start][1])

    def test_trace_does_not_depend_on_batch(self):
        arr = rng(70).normal(size=(6, 6, 6))
        inits = als_inits(arr, 3, 0, 6)
        _, traces, _ = _als_sweeps(arr, stacked(inits), 60, 0.0)
        _, rev, _ = _als_sweeps(arr, stacked(inits[::-1]), 60, 0.0)
        for k in range(6):
            assert_same_trace(rev[5 - k], traces[k])
            _, solo, _ = _als_sweeps(arr, stacked([inits[k]]), 60, 0.0)
            assert_same_trace(solo[0], traces[k])
        _, pair, _ = _als_sweeps(arr, stacked([inits[4], inits[1]]), 60, 0.0)
        assert_same_trace(pair[0], traces[4])
        assert_same_trace(pair[1], traces[1])

    def test_singular_start_in_mixed_batch(self):
        arr, inits = singular_start_batch()
        singular = inits[2]
        factors, traces, converged = _als_sweeps(arr, stacked(inits), 500, 1e-12)
        assert traces[2][-1] <= 1e-14
        # each start runs alone as in the batch up to the sweep in which the first start reaches the floor
        stop = floor_sweep([_als_sweeps(arr, stacked([init]), 500, 1e-12)[1][0] for init in inits], 500)
        for k, init in enumerate(inits):
            solo_factors, solo, solo_conv = _als_sweeps(arr, stacked([init]), stop, 1e-12)
            assert_same_trace(solo[0], traces[k])
            assert solo_conv[0] == converged[k]
            for a, b in zip(solo_factors, factors):
                assert np.max(np.abs(a[0] - b[k])) <= 1e-12
        _, ref_errors, _ = reference_als_single(arr, singular, stop, 1e-12)
        assert_same_trace(traces[2], ref_errors)


class TestAlsKeepsRunningStarts:
    """`_als_sweeps` keeps its running starts between sweeps and matches the loop that gathered them every sweep."""

    @staticmethod
    def batches():
        """Seeded (input, starts, max_iters, tol) batches, each with what it exercises."""
        random6 = rng(110).normal(size=(6, 6, 6))
        rising = rng(1).normal(size=(2, 2, 2))
        inits = als_inits(rising, 4, 0, 8)
        cases = {
            "no start stops": (random6, als_inits(random6, 3, 0, 8), 50, 0.0),
            "max_iters 1": (random6, als_inits(random6, 3, 1, 8), 1, 1e-12),
            "floor stop": (rising, inits, 500, 1e-12),
            # without the starts that reach the floor in one sweep, which stop the batch there
            "rising start": (rising, [i for i in inits if _als_sweeps(rising, stacked([i]), 1, 1e-12)[1][0][0] > 1e-15], 500, 1e-12),
            "singular start": singular_start_batch() + (500, 1e-12),
        }
        for name, dims, rank in [("planted 10^3 r5", (10, 10, 10), 5), ("6^3 r3", (6, 6, 6), 3), ("4^4 r2", (4, 4, 4, 4), 2)]:
            for seed in range(2):
                arr = cp_eval(random_cp(rank, dims, 111 + seed)).to_array() + 1e-3 * rng(121 + seed).normal(size=dims)
                cases[f"{name} #{seed}"] = (arr, als_inits(arr, rank, seed, 8), 500, 1e-12)
        return cases

    @staticmethod
    def stopped_on_rise(trace, converged, tol):
        """By the stopping rule: a converged start whose last error is above the 1e-15 floor and gained at least ``tol``."""
        return bool(converged) and trace[-1] > 1e-15 and (len(trace) == 1 or trace[-2] - trace[-1] >= tol)

    def test_bit_identical_to_parent_loop(self):
        for name, (arr, inits, max_iters, tol) in self.batches().items():
            factors, traces, converged = _als_sweeps(arr, stacked(inits), max_iters, tol)
            want_factors, want_traces, want_converged = als_sweeps_parent(arr, stacked(inits), max_iters, tol)
            assert [f.tobytes() for f in factors] == [f.tobytes() for f in want_factors], name
            assert traces == want_traces, name
            assert np.array_equal(converged, want_converged), name
            lengths = {len(t) for t in traces}
            if name == "no start stops":
                assert lengths == {max_iters} and not converged.any()
            elif name == "max_iters 1":
                assert lengths == {1}
            elif name == "floor stop":
                assert lengths == {floor_sweep(traces, max_iters)} and not converged.all()
            elif name == "rising start":
                assert any(self.stopped_on_rise(t, c, tol) for t, c in zip(traces, converged))
            elif name != "singular start":
                assert len(lengths) > 1, f"{name}: every start stopped at the same sweep"

    def test_one_lstsq_per_mode_per_sweep(self, monkeypatch):
        import tensorspec.decomp as decomp

        calls = []

        def lstsq(a, b):
            calls.append(a.shape[0])
            return _lstsq(a, b)

        monkeypatch.setattr(decomp, "_lstsq", lstsq)
        for name, (arr, inits, max_iters, tol) in self.batches().items():
            calls.clear()
            _, traces, converged = _als_sweeps(arr, stacked(inits), max_iters, tol)
            # a start that stopped on a rise ran one sweep past its trace
            sweeps = max(len(t) + self.stopped_on_rise(t, c, tol) for t, c in zip(traces, converged))
            assert len(calls) == arr.ndim * sweeps, name
            # each call solves the running starts only
            assert calls[0] == len(inits) and all(b <= a for a, b in zip(calls, calls[1:])), name

    def test_memory_does_not_scale_with_max_iters(self):
        arr = outer(rng(112).normal(size=4), rng(113).normal(size=4), rng(114).normal(size=4)).to_array()
        # starts that each reach the floor in their first sweep: none is stopped unconverged by another
        inits = stacked(als_inits(arr, 1, 3, 8))
        tracemalloc.start()
        try:
            _, traces, converged = _als_sweeps(arr, inits, 10**7, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged.all() and max(len(t) for t in traces) <= 3
        assert peak < 200_000


class TestStartRule:
    """The blocks the multi-start solvers hand to their batched sweeps."""

    @staticmethod
    def capture(monkeypatch, name):
        import tensorspec.decomp as decomp

        seen = []
        inner = getattr(decomp, name)

        def wrapped(*args):
            seen.append(args)
            return inner(*args)

        monkeypatch.setattr(decomp, name, wrapped)
        return seen

    def als_starts(self, monkeypatch, arr, rank, seed, starts):
        with monkeypatch.context() as patch:
            seen = self.capture(patch, "_als_sweeps")
            cp_als(arr, rank, seed=seed, starts=starts, max_iters=2)
        [(_, factors, _, _)] = seen
        return [[f[k] for f in factors] for k in range(starts)]

    def test_cp_als_starts(self, monkeypatch):
        for dims, rank in [((3, 4, 5), 2), ((2, 3, 2, 3), 3), ((3, 3, 3), 4)]:
            arr = rng(80).normal(size=dims)
            first = 1 if rank <= min(dims) else 0
            by_seed = [self.als_starts(monkeypatch, arr, rank, seed, 8) for seed in (0, 1)]
            for seed, got in enumerate(by_seed):
                want = als_inits(arr, rank, seed, 8)
                assert all(np.array_equal(a, b) for k in range(8) for a, b in zip(got[k], want[k]))
                few = self.als_starts(monkeypatch, arr, rank, seed, 3)
                assert all(np.array_equal(a, b) for k in range(3) for a, b in zip(few[k], got[k]))
            # no random start of one seed is a random start of the other
            for a in by_seed[0][first:]:
                for b in by_seed[1][first:]:
                    assert not any(np.array_equal(x, y) for x, y in zip(a, b))

    def test_odeco_one_power_iteration_without_starts(self, monkeypatch):
        import tensorspec.decomp as decomp

        # the package's `contract` function shadows the module of that name
        monkeypatch.setattr(importlib.import_module("tensorspec.contract"), "_starts", lambda *args: pytest.fail("odeco drew starts"))
        assert not hasattr(decomp, "_starts")
        for dims, symmetric in [((4, 4, 4), True), ((4, 4, 4), False), ((3, 4, 5), False), ((3, 3, 3, 3), True), ((2, 3, 2, 3), False)]:
            t = planted_odeco(dims, symmetric, seed=81)[0]
            with monkeypatch.context() as patch:
                sweeps = self.capture(patch, "_power_sweeps")
                plans = self.capture(patch, "_contract_plan")
                res = odeco_decompose(t, symmetric=symmetric)
            assert res.ok
            # one sweep call on the full tensor, its columns the components
            [(_, blocks, _, _, _)] = sweeps
            assert len(blocks) == (1 if symmetric else len(dims)) and blocks[0].shape[1] == min(dims)
            # the full tensor, scaled by a power of two near its largest entry
            assert len(plans) == len(blocks) and all(np.array_equal(p[0], np.ldexp(t, -_scale_exponent(t))) for p in plans)
            # the result depends on the tensor alone
            again = odeco_decompose(t, symmetric=symmetric)
            assert again.cp.weights.tobytes() == res.cp.weights.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(again.cp.factors, res.cp.factors))
            assert (again.reconstruction_error, again.orthogonality_defect) == (res.reconstruction_error, res.orthogonality_defect)


class TestFloorStop:
    """The `cp_als` batch stops once a start reaches the 1e-15 floor."""

    def test_batch_stops_at_the_first_floor(self, monkeypatch):
        import tensorspec.decomp as decomp

        calls = []

        def lstsq(a, b):
            calls.append(a.shape[0])
            return _lstsq(a, b)

        arr = planted_odeco((6, 6, 6), False, seed=510, weights=[3.0, 2.0, 1.5])[0]
        # the random starts only, which take several sweeps to the floor on orthonormal factors
        inits = als_inits(arr, 3, 0, 8)[1:]
        with monkeypatch.context() as patch:
            patch.setattr(decomp, "_lstsq", lstsq)
            _, traces, converged = _als_sweeps(arr, stacked(inits), 500, 1e-12)
        stop = floor_sweep(traces, 500)
        assert 1 < stop < 500 and len(calls) == arr.ndim * stop
        assert all(len(t) == stop or c for t, c in zip(traces, converged))
        # alone, some start runs past that sweep
        assert max(len(_als_sweeps(arr, stacked([i]), 500, 1e-12)[1][0]) for i in inits) > stop

    def test_degenerate_input(self):
        rank_one = outer(rng(520).normal(size=3), rng(521).normal(size=3), rng(522).normal(size=3)).to_array()
        # the zero tensor, a singular pencil, and 2x2x2 inputs of real rank 2 and 3 (complex pencil eigenvalues)
        for arr, rank in [(np.zeros((3, 3, 3)), 2), (rank_one, 3), (rng(524).normal(size=(2, 2, 2)), 2), (rng(523).normal(size=(2, 2, 2)), 2)]:
            lead = hosvd(DenseTensor(arr), [rank] * 3).factors[0]
            assert all(np.all(np.isfinite(f)) for f in _gevd_factors(arr, lead))
            res = cp_als(arr, rank)
            assert np.all(np.isfinite(res.cp.weights)) and all(np.all(np.isfinite(f)) for f in res.cp.factors)
            assert np.all(np.diff(res.errors) <= 0.0)
        assert res.error > 1e-3  # real rank 3 has no exact rank-2 fit


class TestScaleRule:
    """The fits run on the input scaled by a power of two, so tiny and huge entries fit like ordinary ones."""

    @staticmethod
    def fits(c):
        """cp_als on a planted 4^3 rank-3 tensor and odeco on a planted symmetric 3^3 one, both times ``c``."""
        arr = planted_odeco((4, 4, 4), False, seed=90, weights=[3.0, 2.0, 1.0])[0]
        sym = planted_odeco((3, 3, 3), True, seed=91, weights=[3.0, 2.0, 1.0])[0]
        return cp_als(c(arr), 3, seed=0), odeco_decompose(c(sym), symmetric=True)

    def test_powers_of_two_keep_every_bit(self):
        base, odeco = self.fits(lambda a: a)
        assert base.error <= 1e-12 and base.converged and odeco.ok
        for k in (-700, 700):
            cp, res = self.fits(lambda a: np.ldexp(a, k))
            assert np.array_equal(cp.cp.weights, np.ldexp(base.cp.weights, k))
            assert all(np.array_equal(a, b) for a, b in zip(cp.cp.factors, base.cp.factors))
            assert (cp.errors, cp.start, cp.converged) == (base.errors, base.start, base.converged)
            assert np.array_equal(res.cp.weights, np.ldexp(odeco.cp.weights, k))
            assert all(np.array_equal(a, b) for a, b in zip(res.cp.factors, odeco.cp.factors))
            assert (res.reconstruction_error, res.orthogonality_defect, res.status) == (odeco.reconstruction_error, odeco.orthogonality_defect, "ok")

    def test_tiny_and_huge_entries(self):
        base, odeco = self.fits(lambda a: a)
        for c in (1e-200, 1e200):
            # cp_als used to return zero weights at 1e-200 and NaN, with overflow
            # warnings, at 1e200; odeco returned "not_converged" at both
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cp, res = self.fits(lambda a: c * a)
            assert cp.converged and cp.error <= 1e-12
            np.testing.assert_allclose(cp.cp.weights / c, base.cp.weights, rtol=1e-12)
            assert res.ok and res.reconstruction_error <= 1e-12
            np.testing.assert_allclose(res.cp.weights / c, odeco.cp.weights, rtol=1e-12)
            np.testing.assert_allclose(np.abs(res.cp.weights / c), [3.0, 2.0, 1.0], rtol=1e-12)
            for got, want in [(cp, base), (res, odeco)]:
                for a, b in zip(got.cp.factors, want.cp.factors):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestRawArrayInput:
    """Every public solver takes a DenseTensor, an ndarray or a nested list alike."""

    @staticmethod
    def numbers(result) -> np.ndarray:
        """Every number in a solver result's fields, in a fixed order."""
        if isinstance(result, DenseTensor):
            result = result.to_array()
        elif dataclasses.is_dataclass(result):
            result = [getattr(result, f.name) for f in dataclasses.fields(result)]
        if isinstance(result, (list, tuple)):
            return np.concatenate([TestRawArrayInput.numbers(r) for r in result] + [np.zeros(0)])
        return np.zeros(0) if isinstance(result, str) else np.ravel(np.asarray(result, dtype=float))

    def test_every_solver_on_ndarray_and_list(self):
        from tensorspec.spectra import best_rank_one, find_eigenpairs, find_singular_tuples

        arr = rng(700).normal(size=(3, 3, 3))
        solvers = [
            lambda t: find_eigenpairs(t, 1, "z"),
            lambda t: find_eigenpairs(t, 2, "h"),
            lambda t: find_singular_tuples(t, 2),
            lambda t: [best_rank_one(t)],
            lambda t: cp_als(t, 2, starts=2),
            lambda t: odeco_decompose(t),
            lambda t: odeco_decompose(t, symmetric=True),
            lambda t: hosvd(t, [2, 2, 2]),
            lambda t: multilinear_rank(t),
        ]
        for solve in solvers:
            want = self.numbers(solve(DenseTensor(arr)))
            for raw in (arr, arr.tolist()):
                # a DenseTensor keeps its entries in colex order, so sums over them round differently
                np.testing.assert_allclose(self.numbers(solve(raw)), want, rtol=1e-13, atol=1e-15)

    def test_odeco_on_raw_input(self):
        sym, _, _ = random_odeco_symmetric(3, 2, seed=701)
        for raw in (sym.to_array(), sym.to_array().tolist()):
            res = odeco_decompose(raw, symmetric=True)
            assert res.ok and res.reconstruction_error <= 1e-8
        for raw in (np.zeros((3, 3, 3)), np.zeros((2, 3, 4)).tolist()):
            res = odeco_decompose(raw)
            assert res.status == "not_converged" and res.reconstruction_error == 0.0
            assert res.cp.dims == np.shape(raw)
