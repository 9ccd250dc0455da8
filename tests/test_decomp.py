"""CP/Tucker formats, HOSVD, ALS fitting, and odeco recovery."""

import dataclasses
import functools

import numpy as np
import pytest

from tensorspec.contract import _mode_unfolding, contract_all_but
from tensorspec.decomp import (
    CpDecomposition,
    _als_sweeps,
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
from tensorspec.tensor import DenseTensor, frobenius_norm, outer, unit_tensor


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


def random_cp(r, dims, seed):
    g = rng(seed)
    return CpDecomposition(
        g.uniform(0.5, 2.0, size=r), [g.normal(size=(d, r)) for d in dims]
    )


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
        res = odeco_decompose(t, symmetric=True, seed=0)
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
        res = odeco_decompose(t, symmetric=True, seed=0)
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
        res = odeco_decompose(t, symmetric=True, seed=0)
        assert res.ok
        for i in range(res.cp.rank):
            v = res.cp.factors[0][:, i]
            w = res.cp.weights[i]
            defect = contract_all_but(t, 1, [v, v]).to_array() - w * v
            assert np.max(np.abs(defect)) <= 1e-8

    def test_factor_gram_identity(self):
        t, _, _ = random_odeco_symmetric(4, 4, seed=27)
        res = odeco_decompose(t, symmetric=True, seed=0)
        assert res.orthogonality_defect <= 1e-8

    def test_deflation_residual_strictly_decreases(self):
        t, lam, vecs = random_odeco_symmetric(4, 3, seed=28)
        res = odeco_decompose(t, symmetric=True, seed=0)
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
        res = odeco_decompose(t, symmetric=False, rank=2, seed=0)
        assert res.reconstruction_error <= 1e-8
        assert res.orthogonality_defect <= 1e-8

    def test_non_odeco_flagged(self):
        # a random dense tensor is not orthogonally decomposable
        t = DenseTensor(rng(30).normal(size=(3, 3, 3)))
        res = odeco_decompose(t, symmetric=False, seed=0)
        assert not res.ok
        assert res.status in ("not_orthogonal", "not_converged")

    def test_symmetric_requires_cubical(self):
        with pytest.raises(ValueError):
            odeco_decompose(DenseTensor(np.ones((2, 3))), symmetric=True)

    def test_bad_starts(self):
        for starts in (0, -2):
            with pytest.raises(ValueError):
                odeco_decompose(DenseTensor(np.ones((2, 2, 2))), starts=starts)

    def test_bad_rank_and_max_iters(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        for kwargs in ({"rank": 0}, {"rank": -1}, {"max_iters": 0}, {"max_iters": -5}):
            with pytest.raises(ValueError, match="must be >= 1"):
                odeco_decompose(t, **kwargs)
        for kwargs in ({"rank": 2.5}, {"starts": 2.0}, {"max_iters": 10.5}):
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
                factors[o] = np.linalg.solve((gram + 1e-12 * np.eye(rank)).T, rhs.T).T
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
    """The documented cp_als starts: HOSVD vectors for start 0 when the rank allows, else uniform(-1, 1)."""
    inits = []
    for k in range(starts):
        if k == 0 and rank <= min(arr.shape):
            inits.append(list(hosvd(DenseTensor(arr), [rank] * arr.ndim).factors))
        else:
            g = np.random.default_rng(seed + k)
            inits.append([g.uniform(-1.0, 1.0, size=(d, rank)) for d in arr.shape])
    return inits


def stacked(inits):
    return [np.stack([init[o] for init in inits]) for o in range(len(inits[0]))]


def assert_same_trace(got, want):
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


ALS_CASES = [((3, 3, 3), 2), ((3, 2, 3), 2), ((6, 6, 6), 3), ((4, 4, 4, 4), 2)]


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
        # a zero factor column keeps that start's normal-equation Gram exactly
        # singular every sweep, so the whole batch falls back to per-start solves
        arr = rng(1).normal(size=(2, 2, 2))
        inits = als_inits(arr, 4, 0, 4)
        singular = [f.copy() for f in inits[1]]
        for f in singular:
            f[:, 1] = 0.0
        inits.insert(2, singular)
        factors, traces, converged = _als_sweeps(arr, stacked(inits), 500, 1e-12)
        assert len(traces[2]) > 1
        for k, init in enumerate(inits):
            solo_factors, solo, solo_conv = _als_sweeps(arr, stacked([init]), 500, 1e-12)
            assert_same_trace(solo[0], traces[k])
            assert solo_conv[0] == converged[k]
            for a, b in zip(solo_factors, factors):
                assert np.max(np.abs(a[0] - b[k])) <= 1e-12
        _, ref_errors, _ = reference_als_single(arr, singular, 500, 1e-12)
        assert_same_trace(traces[2], ref_errors)


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
