"""Eigenpair and singular-tuple solvers, orbits, and the eigen/singular bridge.

Golden values come from the 2x2x2 tensor whose frontal slices are all-ones
and all-twos; derived values are verified here against brute-force circle
oracles that never call the solver path they check.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import contract_all_but_loop, count_linalg, damped_newton_loop, finish_loop, starts_loop

from tensorspec.decomp import cp_eval, CpDecomposition, odeco_decompose
from tensorspec.spectra import (
    BestRankOne,
    EigenPair,
    SingularTuple,
    best_rank_one,
    eig_orbit,
    eig_residual,
    eig_singular_bridge,
    find_eigenpairs,
    find_eigenpairs_contract_leading,
    find_eigenpairs_contract_trailing,
    find_singular_tuples,
    singular_orbit,
    singular_residual,
)
from tensorspec.tensor import DenseTensor, is_symmetric, outer


def golden_222():
    arr = np.empty((2, 2, 2))
    arr[:, :, 0] = 1.0
    arr[:, :, 1] = 2.0
    return DenseTensor(arr)


def rng(seed=0):
    return np.random.default_rng(seed)


def contains_pair(pairs, value, vector, tol=1e-8):
    vector = np.asarray(vector, dtype=float)
    return any(
        abs(p.value - value) <= tol and np.max(np.abs(p.vector - vector)) <= tol
        for p in pairs
    )


def symmetrize(arr):
    sym = np.zeros_like(arr)
    for p in itertools.permutations(range(arr.ndim)):
        sym += np.transpose(arr, p)
    return sym / math.factorial(arr.ndim)


def random_symmetric(m, seed, order=3):
    return DenseTensor(symmetrize(rng(seed).normal(size=(m,) * order)))


SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)


class TestEigResidual:
    def test_golden_z_mode1(self):
        t = golden_222()
        pair = EigenPair("z", 1, 3 * SQ2, np.array([1 / SQ2, 1 / SQ2]), 0.0)
        assert eig_residual(t, pair) <= 1e-12

    def test_golden_h_mode1(self):
        t = golden_222()
        pair = EigenPair("h", 1, 6.0, np.array([1 / SQ2, 1 / SQ2]), 0.0)
        assert eig_residual(t, pair) <= 1e-12

    def test_zero_value_gives_map_norm(self):
        t = golden_222()
        x = np.array([1.0, 0.0])
        pair = EigenPair("z", 1, 0.0, x, 0.0)
        # defect with lambda = 0 is just ||F(x)||_inf = (x1+x2)(x1+2 x2) = 1
        assert eig_residual(t, pair) == pytest.approx(1.0, abs=1e-14)

    def test_non_cubical_rejected(self):
        with pytest.raises(ValueError):
            eig_residual(DenseTensor(np.ones((2, 3))), EigenPair("z", 1, 0.0, np.ones(2), 0.0))

    def test_vector_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^vector length 3 does not match mode size 2$"):
            eig_residual(golden_222(), EigenPair("z", 1, 0.0, np.ones(3), 0.0))


class TestFindEigenpairsGolden:
    def test_mode1_z(self):
        pairs = find_eigenpairs(golden_222(), 1, "z")
        assert contains_pair(pairs, 3 * SQ2, [1 / SQ2, 1 / SQ2])
        assert contains_pair(pairs, -3 * SQ2, [-1 / SQ2, -1 / SQ2])
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_mode2_matches_mode1(self):
        # the tensor is invariant under swapping modes 1 and 2
        p1 = find_eigenpairs(golden_222(), 1, "z")
        p2 = find_eigenpairs(golden_222(), 2, "z")
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert abs(a.value - b.value) <= 1e-8
            assert np.max(np.abs(a.vector - b.vector)) <= 1e-8

    def test_mode3_z(self):
        pairs = find_eigenpairs(golden_222(), 3, "z")
        assert contains_pair(pairs, 9 / SQ5, [1 / SQ5, 2 / SQ5])
        assert contains_pair(pairs, -9 / SQ5, [-1 / SQ5, -2 / SQ5])

    def test_mode1_h_lambda_set(self):
        pairs = find_eigenpairs(golden_222(), 1, "h")
        values = sorted({round(p.value, 8) for p in pairs})
        assert values == [0.0, 6.0]
        six = [p for p in pairs if abs(p.value - 6.0) <= 1e-8]
        assert any(np.max(np.abs(np.abs(p.vector) - 1 / SQ2)) <= 1e-8 for p in six)
        zero = [p for p in pairs if abs(p.value) <= 1e-8]
        # x proportional to (1, -1) appears among the null pairs
        assert any(
            np.max(np.abs(p.vector - np.array([1 / SQ2, -1 / SQ2]))) <= 1e-8
            or np.max(np.abs(p.vector - np.array([-1 / SQ2, 1 / SQ2]))) <= 1e-8
            for p in zero
        )

    def test_mode3_h_derived(self):
        # the defining equations force (1 - sqrt(2))^2 = 3 - 2 sqrt(2)
        pairs = find_eigenpairs(golden_222(), 3, "h")
        lam_hi, lam_lo = 3 + 2 * SQ2, 3 - 2 * SQ2
        hi = [p for p in pairs if abs(p.value - lam_hi) <= 1e-8]
        lo = [p for p in pairs if abs(p.value - lam_lo) <= 1e-8]
        assert hi and lo
        x_hi = np.array([1.0, SQ2]) / np.linalg.norm([1.0, SQ2])
        x_lo = np.array([1.0, -SQ2]) / np.linalg.norm([1.0, SQ2])
        assert any(min(np.max(np.abs(p.vector - x_hi)), np.max(np.abs(p.vector + x_hi))) <= 1e-8 for p in hi)
        assert any(min(np.max(np.abs(p.vector - x_lo)), np.max(np.abs(p.vector + x_lo))) <= 1e-8 for p in lo)
        assert all(p.residual <= 1e-10 for p in pairs)

    def test_mode3_h_against_circle_oracle(self):
        # independent oracle: dense sampling of the collinearity defect using
        # the explicit entrywise formula, bisection to machine precision
        def f3(x):
            s = (x[0] + x[1]) ** 2
            return np.array([s, 2.0 * s])

        n = 200_000
        thetas = np.linspace(0.0, np.pi, n, endpoint=False)  # h: x and -x equivalent
        lams = []
        prev = None
        for th in thetas:
            x = np.array([np.cos(th), np.sin(th)])
            g = f3(x)[0] * x[1] ** 2 - f3(x)[1] * x[0] ** 2
            if prev is not None and prev[1] * g < 0:
                a, b = prev[0], th
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    xm = np.array([np.cos(mid), np.sin(mid)])
                    gm = f3(xm)[0] * xm[1] ** 2 - f3(xm)[1] * xm[0] ** 2
                    if prev[1] * gm < 0:
                        b = mid
                    else:
                        a = mid
                xr = np.array([np.cos(0.5 * (a + b)), np.sin(0.5 * (a + b))])
                w = xr**2
                lams.append(float(f3(xr) @ w / (w @ w)))
            prev = (th, g)
        lams = sorted(lams)
        # the defect changes sign only at the two transversal roots (the
        # lambda = 0 root at x ~ (1,-1) is a double zero, invisible to
        # bracketing); they pin down 3 -/+ 2 sqrt(2)
        assert len(lams) == 2
        assert lams[0] == pytest.approx(3 - 2 * SQ2, abs=1e-9)
        assert lams[1] == pytest.approx(3 + 2 * SQ2, abs=1e-9)

    def test_convention_aliases(self):
        t = golden_222()
        lead = find_eigenpairs_contract_leading(t, "z")
        trail = find_eigenpairs_contract_trailing(t, "z")
        assert contains_pair(trail, 3 * SQ2, [1 / SQ2, 1 / SQ2])
        assert contains_pair(lead, 9 / SQ5, [1 / SQ5, 2 / SQ5])

    def test_sorted_and_deduplicated(self):
        pairs = find_eigenpairs(golden_222(), 1, "z")
        mags = [abs(p.value) for p in pairs]
        assert mags == sorted(mags, reverse=True)
        for i, a in enumerate(pairs):
            for b in pairs[i + 1:]:
                assert abs(a.value - b.value) > 1e-8 or np.max(np.abs(a.vector - b.vector)) > 1e-8

    def test_errors(self):
        with pytest.raises(ValueError):
            find_eigenpairs(DenseTensor(np.ones((2, 3))), 1, "z")
        with pytest.raises(IndexError):
            find_eigenpairs(golden_222(), 4, "z")
        with pytest.raises(ValueError):
            find_eigenpairs(golden_222(), 1, "q")
        with pytest.raises(ValueError, match="order >= 2"):
            find_eigenpairs(DenseTensor(np.arange(1.0, 8.0)), 1, "h")

    def test_sort_reads_the_printed_value(self):
        from tensorspec.spectra import _finish

        up = np.nextafter(1.0, 2.0)
        a, b = (up, [1.0, 0.0]), (1.0, [0.0, 1.0])
        # values one ulp apart print alike, so the entries decide the order
        for records in ([a, b], [b, a]):
            s = np.array([r[0] for r in records])
            v = np.array([r[1] for r in records]).T
            assert [s[c] for c in _finish(s, v, np.zeros(2), np.ones(2, dtype=bool), 1.0)] == [1.0, up]


def scalar_and_vector(r):
    return (r.value, r.vector) if isinstance(r, EigenPair) else (r.sigma, np.concatenate(r.vectors))


def same_scaled_records(base, scaled, s, top, tol=1e-9):
    """Both ways, every record of ``base`` times ``s`` has a record of ``scaled`` within ``tol``."""

    def near(p, q):
        (a, u), (b, w) = scalar_and_vector(p), scalar_and_vector(q)
        return abs(b - s * a) <= tol * s * top and np.max(np.abs(w - u)) <= tol

    return all(any(near(p, q) for q in scaled) for p in base) and all(any(near(p, q) for p in base) for q in scaled)


# entries of magnitude 0 or in [1e-3, 10]: scaling them by 1e-8 stays clear of subnormals
ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


class TestSize2BinaryForm:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), order=st.integers(2, 5), variant=st.sampled_from("zh"))
    def test_record_bound_and_scale_equivariance(self, data, order, variant):
        arr = np.array(data.draw(st.lists(ENTRY, min_size=2**order, max_size=2**order))).reshape((2,) * order)
        mode = data.draw(st.integers(1, order))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = find_eigenpairs(DenseTensor(arr), mode, variant)
            # 2 signs per real root line; the binary form has degree O (z) or 2(O-1) (h)
            assert len(base) <= (2 * order if variant == "z" else 4 * (order - 1))
            for s in (1e-8, 1e8):
                scaled = find_eigenpairs(DenseTensor(arr * s), mode, variant)
                assert len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, np.max(np.abs(arr)))

    def test_close_root_lines(self):
        # two of the four root lines are 0.07 degrees apart
        t = DenseTensor(rng(270).normal(size=(2, 2, 2)))
        pairs = find_eigenpairs(t, 1, "h")
        assert len(pairs) == 8
        assert all(eig_residual(t, p) <= 1e-10 for p in pairs)

    def test_multiple_root_lines_reported_once(self):
        # all-ones 2^4, h mode 1: g = (x0 + x1)^3 (x1^3 - x0^3), lines (1, -1) (triple) and (1, 1)
        assert len(find_eigenpairs(DenseTensor(np.ones((2,) * 4)), 1, "h")) == 4
        # all-ones 2^5, z mode 1: g = (x0 + x1)^4 (x1 - x0)
        assert len(find_eigenpairs(DenseTensor(np.ones((2,) * 5)), 1, "z")) == 4
        # h mode 3: g = x0 (x0 - x1)^3, lines (0, 1) and (1, 1) (triple)
        t = DenseTensor(np.array([2.0, -1.0, 1.0, 2.0, -2.0, 1.0, 0.0, -1.0]).reshape(2, 2, 2))
        pairs = find_eigenpairs(t, 3, "h")
        assert len(pairs) == 4
        assert all(eig_residual(t, p) <= 1e-10 for p in pairs)

    def test_rank_one_symmetric(self):
        # a^(x)O: z lines a and a-perp ((O-1)-fold); h lines a-perp and the real roots of x1^(O-1) = (a1/a0) x0^(O-1)
        for seed in range(10):
            a = rng(seed).normal(size=2)
            for order in (3, 4, 5):
                t = outer(*[a] * order)
                real = 1 if order % 2 == 0 else (2 if a[1] / a[0] > 0 else 0)
                for mode in range(1, order + 1):
                    assert len(find_eigenpairs(t, mode, "z")) == 4
                    assert len(find_eigenpairs(t, mode, "h")) == 2 * (1 + real)

    def test_close_simple_lines_stay_apart(self):
        # f_1 = 0, f_0 = (x1 - c x0)(x1 - (c + d) x0): lines x1 = 0 (double), x1 = c x0, x1 = (c + d) x0
        c = 0.5
        for d in (1e-3, 1e-6):
            arr = np.zeros((2, 2, 2))
            arr[0] = [[c * (c + d), -(2 * c + d) / 2], [-(2 * c + d) / 2, 1.0]]
            assert len(find_eigenpairs(DenseTensor(arr), 1, "h")) == 6

    def test_scaled_copies_keep_their_records(self):
        for seed in range(4):
            arr = rng(seed).normal(size=(2, 2, 2))
            base = find_eigenpairs(DenseTensor(arr), 1, "z")
            for s in (1e-10, 1e6):
                scaled = find_eigenpairs(DenseTensor(arr * s), 1, "z")
                assert len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, np.max(np.abs(arr)))

    def test_zero_tensor_is_not_isolated(self):
        # on every path, not only size 2
        for dims in ([2, 2, 2], [3, 3, 3], [4, 4, 4, 4]):
            for variant in ("z", "h"):
                with pytest.warns(UserWarning, match="not isolated"):
                    assert find_eigenpairs(DenseTensor.zeros(dims), 1, variant) == []

    def test_identity_matrix_is_not_isolated(self):
        # every unit vector is an eigenvector
        with pytest.warns(UserWarning, match="not isolated"):
            assert find_eigenpairs(DenseTensor(3.0 * np.eye(2)), 1, "z") == []

    def test_removed_keywords(self):
        for kw in ("grid", "newton_iters", "newton_tol", "dedup_tol"):
            with pytest.raises(TypeError):
                find_eigenpairs(golden_222(), 1, "z", **{kw: 64})
        with pytest.raises(TypeError):
            find_eigenpairs(random_symmetric(3, seed=7), 1, "z", dedup_tol=1e-6)
        with pytest.raises(TypeError):
            find_singular_tuples(golden_222(), 2, dedup_tol=1e-6)
        with pytest.raises(TypeError):
            odeco_decompose(golden_222(), orth_tol=1e-3)

    def test_bad_starts_rejected_on_every_path(self):
        for t in (golden_222(), random_symmetric(3, seed=8), DenseTensor(np.abs(rng(9).normal(size=(3, 3, 3))))):
            for starts in (0, -1):
                for variant in ("z", "h"):
                    with pytest.raises(ValueError, match="starts must be >= 1"):
                        find_eigenpairs(t, 1, variant, starts=starts)
                for p in (2, 3):
                    with pytest.raises(ValueError, match="starts must be >= 1"):
                        find_singular_tuples(t, p, starts=starts)

    def test_bad_tol_and_max_iters_rejected_on_every_path(self):
        # --tol nan and --tol -1 used to return no record and exit 0
        bad = [({"tol": float("nan")}, "tol must be >= 0"), ({"tol": -1.0}, "tol must be >= 0"),
               ({"max_iters": 0}, "max_iters must be >= 1"), ({"max_iters": -2}, "max_iters must be >= 1")]
        for t in (golden_222(), random_symmetric(3, seed=8), DenseTensor(np.abs(rng(9).normal(size=(3, 3, 3))))):
            for kw, msg in bad:
                for variant in ("z", "h"):
                    with pytest.raises(ValueError, match=msg):
                        find_eigenpairs(t, 1, variant, **kw)
                for p in (2, 3):
                    with pytest.raises(ValueError, match=msg):
                        find_singular_tuples(t, p, **kw)


def planted_form(order, power, factors):
    """A 2^order tensor whose mode-1 binary form is the product of the linear forms ``(a, b)`` -> ``a x_0 + b x_1`` in ``factors``.

    ``g = f_0 x_1^power - f_1 x_0^power`` (`spectra._binary_form`) takes any
    form of degree ``order - 1 + power``: ``f_0`` gets its coefficients from
    ``x_1^power`` on, ``f_1`` the rest, each on the entry whose last modes
    have that many leading 1-indices.
    """
    g = np.array([1.0])
    for a, b in factors:
        g = np.convolve(g, [a, b])
    assert g.size == order + power
    cols = np.zeros((2, 2 ** (order - 1)))
    cols[0, 2 ** np.arange(order) - 1] = g[power:]
    cols[1, 2 ** np.arange(power) - 1] = -g[:power]
    return cols.reshape((2,) * order)


def size2_corpus(seeds=range(2)):
    """Seeded 2^O inputs, O = 2..5: Gaussian, integer, sparse, rank one, and planted double and triple root lines."""
    for seed in seeds:
        for order in range(2, 6):
            g = rng(3000 + 10 * order + seed)
            shape = (2,) * order
            yield g.normal(size=shape)
            yield g.integers(-3, 4, size=shape).astype(float)
            yield g.normal(size=shape) * (g.random(shape) < 0.4)
            yield outer(*[g.normal(size=2) for _ in range(order)]).to_array()
            for power in (1, order - 1):
                degree = order - 1 + power
                if degree < 3:
                    continue
                # x_1 = 0 or x_0 = 0 among the lines leaves a zero end coefficient
                lines = [(1.0, 0.0), (0.0, 1.0)] + [tuple(v) for v in g.normal(size=(degree, 2))]
                for mult in (2, 3):
                    if mult <= degree:
                        picks = [lines[(seed + mult) % 3]] * mult + lines[3 : 3 + degree - mult]
                        yield planted_form(order, power, picks)


def gaussian_size2(count):
    """Seeded Gaussian 2^3 to 2^5 inputs, from whose root lines Newton takes no step."""
    for seed in range(count):
        yield rng(4000 + seed).normal(size=(2,) * (3 + seed % 3))


def root_line_inputs(monkeypatch, arrays, scales=(1.0, 1e150, 1e-150)):
    """Every ``(g, noise)`` that `find_eigenpairs` hands `spectra._root_lines` on ``arrays``, every mode, z and h."""
    from tensorspec import spectra

    seen, real = [], spectra._root_lines
    monkeypatch.setattr(spectra, "_root_lines", lambda g, noise: (seen.append((g.copy(), noise)), real(g, noise))[1])
    for arr in arrays:
        for scale in scales:
            t = DenseTensor(arr * scale)
            for mode in range(1, arr.ndim + 1):
                for variant in "zh":
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        find_eigenpairs(t, mode, variant)
    return seen


def close_line_forms():
    """`TestSize2BinaryForm.test_close_simple_lines_stay_apart`'s tensors, with d down to 1e-9."""
    c = 0.5
    for d in (1e-3, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        arr = np.zeros((2, 2, 2))
        arr[0] = [[c * (c + d), -(2 * c + d) / 2], [-(2 * c + d) / 2, 1.0]]
        yield arr


@pytest.fixture(scope="module")
def root_line_corpus():
    with pytest.MonkeyPatch.context() as mp:
        seen = root_line_inputs(mp, list(size2_corpus()) + list(close_line_forms()))
    return list({g.tobytes() + np.float64(noise).tobytes(): (g, noise) for g, noise in seen}.values())


class TestRootLines:
    """`spectra._root_lines` against the parent's root finder, and the bound that lets it skip `_split_roots`."""

    def test_matches_parent_bit_for_bit(self, root_line_corpus):
        from reference import root_lines_parent
        from tensorspec.spectra import _chart_roots, _root_lines

        assert len(root_line_corpus) >= 800
        assert sum(g[0] == 0.0 or g[-1] == 0.0 for g, _ in root_line_corpus) >= 200
        for g, noise in root_line_corpus:
            for got, want in zip(_chart_roots(g), (np.roots(g[::-1]), np.roots(g))):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), g
            got, want = _root_lines(g, noise), root_lines_parent(g, noise)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), g
            assert got.strides == want.strides

    def test_bound_admits_every_group_split_roots_passes(self, root_line_corpus):
        from tensorspec.spectra import _cluster_bound, _split_roots

        passed = 0
        for g, noise in root_line_corpus:
            for c in (g[::-1], g):
                roots = np.roots(c)
                roots = roots[np.abs(roots) <= 2.0]
                near = np.argsort(np.abs(roots[:, None] - roots[None, :]), axis=1, kind="stable")
                fits = _split_roots(c, roots[near], noise)[:, 1:]
                assert not np.any(fits & ~_cluster_bound(c, roots[near], noise)), c
                passed += int(fits.sum())
        assert passed >= 500

    def test_bound_admits_arbitrary_passing_groups(self):
        # groups that are not roots of p, at noise levels from 1e-16 to 1, reach
        # the Vieta row's 4^k slack: some pass with |p(mu)| above n_0
        from tensorspec.spectra import _cluster_bound, _split_roots, _taylor

        g = rng(77)
        passed = beyond = 0
        for trial in range(3000):
            p = g.normal(size=int(g.integers(3, 10)))
            n = int(g.integers(2, p.size))
            pts = g.normal() + 10.0 ** g.uniform(-8, -1) * g.normal(size=n)
            if trial % 2:
                pts = pts + 1j * (g.normal() + 10.0 ** g.uniform(-8, -1) * g.normal(size=n))
            pts = pts[np.abs(pts) <= 2.0]
            near = np.argsort(np.abs(pts[:, None] - pts[None, :]), axis=1, kind="stable")
            noise = 10.0 ** g.uniform(-16, 0)
            fits = _split_roots(p, pts[near], noise)[:, 1:]
            assert not np.any(fits & ~_cluster_bound(p, pts[near], noise)), trial
            mu = (np.cumsum(pts[near], axis=-1) / np.arange(1, pts.size + 1))[:, 1:]
            a_0, n_0 = np.abs(_taylor(p, mu)[..., 0]), noise * _taylor(np.ones(p.size), np.abs(mu))[..., 0]
            passed += int(fits.sum())
            beyond += int(np.sum(fits & (a_0 > 1.01 * n_0)))
        assert passed >= 300 and beyond >= 5

    def test_charts_with_fewer_than_two_roots_skip_the_bound(self, monkeypatch):
        from tensorspec import spectra

        sizes, small = [], []
        bound, clusters = spectra._cluster_bound, spectra._root_clusters
        monkeypatch.setattr(spectra, "_cluster_bound", lambda p, groups, noise: (sizes.append(groups.shape[-1]), bound(p, groups, noise))[1])
        monkeypatch.setattr(spectra, "_root_clusters", lambda p, roots, noise: (small.append(roots.size < 2), clusters(p, roots, noise))[1])
        root_line_inputs(monkeypatch, size2_corpus(), scales=(1.0,))
        # the counters are live: some charts keep fewer than two roots, most more
        assert sum(small) >= 20 and len(sizes) >= 200
        assert min(sizes) >= 2

    def test_separated_random_forms_skip_split_roots(self, monkeypatch):
        from tensorspec import spectra

        calls, real = [], spectra._split_roots
        monkeypatch.setattr(spectra, "_split_roots", lambda *args: (calls.append(1), real(*args))[1])
        # the counter is live: all-ones 2^4 has a triple root line for h
        find_eigenpairs(DenseTensor(np.ones((2,) * 4)), 1, "h")
        assert calls
        calls.clear()
        used = 0
        for seed in range(30):
            order = 3 + seed % 3
            arr = rng(4000 + seed).normal(size=(2,) * order)
            a = arr / np.max(np.abs(arr))
            forms = [spectra._binary_form(np.moveaxis(a, m, 0), p) for m in range(order) for p in (1, order - 1)]
            gaps = [np.min(np.abs(np.subtract.outer(r, r)) + np.eye(r.size)) for f in forms for r in (np.roots(f), np.roots(f[::-1]))]
            if min(gaps) < 1e-2:
                continue
            used += 1
            for mode in range(1, order + 1):
                for variant in "zh":
                    find_eigenpairs(DenseTensor(arr), mode, variant)
        assert used >= 20
        assert calls == []


class TestFindEigenpairsIterative:
    def test_symmetric_3x3x3_matches_odeco_truth(self):
        g = rng(42)
        q, _ = np.linalg.qr(g.normal(size=(3, 3)))
        lam = np.array([2.0, -1.5, 0.7])
        arr = np.zeros((3, 3, 3))
        for i in range(3):
            arr += lam[i] * outer(q[:, i], q[:, i], q[:, i]).to_array()
        t = DenseTensor(arr)
        pairs = find_eigenpairs(t, 1, "z", starts=32)
        assert all(p.residual <= 1e-10 for p in pairs)
        for lam_i, v in zip(lam, q.T):
            # each construction vector is an eigenpair; find it up to sign
            assert contains_pair(pairs, lam_i, v, tol=1e-7) or contains_pair(
                pairs, -lam_i, -v, tol=1e-7
            )

    def test_matrix_case_reduces_to_classical(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        t = DenseTensor(a)
        evals = sorted(np.linalg.eigvalsh(a))
        pairs = find_eigenpairs(t, 1, "z")
        got = sorted({round(p.value, 9) for p in pairs})
        assert got == [round(v, 9) for v in evals]

    def test_general_z_records_converge(self):
        g = rng(2008)
        _, a4, a8 = (g.normal(size=(m, m, m)) for m in (3, 4, 8))
        g = rng(2014)
        *_, b4 = (g.normal(size=shape) for shape in ((3, 3, 3), (4, 4, 4), (8, 8, 8), (3, 3, 3, 3)))
        for arr in (a4, a8, b4):
            assert any(p.converged for p in find_eigenpairs(DenseTensor(arr), 1, "z"))

    def test_nonneg_h_power_iteration(self):
        # nonnegative cubical tensor: entrywise-root path finds a positive pair
        g = rng(7)
        t = DenseTensor(g.uniform(0.2, 1.0, size=(3, 3, 3)))
        pairs = find_eigenpairs(t, 1, "h", starts=16)
        pos = [p for p in pairs if p.value > 0 and np.all(p.vector > 0)]
        assert pos and all(p.residual <= 1e-10 for p in pos)


def converged_records(arr, variant):
    t = DenseTensor(arr)
    if variant in ("z", "h"):
        records = find_eigenpairs(t, 1, variant)
    else:
        records = find_singular_tuples(t, 2 if variant == "l2" else arr.ndim)
    return [r for r in records if r.converged]


class TestIterativeScaleEquivariance:
    """The records of s*T are those of T, with lambda and sigma times s."""

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["general", "symmetric", "nonnegative"]),
        variant=st.sampled_from(["z", "h", "l2", "lO"]),
    )
    def test_scaled_copies_keep_their_records(self, data, kind, variant):
        arr = np.array(data.draw(st.lists(ENTRY, min_size=27, max_size=27))).reshape(3, 3, 3)
        arr = {"general": arr, "symmetric": symmetrize(arr), "nonnegative": np.abs(arr)}[kind]
        top = np.max(np.abs(arr))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            base = converged_records(arr, variant)
            # a power of two scales every entry exactly, so the records agree to the bit
            for s in (2.0**27, 2.0**-27, 2.0**500, 2.0**-500):
                scaled = converged_records(arr * s, variant)
                assert len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, top, tol=0.0)
            # a decimal scale moves T / max|T| by an ulp
            for s in (1e8, 1e-8, 1e150, 1e-150):
                scaled = converged_records(arr * s, variant)
                assert len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, top)

    def test_rounding_ties_keep_their_mode_order(self):
        # symmetric up to rounding: a decimal scale moves the slice energies by
        # ulps, which used to reorder the modes and move the records
        for entries in ({6: 0.001, 18: 9.0}, {2: 0.5507208548566966, 17: -3.0, 18: 4.0}):
            arr = np.zeros(27)
            arr[list(entries)] = list(entries.values())
            arr = symmetrize(arr.reshape(3, 3, 3))
            base = converged_records(arr, "l2")
            for s in (1e8, 1e-8, 1e150, 1e-150):
                scaled = converged_records(arr * s, "l2")
                assert len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, np.max(np.abs(arr)))

    def test_general_8x8x8_z_keeps_its_records(self):
        for seed in range(3):
            arr = rng(seed).normal(size=(8, 8, 8))
            base, scaled = converged_records(arr, "z"), converged_records(arr * 1e8, "z")
            assert base and len(scaled) == len(base)
            assert same_scaled_records(base, scaled, 1e8, np.max(np.abs(arr)))

    def test_benchmark_scale_probes(self):
        # the scale probes of bench/workloads.py: symmetric 3^3, l2 at 1e+-200 and z at 1e100
        for seed in range(3):
            arr = random_symmetric(3, seed=400 + seed).to_array()
            top = np.max(np.abs(arr))
            for variant, s in (("l2", 1e200), ("l2", 1e-200), ("z", 1e100)):
                base, scaled = converged_records(arr, variant), converged_records(arr * s, variant)
                assert base and len(scaled) == len(base)
                assert same_scaled_records(base, scaled, s, top)


class TestEigOrbit:
    def test_z_scale_golden(self):
        t = golden_222()
        pair = find_eigenpairs(t, 1, "z")[0]
        scaled = eig_orbit(pair, 2.0, 3, tensor=t)
        assert scaled.value == pytest.approx(2.0 * pair.value, abs=1e-10)
        assert eig_residual(t, scaled) <= 1e-10

    def test_h_scale_invariant_value(self):
        t = golden_222()
        pair = find_eigenpairs(t, 3, "h")[0]
        for s in (-1.0, 2.0, 0.5):
            moved = eig_orbit(pair, s, 3, tensor=t)
            assert moved.value == pair.value
            assert eig_residual(t, moved) <= 1e-9

    def test_identity_scale(self):
        pair = EigenPair("z", 1, 1.5, np.array([1.0, 0.0]), 0.0)
        same = eig_orbit(pair, 1.0, 3)
        assert same.value == pair.value
        assert np.array_equal(same.vector, pair.vector)

    def test_residual_scaling_without_tensor(self):
        pair = EigenPair("z", 1, 1.0, np.array([1.0, 0.0]), 1e-12)
        moved = eig_orbit(pair, 2.0, 3)
        assert moved.residual == pytest.approx(4e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            eig_orbit(EigenPair("z", 1, 1.0, np.ones(2), 0.0), 0.0, 3)

    def test_order_is_read_not_trusted(self):
        t = DenseTensor(rng(3).normal(size=(3, 3, 3)))
        pair = find_eigenpairs(t, 1, "z", starts=4)[0]
        assert eig_orbit(pair, 2.0, np.int64(3)).value == eig_orbit(pair, 2.0, 3).value == 2.0 * pair.value
        # a float is not an order, not even an integral one
        with pytest.raises(TypeError):
            eig_orbit(pair, 2.0, 3.5)
        with pytest.raises(TypeError):
            eig_orbit(pair, 2.0, 3.0)
        with pytest.raises(ValueError, match="order must be >= 2"):
            eig_orbit(pair, 2.0, 1)
        # with the tensor given, the order must be its order
        with pytest.raises(ValueError, match="does not match the tensor order 3"):
            eig_orbit(pair, 2.0, 4, tensor=t)
        assert eig_orbit(pair, 2.0, 3, tensor=t).residual <= 1e-9

    def test_non_finite_scale_rejected(self):
        pair = EigenPair("z", 1, 1.0, np.ones(2), 0.0)
        tup = SingularTuple(2, 1.0, tuple(np.ones(2) for _ in range(3)), 0.0)
        for scale in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="orbit scale must be finite and nonzero"):
                eig_orbit(pair, scale, 3)
            with pytest.raises(ValueError, match="orbit scale must be finite and nonzero"):
                singular_orbit(tup, scale=scale)

    def test_orbit_closure_renormalized(self):
        t = golden_222()
        for pair in find_eigenpairs(t, 3, "z"):
            for s in (-1.0, 2.0, 0.5):
                moved = eig_orbit(pair, s, 3, tensor=t)
                back = eig_orbit(moved, 1.0 / np.linalg.norm(moved.vector), 3, tensor=t)
                assert abs(np.linalg.norm(back.vector) - 1.0) <= 1e-12
                assert eig_residual(t, back) <= 1e-10


class TestSingularResidual:
    def test_classical_svd_pair(self):
        t = DenseTensor(np.diag([2.0, 1.0]))
        e1 = np.array([1.0, 0.0])
        tup = SingularTuple(2, 2.0, (e1, e1), 0.0)
        assert singular_residual(t, tup) == 0.0

    def test_zero_sigma_gives_map_norm(self):
        t = golden_222()
        xs = tuple(np.array([1.0, 0.0]) for _ in range(3))
        tup = SingularTuple(2, 0.0, xs, 0.0)
        assert singular_residual(t, tup) == pytest.approx(2.0, abs=1e-14)

    def test_length_mismatch(self):
        t = golden_222()
        with pytest.raises(ValueError):
            singular_residual(t, SingularTuple(2, 0.0, (np.ones(3), np.ones(2), np.ones(2)), 0.0))

    def test_vector_count_mismatch(self):
        with pytest.raises(ValueError, match=r"^tuple has 2 vectors, tensor has order 3$"):
            singular_residual(golden_222(), SingularTuple(2, 0.0, (np.ones(2), np.ones(2)), 0.0))


def eig_residual_loop(arr, pair):
    """The eigen defect as computed before it read `_eig_system`'s residual."""
    f = contract_all_but_loop(arr, pair.mode, [pair.vector] * (arr.ndim - 1))
    rhs = pair.vector if pair.variant == "z" else pair.vector ** (arr.ndim - 1)
    return float(np.max(np.abs(f - pair.value * rhs)))


def signed_power(v, k):
    return np.sign(v) * np.abs(v) ** k


def singular_residual_loop(arr, tup):
    """The tuple defect ``F_o - sigma sign(x_o)|x_o|^(p-1)``, one loop per mode."""
    worst = 0.0
    for o in range(arr.ndim):
        f = contract_all_but_loop(arr, o + 1, tup.vectors[:o] + tup.vectors[o + 1:])
        worst = max(worst, float(np.max(np.abs(f - tup.sigma * signed_power(tup.vectors[o], tup.p - 1)))))
    return worst


class TestResidualsMatchModeLoop:
    """`eig_residual` and `singular_residual` against the per-mode tensordot loop."""

    def test_eig_residual(self):
        g = rng(40)
        for order in (2, 3, 4, 5):
            arr = g.normal(size=(3,) * order)
            t, tol = DenseTensor(arr), 1e-12 * np.max(np.abs(arr))
            for mode in range(1, order + 1):
                for variant in ("z", "h"):
                    x = g.normal(size=3)
                    pair = EigenPair(variant, mode, g.normal(), x / np.linalg.norm(x), 0.0)
                    for rec in (pair, eig_orbit(pair, 1.7, order), eig_orbit(pair, -0.6, order)):
                        assert abs(eig_residual(t, rec) - eig_residual_loop(arr, rec)) <= tol

    def test_eig_residual_of_solver_records(self):
        for order in (3, 4):
            t = random_symmetric(3, seed=41, order=order)
            arr = t.to_array()
            for pair in find_eigenpairs(t, 1, "z", starts=8):
                moved = eig_orbit(pair, -2.0, order, tensor=t)
                assert abs(moved.residual - eig_residual_loop(arr, moved)) <= 1e-12 * np.max(np.abs(arr))

    def test_singular_residual(self):
        g = rng(42)
        for shape in [(3, 4), (2, 3, 4), (3, 2, 2, 3), (2, 3, 2, 2, 3)]:
            arr = g.normal(size=shape)
            t, tol = DenseTensor(arr), 1e-12 * np.max(np.abs(arr))
            for p in (2, len(shape)):
                xs = [g.normal(size=d) for d in shape]
                tup = SingularTuple(p, g.normal(), tuple(x / np.linalg.norm(x, p) for x in xs), 0.0)
                for rec in (tup, singular_orbit(tup, scale=1.3), singular_orbit(tup, scale=-0.8)):
                    assert abs(singular_residual(t, rec) - singular_residual_loop(arr, rec)) <= tol


class TestStarts:
    def test_order_svd_then_coordinates_then_draws(self):
        from tensorspec.contract import _mode_unfolding
        from tensorspec.spectra import _starts

        arr = rng(43).normal(size=(3, 4, 5))
        blocks = _starts(arr, [1, 2, 3], 9, seed=6)
        assert [b.shape for b in blocks] == [(3, 9), (4, 9), (5, 9)]
        g = np.random.default_rng(6)
        draws = [[g.normal(size=d) for d in arr.shape] for _ in range(3)]
        for o, b in enumerate(blocks):
            u = np.linalg.svd(_mode_unfolding(arr, o + 1), full_matrices=False)[0]
            assert np.allclose(b[:, :3], u[:, :3], atol=1e-15)
            assert np.array_equal(b[:, 3:6], np.eye(arr.shape[o], 3))
            for k, w in enumerate(draws):
                assert np.allclose(b[:, 6 + k], w[o] / np.linalg.norm(w[o]), atol=1e-15)
            assert np.allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-15)

    def test_truncation_at_count(self):
        from tensorspec.spectra import _starts

        arr = rng(44).normal(size=(4, 4, 4))
        full = _starts(arr, [2], 12, seed=3)[0]
        assert full.shape == (4, 12)
        for count in (1, 3, 4, 6, 8, 9):
            part = _starts(arr, [2], count, seed=3)[0]
            assert np.array_equal(part, full[:, :count])
        # the svd columns fill short blocks first
        assert np.array_equal(_starts(arr, [1, 3], 2, seed=3)[1], _starts(arr, [1, 3], 5, seed=3)[1][:, :2])

    def test_one_draw_matches_per_column_loop(self):
        from tensorspec.spectra import _starts

        g = rng(45)
        for shape in [(3, 3, 3), (8, 8, 8), (5, 6, 7), (4, 4, 4, 4), (3, 3, 3, 3, 3)]:
            arr = g.normal(size=shape)
            order = len(shape)
            # an eigen call takes one mode, a tuple call every mode
            for modes in ([order], [2], list(range(1, order + 1))):
                r = min(shape[o - 1] for o in modes)
                # below 2R (no draws), at it, and above it
                for count in (1, r, 2 * r, 2 * r + 1, 64):
                    for seed in (0, 1, 7, 2024):
                        got = _starts(arr, modes, count, seed)
                        want = starts_loop(arr, modes, count, seed)
                        assert len(got) == len(want) == len(modes)
                        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestFindSingularTuples:
    def test_matrix_svd(self):
        t = DenseTensor(np.diag([2.0, 1.0]))
        tuples = find_singular_tuples(t, 2)
        sigmas = sorted(round(abs(x.sigma), 9) for x in tuples)
        assert 2.0 in sigmas and 1.0 in sigmas
        top = tuples[0]
        assert abs(top.sigma) == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(np.abs(top.vectors[0]) - [1.0, 0.0])) <= 1e-8

    def test_odeco_axis_case(self):
        t = 2.0 * outer(*[np.array([1.0, 0.0])] * 3) + outer(*[np.array([0.0, 1.0])] * 3)
        tuples = find_singular_tuples(t, 2)
        top = tuples[0].with_nonnegative_sigma()
        assert top.sigma == pytest.approx(2.0, abs=1e-10)
        for v in top.vectors:
            assert np.max(np.abs(np.abs(v) - [1.0, 0.0])) <= 1e-8

    def test_golden_sigma_max_vs_grid_oracle(self):
        # oracle: dense 3-angle grid maximizing |<T, x1 o x2 o x3>|
        t = golden_222()
        arr = t.to_array()
        best = 0.0
        angles = np.linspace(0.0, np.pi, 40, endpoint=False)
        for a in angles:
            x1 = np.array([np.cos(a), np.sin(a)])
            m1 = np.tensordot(arr, x1, axes=(0, 0))
            for b in angles:
                x2 = np.array([np.cos(b), np.sin(b)])
                m2 = m1.T @ x2
                # maximizing over the third unit vector gives its norm
                best = max(best, float(np.linalg.norm(m2)))
        tuples = find_singular_tuples(t, 2)
        sigma_max = max(abs(x.sigma) for x in tuples)
        assert sigma_max >= best - 1e-6
        assert sigma_max == pytest.approx(2.0 * SQ5, abs=1e-8)
        assert sigma_max >= abs(3 * SQ2) and sigma_max >= abs(9 / SQ5)

    def test_lO_order2_matches_l2(self):
        t = DenseTensor(np.diag([2.0, 1.0]))
        tuples = find_singular_tuples(t, 2)
        tuples_o = find_singular_tuples(t, t.order)
        s2 = sorted(round(abs(x.sigma), 8) for x in tuples)
        so = sorted(round(abs(x.sigma), 8) for x in tuples_o)
        assert s2 == so

    def test_lO_order3_residuals(self):
        t = golden_222()
        tuples = find_singular_tuples(t, 3)
        assert tuples
        for tup in tuples:
            assert tup.residual <= 1e-10
            for v in tup.vectors:
                assert np.sum(np.abs(v) ** 3) == pytest.approx(1.0, abs=1e-9)

    def test_lO_odd_order_no_flip_duplicates(self):
        for t in (golden_222(), DenseTensor(rng(60).normal(size=(3, 3, 3))), random_symmetric(3, seed=61)):
            tuples = find_singular_tuples(t, 3)
            for i, a in enumerate(tuples):
                for b in tuples[i + 1:]:
                    for mask in itertools.product((False, True), repeat=3):
                        f = singular_orbit(a, flip=mask)
                        assert abs(f.sigma - b.sigma) > 1e-8 * max(1.0, abs(b.sigma)) or any(
                            np.max(np.abs(u - w)) > 1e-8 for u, w in zip(f.vectors, b.vectors)
                        )

    def test_lO_odd_order_solves_signed_equation(self):
        # F_o = sigma sign(x_o) |x_o|^2 with unit l3 norms (Lim 2005), each F_o one einsum
        for shape in [(3, 3, 3), (4, 4, 4), (5, 6, 7)]:
            for seed in range(3):
                arr = rng(70 + seed).normal(size=shape)
                good = [tup for tup in find_singular_tuples(DenseTensor(arr), 3) if tup.converged]
                assert good
                for tup in good:
                    x, y, z = tup.vectors
                    fs = [np.einsum("ijk,j,k->i", arr, y, z), np.einsum("ijk,i,k->j", arr, x, z), np.einsum("ijk,i,j->k", arr, x, y)]
                    for f, v in zip(fs, tup.vectors):
                        assert np.max(np.abs(f - tup.sigma * signed_power(v, 2))) <= 1e-8 * np.max(np.abs(arr))
                        assert np.sum(np.abs(v) ** 3) == pytest.approx(1.0, abs=1e-9)

    def test_zero_tensor_has_no_tuples(self):
        for dims in ([2, 2, 2], [3, 3, 3], [3, 4]):
            for p in (2, len(dims)):
                with pytest.warns(UserWarning, match="not isolated"):
                    assert find_singular_tuples(DenseTensor.zeros(dims), p) == []

    def test_sigma_is_norm_proxy(self):
        t = golden_222()
        sigma_max = max(abs(x.sigma) for x in find_singular_tuples(t, 2))
        g = rng(11)
        arr = t.to_array()
        for _ in range(1000):
            xs = [g.normal(size=2) for _ in range(3)]
            xs = [x / np.linalg.norm(x) for x in xs]
            val = float(np.einsum("abc,a,b,c->", arr, *xs))
            assert sigma_max >= abs(val) - 1e-9

    def test_no_more_records_than_generic_tuple_count(self):
        # Friedland & Ottaviani (2014): a generic tensor has 6 (2x2x2), 24 (2^4)
        # and 37 (3^3) complex l2 singular tuples, counted projectively; each
        # record is one sign-gauge class, so one of them
        for dims, count in [((2, 2, 2), 6), ((2, 2, 2, 2), 24), ((3, 3, 3), 37)]:
            for seed in range(5):
                t = DenseTensor(rng(120 + seed).normal(size=dims))
                found = set()
                for run_seed in range(3):
                    good = [tup for tup in find_singular_tuples(t, 2, seed=run_seed, starts=64) if tup.converged]
                    assert len(good) <= count
                    for tup in good:
                        # the projective class: each vector signed so its largest entry is positive
                        signed = [v * np.sign(v[np.argmax(np.abs(v))]) for v in tup.vectors]
                        found.add(tuple(np.round(np.concatenate(signed), 6)))
                assert 1 <= len(found) <= count

    def test_p_validation(self):
        with pytest.raises(ValueError):
            find_singular_tuples(golden_222(), 4)

    def test_order1_rejected(self):
        for p in (1, 2):
            with pytest.raises(ValueError, match="order >= 2"):
                find_singular_tuples(DenseTensor([1.0, 2.0, 3.0]), p)


class TestSingularOrbit:
    def test_flip_one_negates_sigma(self):
        t = golden_222()
        tup = find_singular_tuples(t, 2)[0]
        flipped = singular_orbit(tup, flip=(True, False, False), tensor=t)
        assert flipped.sigma == pytest.approx(-tup.sigma, abs=1e-12)
        assert flipped.residual <= 1e-10

    def test_flip_two_preserves_sigma(self):
        t = golden_222()
        tup = find_singular_tuples(t, 2)[0]
        flipped = singular_orbit(tup, flip=(True, True, False), tensor=t)
        assert flipped.sigma == pytest.approx(tup.sigma, abs=1e-12)
        assert flipped.residual <= 1e-10

    def test_scale_l2(self):
        t = golden_222()
        tup = find_singular_tuples(t, 2)[0]
        moved = singular_orbit(tup, scale=5.0, tensor=t)
        assert moved.sigma == pytest.approx(5.0 * tup.sigma, abs=1e-8)
        assert moved.residual <= 5.0 ** 2 * max(tup.residual, 1e-12)

    def test_scale_lO_sigma_unchanged(self):
        t = golden_222()
        tup = find_singular_tuples(t, 3)[0]
        moved = singular_orbit(tup, scale=5.0, tensor=t)
        assert moved.sigma == tup.sigma

    def test_lO_odd_flip_is_a_record(self):
        arr = rng(80).normal(size=(3, 3, 3))
        t = DenseTensor(arr)
        tup = next(r for r in find_singular_tuples(t, 3) if r.converged)
        for o in range(3):
            flipped = singular_orbit(tup, flip=[k == o for k in range(3)], tensor=t)
            assert flipped.sigma == -tup.sigma
            assert flipped.residual == singular_residual(t, tup) <= 1e-10 * np.max(np.abs(arr))

    def test_lO_negative_scale_is_the_full_flip(self):
        # phi is odd, so t = -1 negates sigma at odd order, as flipping all three modes does
        arr = rng(80).normal(size=(3, 3, 3))
        t = DenseTensor(arr)
        tup = next(r for r in find_singular_tuples(t, 3) if r.converged)
        residual = singular_residual(t, tup)
        moved = singular_orbit(tup, scale=-1.0, tensor=t)
        flipped = singular_orbit(tup, flip=(True, True, True), tensor=t)
        assert moved.sigma == flipped.sigma == -tup.sigma
        assert all(np.array_equal(a, b) for a, b in zip(moved.vectors, flipped.vectors))
        assert moved.residual == flipped.residual == residual <= 1e-10 * np.max(np.abs(arr))
        # a power of two scales the residual exactly, by |t|^(O-1)
        far = singular_orbit(tup, scale=-2.0, tensor=t)
        assert far.sigma == -tup.sigma
        assert far.residual == 4.0 * residual

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dims=st.lists(st.integers(2, 4), min_size=3, max_size=3), p=st.sampled_from([2, 3]))
    def test_single_mode_flips_are_records(self, data, dims, p):
        arr = np.array(data.draw(st.lists(ENTRY, min_size=math.prod(dims), max_size=math.prod(dims)))).reshape(dims)
        t = DenseTensor(arr)
        with warnings.catch_warnings():
            # a drawn zero tensor warns that its tuples are not isolated
            warnings.filterwarnings("ignore", "the solutions form a continuous family", UserWarning)
            tuples = find_singular_tuples(t, p, starts=8)
        for tup in tuples:
            if not tup.converged:
                continue
            residual = singular_residual(t, tup)
            assert residual <= 1e-9 * np.max(np.abs(arr))
            for o in range(3):
                flipped = singular_orbit(tup, flip=[k == o for k in range(3)], tensor=t)
                assert flipped.sigma == -tup.sigma
                assert flipped.residual == residual

    def test_argument_validation(self):
        tup = SingularTuple(2, 1.0, tuple(np.ones(2) for _ in range(3)), 0.0)
        with pytest.raises(ValueError):
            singular_orbit(tup)
        with pytest.raises(ValueError):
            singular_orbit(tup, scale=2.0, flip=(True, False, False))
        with pytest.raises(ValueError):
            singular_orbit(tup, scale=0.0)
        with pytest.raises(ValueError):
            singular_orbit(tup, flip=(True,))


class TestBestRankOne:
    def test_elementary(self):
        g = rng(12)
        u1 = g.normal(size=3)
        u1 /= np.linalg.norm(u1)
        u2 = g.normal(size=4)
        u2 /= np.linalg.norm(u2)
        t = 3.0 * outer(u1, u2)
        res = best_rank_one(t)
        assert res.sigma == pytest.approx(3.0, abs=1e-8)
        assert res.error <= 1e-8

    def test_diag(self):
        res = best_rank_one(DenseTensor(np.diag([2.0, 1.0])))
        assert res.sigma == pytest.approx(2.0, abs=1e-10)
        assert res.error == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_zero_tensor(self):
        res = best_rank_one(DenseTensor.zeros([2, 2, 2]))
        assert res.sigma == 0.0
        for v in res.vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0)

    @pytest.mark.parametrize("arr", [np.zeros((2, 2, 2)), np.ones((2, 2, 2))], ids=["zero", "ones"])
    @pytest.mark.parametrize("opts, error", [
        ({"tol": -1.0}, ValueError),
        ({"starts": 0}, ValueError),
        ({"bogus": 1}, TypeError),
    ])
    def test_zero_tensor_checks_its_options(self, arr, opts, error):
        # the zero tensor used to return before any check
        with pytest.raises(error):
            best_rank_one(DenseTensor(arr), **opts)

    @pytest.mark.parametrize("arr", [np.zeros(3), np.ones(3)], ids=["zero", "ones"])
    def test_order1_rejected(self, arr):
        with pytest.raises(ValueError, match="order >= 2"):
            best_rank_one(arr)

    def test_symmetric_matches_max_abs_eigenvalue(self):
        for seed in range(5):
            t = random_symmetric(3, seed=100 + seed)
            res = best_rank_one(t, starts=32)
            pairs = find_eigenpairs(t, 1, "z", starts=32)
            lam_max = max(abs(p.value) for p in pairs)
            assert res.sigma == pytest.approx(lam_max, abs=1e-6)

    def test_error_of_tiny_and_huge_entries(self):
        # the error used to read inf, with an overflow warning, at 1e200
        arr = rng(0).normal(size=(3, 3, 3))
        base = best_rank_one(DenseTensor(arr))
        for c in (1e-200, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = best_rank_one(DenseTensor(c * arr))
            assert math.isfinite(res.error)
            assert res.error == pytest.approx(c * base.error, rel=1e-12, abs=0.0)


class TestBridge:
    def test_symmetric_every_pair_bridges(self):
        t = random_symmetric(3, seed=200)
        pairs = find_eigenpairs(t, 1, "z", starts=32)
        for p in pairs:
            res = eig_singular_bridge(t, p)
            assert res.ok
            assert res.tuple.sigma == pytest.approx(abs(p.value), abs=1e-10)
            assert res.tuple.residual <= 1e-10
            assert singular_residual(t, res.tuple) <= 1e-10

    def test_golden_mode1_fails(self):
        t = golden_222()
        pair = next(
            p for p in find_eigenpairs(t, 1, "z") if abs(p.value - 3 * SQ2) <= 1e-8
        )
        res = eig_singular_bridge(t, pair)
        assert not res.ok
        assert res.status == "mode_mismatch"
        assert res.tuple is None
        # modes 1 and 2 agree, mode 3 does not
        assert res.per_mode_residuals[0] <= 1e-10
        assert res.per_mode_residuals[1] <= 1e-10
        assert res.per_mode_residuals[2] > 1e-6

    def test_matrix_eigenpair_becomes_singular_pair(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        t = DenseTensor(a)
        pair = find_eigenpairs(t, 1, "z")[0]
        res = eig_singular_bridge(t, pair)
        assert res.ok
        svals = np.linalg.svd(a, compute_uv=False)
        assert res.tuple.sigma == pytest.approx(svals[0], abs=1e-8)

    def test_negative_eigenvalue_sign_arrangement(self):
        t = random_symmetric(3, seed=201)
        pairs = find_eigenpairs(t, 1, "z", starts=32)
        neg = [p for p in pairs if p.value < -1e-6]
        if neg:
            res = eig_singular_bridge(t, neg[0])
            assert res.ok and res.tuple.sigma > 0

    def test_h_pair_rejected(self):
        with pytest.raises(ValueError):
            eig_singular_bridge(golden_222(), EigenPair("h", 1, 6.0, np.ones(2), 0.0))

    def test_bad_tol_rejected(self):
        t = DenseTensor(rng(205).normal(size=(3, 3, 3)))
        pair = EigenPair("z", 1, 5.0, np.eye(3)[0], 0.0)
        # a NaN tol used to pass this pair, whose per-mode residuals are of order 1
        assert min(eig_singular_bridge(t, pair).per_mode_residuals) > 1.0
        for tol in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                eig_singular_bridge(t, pair, tol=tol)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match=r"^eigenvector must be nonzero$"):
            eig_singular_bridge(golden_222(), EigenPair("z", 1, 0.0, np.zeros(2), 0.0))

    # tol is relative to max|T|, like the solvers' gate, so a scale decides nothing
    def test_huge_symmetric_pairs_bridge(self):
        arr = random_symmetric(3, seed=200).to_array()
        for c in (1.0, 1e8):
            t = DenseTensor(c * arr)
            pairs = [p for p in find_eigenpairs(t, 1, "z") if p.converged]
            assert len(pairs) == 8
            assert all(eig_singular_bridge(t, p).ok for p in pairs)

    def test_tiny_non_eigenvector_rejected(self):
        arr = rng(5).normal(size=(3, 3, 3))
        e1 = EigenPair("z", 1, 0.0, np.eye(3)[0], 0.0)
        for c in (1.0, 1e-12):
            res = eig_singular_bridge(DenseTensor(c * arr), e1)
            assert res.status == "mode_mismatch" and res.tuple is None


def same_eigen_bits(got, want, mode):
    """``got`` is ``want`` record by record, bit for bit, with every mode read as ``mode``."""
    return len(got) == len(want) and all(same_record(a, replace_mode(b, mode)) for a, b in zip(got, want))


def same_tuple_bits(got, want, axes):
    """``got``, solved on ``arr.transpose(axes)``, is ``want``, solved on ``arr``, with the vectors relabeled, bit for bit."""
    return len(got) == len(want) and all(
        (a.p, a.sigma, a.residual, a.converged) == (b.p, b.sigma, b.residual, b.converged)
        and all(u.tobytes() == b.vectors[k].tobytes() for u, k in zip(a.vectors, axes))
        for a, b in zip(got, want)
    )


def swap_axes(order, o):
    """The axes of ``swap(T, 1, o)``: modes 1 and ``o`` exchanged."""
    axes = np.arange(order)
    axes[[0, o - 1]] = axes[[o - 1, 0]]
    return axes


class TestModeSymmetryInvariant:
    """Relabeling the modes relabels the records, bit for bit (PAPER.md's mode identity).

    For a mode permutation ``axes``, mode ``o`` of ``T`` is mode ``k + 1`` of
    ``T.transpose(axes)`` where ``axes[k] = o - 1``; its eigenpairs are those
    of mode ``o`` of ``T``, and singular tuple vector ``k`` is vector
    ``axes[k]`` of ``T``'s.  Each class runs a random permutation per solve
    and, the paper's case, ``swap(T, 1, o)``.
    """

    EIGEN = {
        "gen2^3": lambda g: g.normal(size=(2, 2, 2)),
        "gen3^3": lambda g: g.normal(size=(3, 3, 3)),
        "gen5^3": lambda g: g.normal(size=(5, 5, 5)),
        "gen4^4": lambda g: g.normal(size=(4, 4, 4, 4)),
        "nonneg4^3": lambda g: np.abs(g.normal(size=(4, 4, 4))),
    }
    TUPLES = {
        "gen4^4": lambda g: g.normal(size=(4, 4, 4, 4)),
        "gen5^3": lambda g: g.normal(size=(5, 5, 5)),
        "gen3x4x4": lambda g: g.normal(size=(3, 4, 4)),
        # 3x4x5 given out of size order
        "gen5x3x4": lambda g: g.normal(size=(5, 3, 4)),
    }

    @pytest.mark.parametrize("name", list(EIGEN))
    def test_eigenpairs_follow_relabeling(self, name):
        compared = 0
        for seed in range(7):
            g = rng(500 + seed)
            arr = self.EIGEN[name](g)
            order = arr.ndim
            for mode in range(1, order + 1):
                perms = [g.permutation(order)] + ([swap_axes(order, mode)] if mode > 1 else [])
                for variant in ("z", "h"):
                    want = find_eigenpairs(arr, mode, variant)
                    for axes in perms:
                        k = int(np.flatnonzero(axes == mode - 1)[0]) + 1
                        assert same_eigen_bits(find_eigenpairs(np.transpose(arr, axes), k, variant), want, k)
                        compared += 1
        # 378 calls over the five classes
        assert compared == 7 * 2 * (2 * order - 1)

    @pytest.mark.parametrize("name", list(TUPLES))
    def test_tuples_follow_relabeling(self, name):
        compared = 0
        for seed in range(6):
            g = rng(510 + seed)
            arr = self.TUPLES[name](g)
            order = arr.ndim
            for p in (2, order):
                want = find_singular_tuples(arr, p)
                for axes in (g.permutation(order), swap_axes(order, 2 + seed % (order - 1))):
                    assert same_tuple_bits(find_singular_tuples(np.transpose(arr, axes), p), want, axes)
                    compared += 1
        # 96 calls over the four classes
        assert compared == 24

    def test_swap_invariant_tensor_same_pairs(self):
        # the golden tensor is invariant under swapping modes 1 and 2
        t = golden_222()
        for variant in ("z", "h"):
            p1 = find_eigenpairs(t, 1, variant)
            assert p1 and same_eigen_bits(find_eigenpairs(t, 2, variant), p1, 2)

    def test_h_rescaled_residual(self):
        t = golden_222()
        pair = find_eigenpairs(t, 1, "h")[0]
        for s in (2.0, -3.0):
            moved = eig_orbit(pair, s, 3, tensor=t)
            # renormalize and confirm the record still solves the equation
            back = eig_orbit(moved, 1.0 / np.linalg.norm(moved.vector), 3, tensor=t)
            assert eig_residual(t, back) <= 1e-10


# -- batched solvers against the per-start loop -----------------------------------


def reference_eig_iterative(arr, mode, variant, starts=32, seed=0, max_iters=500, tol=1e-10):
    """The per-start solve, one start at a time with a finite-difference Newton.

    Kept as the reference for the batched solver: same starts, maps, stopping
    rules and line search, without the sign partners the batched solver adds.
    """
    from tensorspec.contract import _mode_unfolding
    from tensorspec.tensor import is_symmetric

    order, m = arr.ndim, arr.shape[0]
    power = 1 if variant == "z" else order - 1

    def F(x):
        return contract_all_but_loop(arr, mode, [x] * (order - 1))

    def polish(x0, lam0):
        def G(v):
            return np.concatenate([F(v[:m]) - v[m] * v[:m] ** power, [v[:m] @ v[:m] - 1.0]])

        v = np.concatenate([x0, [lam0]])
        gv = G(v)
        for _ in range(50):
            if np.max(np.abs(gv)) <= 1e-13 * (1.0 + np.max(np.abs(arr))):
                break
            jac = np.empty((m + 1, m + 1))
            for j in range(m + 1):
                dv = np.zeros(m + 1)
                dv[j] = 1e-7
                jac[:, j] = (G(v + dv) - G(v - dv)) / 2e-7
            step = np.linalg.lstsq(jac, -gv, rcond=None)[0]
            for k in range(20):
                cand = v + 0.5**k * step
                if np.linalg.norm(G(cand)) < np.linalg.norm(gv):
                    v, gv = cand, G(cand)
                    break
            else:
                break
        return v[:m], v[m]

    def sweep(x, step_map, root):
        for _ in range(max_iters):
            y = step_map(x)
            if root and np.any(y < 0.0):
                break
            y = y ** (1.0 / (order - 1)) if root else y
            nrm = np.linalg.norm(y)
            if nrm == 0.0:
                break
            y = y / nrm
            if min(np.linalg.norm(y - x), np.linalg.norm(y + x)) <= 1e-14:
                return y
            x = y
        return x

    u = np.linalg.svd(_mode_unfolding(arr, mode), full_matrices=False)[0]
    seeds = [u[:, r] for r in range(u.shape[1])]
    seeds += [np.eye(m)[:, r] for r in range(m)]
    g = np.random.default_rng(seed)
    while len(seeds) < starts:
        v = g.normal(size=m)
        seeds.append(v / np.linalg.norm(v))
    shift = 1.0 + np.sum(np.abs(arr))
    pairs = []
    for x0 in seeds[:starts]:
        if variant == "z":
            assert is_symmetric(DenseTensor(arr), tol=1e-12)
            ends = [sweep(x0, lambda x: F(x) + shift * x, False), sweep(x0, lambda x: shift * x - F(x), False)]
            polished = [polish(x, F(x) @ x) for x in ends]
        else:
            assert np.all(arr >= 0)
            x = sweep(np.abs(x0), F, True)
            w = x ** power
            x, _ = polish(x, F(x) @ w / (w @ w))
            x = x / np.linalg.norm(x)
            w = x ** power
            polished = [(x, F(x) @ w / (w @ w))]
        for x, lam in polished:
            res = float(np.max(np.abs(F(x) - lam * x ** power)))
            pairs.append(EigenPair(variant, mode, lam, x, res, converged=res <= tol))
    return finish_loop([p for p in pairs if p.converged], lambda p: (p.value, p.vector))


def same_records(a, b, tol=1e-8):
    return all(
        any(abs(p.value - q.value) <= tol * max(1.0, abs(q.value)) and np.max(np.abs(p.vector - q.vector)) <= tol for q in b)
        for p in a
    )


class TestBatchedSolvers:
    def test_matches_per_start_reference(self):
        cases = [(random_symmetric(3, seed=300), "z"), (random_symmetric(4, seed=301, order=4), "z")]
        cases.append((DenseTensor(np.abs(rng(302).normal(size=(3, 3, 3)))), "h"))
        cases.append((DenseTensor(rng(303).uniform(0.0, 1.0, size=(4, 4, 4))), "h"))
        for t, variant in cases:
            arr = t.to_array()
            ref = reference_eig_iterative(arr, 1, variant, starts=16)
            want = ref + [eig_orbit(p, -1.0, arr.ndim) for p in ref]
            got = find_eigenpairs(t, 1, variant, starts=16)
            assert ref and all(p.converged for p in got)
            assert same_records(want, got) and same_records(got, want)

    def test_eig_jacobian_matches_central_differences(self):
        from tensorspec.spectra import _eig_system

        g = rng(310)
        for shape, mode, power in [((3, 3, 3), 2, 1), ((3, 3, 3), 1, 2), ((4, 4, 4, 4), 3, 1), ((3, 3, 3, 3), 4, 3)]:
            residual, jacobian = _eig_system(np.moveaxis(g.normal(size=shape), mode - 1, 0), power)
            v = g.normal(size=(shape[0] + 1, 3))
            assert_jacobian(residual, jacobian, v)

    def test_tuple_jacobian_matches_central_differences(self):
        from tensorspec.spectra import _tuple_system

        g = rng(311)
        for shape, p in [((2, 3, 4), 2), ((3, 3, 3), 3), ((2, 3, 2, 3), 2), ((3, 2, 3, 2), 4), ((4, 5), 2)]:
            residual, jacobian = _tuple_system(g.normal(size=shape), p)
            # the square layout: one sigma per mode
            v = g.normal(size=(sum(shape) + len(shape), 3))
            assert_jacobian(residual, jacobian, v)

    def test_column_does_not_depend_on_its_batch(self):
        from tensorspec.contract import _contract_all_but_batch, _contract_plan, _power_sweeps
        from tensorspec.spectra import _damped_newton, _eig_system

        arr = random_symmetric(4, seed=320, order=4).to_array()
        x0 = rng(321).normal(size=(4, 24))
        x0 /= np.linalg.norm(x0, axis=0)
        sign = np.tile([1.0, -1.0], 12)

        def solve(cols):
            # the shifted symmetric maps, as find_eigenpairs runs them
            def update(k, cur, c):
                return sign[cols][c] * _contract_all_but_batch(_contract_plan(arr, (1,)), cur[0]) + 10.0 * cur[0]

            (x,), status = _power_sweeps(update, [x0[:, cols]], 2, 1e-14, 500)
            lam = np.sum(_contract_all_but_batch(_contract_plan(arr, (1,)), x) * x, axis=0)
            v = _damped_newton(*_eig_system(arr, 1), np.vstack([x, lam]))
            return v, status

        everything, status = solve(np.arange(24))
        for cols in ([5], [0, 7, 19], list(range(1, 24, 2))):
            part, part_status = solve(np.array(cols))
            assert np.array_equal(part_status, status[cols])
            assert np.max(np.abs(part - everything[:, cols])) <= 1e-12

        # plain Newton from the raw starts on general h input, where the line search halves
        residual, jacobian = _eig_system(rng(322).normal(size=(4, 4, 4)), 2)
        v0 = np.vstack([x0, np.ones(24)])
        everything = _damped_newton(residual, jacobian, v0)
        calls = []
        damped_newton_loop(counted(residual, calls), jacobian, v0)
        assert any(c < 24 for c in calls[1:])
        for cols in ([5], [0, 7, 19], list(range(1, 24, 2))):
            part = _damped_newton(residual, jacobian, v0[:, cols])
            assert np.max(np.abs(part - everything[:, cols])) <= 1e-12

    def test_newton_ladder_matches_halving_loop(self):
        from tensorspec.spectra import _damped_newton, _eig_system, _fit_scale, _phi, _tuple_system

        g = rng(350)
        systems = []
        for shape, power in [((3, 3, 3), 1), ((3, 3, 3), 2), ((4, 4, 4, 4), 1), ((4, 4, 4, 4), 3), ((8, 8, 8), 2)]:
            arr = g.normal(size=shape)
            x = g.normal(size=(shape[0], 12))
            x /= np.linalg.norm(x, axis=0)
            v = np.vstack([x, _fit_scale(eig_map_loop(arr, x), x**power)])
            # at x = 0 the step is zero, so all 20 halvings fail; then a NaN
            # column and one whose residual overflows
            v[:, 0] = 0.0
            v[-1, 0] = 1.0
            v[0, 1] = np.nan
            v[0, 2] = 1e200
            systems.append((_eig_system(arr, power), v, [0, 1, 2]))
        for shape in [(3, 3, 3), (5, 6, 7), (3, 4, 2, 3)]:
            arr = g.normal(size=shape)
            for p in (2, len(shape)):
                xs = [g.normal(size=(d, 12)) for d in shape]
                xs = [x / np.sum(np.abs(x) ** p, axis=0) ** (1 / p) for x in xs]
                sigmas = [_fit_scale(f, _phi(x, p - 1)) for f, x in zip(tuple_maps_loop(arr, xs), xs)]
                systems.append((_tuple_system(arr, p), np.vstack(xs + sigmas), []))
        solved = 0
        for (residual, jacobian), v, stuck in systems:
            with np.errstate(over="ignore", invalid="ignore"):
                got = _damped_newton(residual, jacobian, v)
                want = damped_newton_loop(residual, jacobian, v)
                converged = [np.max(np.abs(residual(w)), axis=0) <= 1e-13 for w in (got, want)]
            # a column that does not converge can wander for 50 iterations, and
            # the rounding of the batched residual moves where it stops
            assert np.array_equal(*converged)
            assert np.max(np.abs(got - want)[:, converged[0]], initial=0.0) <= 1e-12
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(got[:, stuck], v[:, stuck], equal_nan=True)
            solved += converged[0].sum()
        assert solved >= 50

    def test_one_residual_call_per_newton_iteration(self):
        from tensorspec.spectra import _damped_newton, _eig_system, _fit_scale, _starts

        arr = rng(360).normal(size=(8, 8, 8))
        arr /= np.max(np.abs(arr))
        [x] = _starts(arr, [1], 32, 1)
        residual, jacobian = _eig_system(arr, 2)
        v = np.vstack([x, _fit_scale(eig_map_loop(arr, x), x**2)])
        counts = {}
        for newton in (_damped_newton, damped_newton_loop):
            res_calls, jac_calls = [], []
            newton(counted(residual, res_calls), counted(jacobian, jac_calls), v)
            counts[newton] = len(res_calls), len(jac_calls)
        # the halving loop makes many residual calls per iteration on this input
        calls, iters = counts[damped_newton_loop]
        assert calls > 5 * iters
        calls, iters = counts[_damped_newton]
        assert iters > 5 and calls <= iters + 1

    def test_square_systems_step_by_lu(self, monkeypatch):
        from tensorspec.spectra import _damped_newton, _eig_system, _fit_scale, _starts

        arr = rng(370).normal(size=(8, 8, 8))
        arr /= np.max(np.abs(arr))
        for power in (1, 2):
            [x] = _starts(arr, [1], 32, 1)
            v = np.vstack([x, _fit_scale(eig_map_loop(arr, x), x**power)])
            with monkeypatch.context() as patch:
                calls = count_linalg(patch)
                got = _damped_newton(*_eig_system(arr, power), v)
            assert not calls["svd"] and len(calls["solve"]) > 5
            assert all(dims[1:] == (9, 9) for dims in calls["solve"])
            assert np.max(np.abs(got - v)) > 0.0

    def test_tuple_systems_step_by_lu(self, monkeypatch):
        from tensorspec.spectra import _damped_newton, _fit_scale, _phi, _starts, _tuple_system

        for shape in [(3, 3, 3), (5, 6, 7), (3, 4, 2, 3)]:
            arr = rng(371).normal(size=shape)
            arr /= np.max(np.abs(arr))
            n = sum(shape) + len(shape)
            for p in (2, len(shape)):
                xs = _starts(arr, range(1, len(shape) + 1), 12, 2)
                xs = [x / np.sum(np.abs(x) ** p, axis=0) ** (1 / p) for x in xs]
                sigmas = [_fit_scale(f, _phi(x, p - 1)) for f, x in zip(tuple_maps_loop(arr, xs), xs)]
                with monkeypatch.context() as patch:
                    calls = count_linalg(patch)
                    _damped_newton(*_tuple_system(arr, p), np.vstack(xs + sigmas))
                assert not calls["svd"] and calls["solve"]
                assert all(dims[1:] == (n, n) for dims in calls["solve"])

    def test_every_lstsq_batch_is_square(self, monkeypatch):
        from tensorspec import decomp, spectra
        from tensorspec.contract import _lstsq
        from tensorspec.decomp import cp_als

        shapes = []

        def lstsq(a, b):
            shapes.append(a.shape)
            return _lstsq(a, b)

        monkeypatch.setattr(spectra, "_lstsq", lstsq)
        monkeypatch.setattr(decomp, "_lstsq", lstsq)
        g = rng(373)
        calls = [
            lambda: find_singular_tuples(DenseTensor(g.normal(size=(5, 6, 7))), 2),
            lambda: find_singular_tuples(DenseTensor(g.normal(size=(5, 6, 7))), 3),
            lambda: find_singular_tuples(random_symmetric(4, seed=374, order=4), 2),
            # an input whose lO sweeps leave starts to Newton (from some inputs every start converges there)
            lambda: find_singular_tuples(DenseTensor(rng(378).normal(size=(3, 4, 2, 3))), 4),
            lambda: find_eigenpairs(DenseTensor(g.normal(size=(4, 4, 4))), 1, "z"),
            lambda: find_eigenpairs(DenseTensor(g.normal(size=(4, 4, 4))), 2, "h"),
            lambda: cp_als(DenseTensor(g.normal(size=(3, 4, 5))), 2, max_iters=20),
        ]
        for call in calls:
            shapes.clear()
            call()
            assert shapes and all(a[1] == a[2] for a in shapes)

    def test_exactly_singular_jacobian_takes_the_svd_step(self, monkeypatch):
        from tensorspec.spectra import _damped_newton, _eig_system, _fit_scale

        g = rng(372)
        for shape, power in [((3, 3, 3), 1), ((4, 4, 4, 4), 3)]:
            arr = g.normal(size=shape)
            x = g.normal(size=(shape[0], 12))
            x /= np.linalg.norm(x, axis=0)
            v = np.vstack([x, _fit_scale(eig_map_loop(arr, x), x**power)])
            # at x = 0 the norm row of the Jacobian is zero, so LU raises
            v[:, 0] = 0.0
            v[-1, 0] = 1.0
            residual, jacobian = _eig_system(arr, power)
            with monkeypatch.context() as patch:
                calls = count_linalg(patch)
                got = _damped_newton(residual, jacobian, v)
            # the first iteration falls back to the SVD; column 0 stops there
            assert calls["svd"] == [(12, shape[0] + 1, shape[0] + 1)]
            assert calls["solve"][0] == calls["svd"][0] and len(calls["solve"]) > 2
            assert all(dims[0] < 12 for dims in calls["solve"][1:])
            want = damped_newton_loop(residual, jacobian, v)
            converged = [np.max(np.abs(residual(w)), axis=0) <= 1e-13 for w in (got, want)]
            assert np.array_equal(*converged) and converged[0].sum() >= 5
            assert np.max(np.abs(got - want)[:, converged[0]]) <= 1e-12
            assert np.array_equal(got[:, 0], v[:, 0])

    def test_identical_calls_identical_arrays(self):
        t = random_symmetric(3, seed=330)
        gen = DenseTensor(rng(331).normal(size=(3, 4, 5)))
        calls = [
            lambda: find_eigenpairs(t, 1, "z"),
            lambda: find_eigenpairs(DenseTensor(np.abs(t.to_array())), 1, "h"),
            lambda: find_eigenpairs(DenseTensor(rng(332).normal(size=(4, 4, 4))), 2, "z"),
            lambda: find_singular_tuples(gen, 2),
            lambda: find_singular_tuples(t, 3),
        ]

        def flat(records):
            return np.array([
                np.concatenate([[r.value, r.residual], r.vector]) if isinstance(r, EigenPair)
                else np.concatenate([[r.sigma, r.residual], *r.vectors])
                for r in records
            ])

        for call in calls:
            assert np.array_equal(flat(call()), flat(call()))


def counted(fn, calls):
    """``fn`` that appends the column count of every call to ``calls``."""
    def wrapped(v):
        calls.append(v.shape[1])
        return fn(v)
    return wrapped


def tuple_maps_loop(arr, xs):
    """``F_o`` of the columns of ``xs`` for every mode ``o``, one einsum each."""
    letters = "abcdefg"[: arr.ndim]
    return [
        np.einsum(f"{letters},{','.join(c + 's' for c in letters if c != k)}->{k}s", arr, *(x for x, c in zip(xs, letters) if c != k))
        for k in letters
    ]


def eig_map_loop(arr, x):
    """``F_1(x, .., x)`` for every column of ``x``, one column at a time."""
    return np.column_stack([contract_all_but_loop(arr, 1, [x[:, s]] * (arr.ndim - 1)) for s in range(x.shape[1])])


def assert_jacobian(residual, jacobian, v, h=1e-6):
    jac = jacobian(v)
    for c in range(v.shape[1]):
        fd = np.empty_like(jac[c])
        for j in range(v.shape[0]):
            dv = np.zeros_like(v[:, c:c + 1])
            dv[j] = h
            fd[:, j] = (residual(v[:, c:c + 1] + dv) - residual(v[:, c:c + 1] - dv))[:, 0] / (2 * h)
        assert np.max(np.abs(jac[c] - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac[c])))


class TestSignPartners:
    def test_planted_odeco_reports_both_signs(self):
        # fixed input on which the per-start solver reported (-1.278, v) but not (1.278, -v)
        g = rng(54)
        w = np.arange(1.0, 5.0) + g.uniform(0.1, 0.9, size=4)
        w *= g.choice([-1.0, 1.0], size=4)
        q = np.linalg.qr(g.normal(size=(4, 4)))[0]
        t = DenseTensor(np.einsum("r,ar,br,cr->abc", w, q, q, q))
        pairs = find_eigenpairs(t, 1, "z")
        for i in range(4):
            for s in (1.0, -1.0):
                assert contains_pair(pairs, s * w[i], s * q[:, i], tol=1e-6 * abs(w[i]))

    def test_every_iterative_record_has_its_partner(self):
        for t, variant in [(DenseTensor(rng(340).normal(size=(3, 3, 3))), "z"),
                           (DenseTensor(rng(341).normal(size=(4, 4, 4, 4))), "z"),
                           (DenseTensor(rng(342).normal(size=(3, 3, 3))), "h")]:
            pairs = find_eigenpairs(t, 1, variant)
            for p in pairs:
                partner = eig_orbit(p, -1.0, t.order)
                assert contains_pair(pairs, partner.value, partner.vector)


class TestZeroFactorTuples:
    def test_zero_factor_is_not_converged(self):
        # fixed symmetric input on which three lO records with a zero factor
        # (sigma ~ 6e-17) used to be flagged converged
        tuples = find_singular_tuples(random_symmetric(3, seed=22), 3)
        assert tuples
        for tup in tuples:
            assert tup.converged
            for v in tup.vectors:
                assert abs(np.sum(np.abs(v) ** 3) ** (1 / 3) - 1.0) <= 1e-10


def diagonal_with_zero_slice():
    """diag(3, 2, 0) on 3^3: the third svd and coordinate starts meet a zero slice and die."""
    arr = np.zeros((3, 3, 3))
    arr[0, 0, 0], arr[1, 1, 1] = 3.0, 2.0
    return arr


class TestStartStream:
    def test_dead_starts_take_the_next_columns(self, monkeypatch):
        import tensorspec.spectra as spectra

        arr = diagonal_with_zero_slice()
        power_sweeps = spectra._power_sweeps
        batches = []

        def sweeps(update, blocks, *args):
            out = power_sweeps(update, blocks, *args)
            batches.append(([b.copy() for b in blocks], out[1].copy()))
            return out

        monkeypatch.setattr(spectra, "_power_sweeps", sweeps)
        stream = spectra._starts(arr, [1, 2, 3], 16, 5)
        for p in (2, 3):
            batches.clear()
            tuples = find_singular_tuples(arr, p, starts=8, seed=5)
            (first, status), (second, _) = batches
            dead = np.flatnonzero(status < 0)
            assert dead.tolist() == [2, 5]
            assert all(np.array_equal(b, s[:, :8]) for b, s in zip(first, stream))
            assert all(np.array_equal(b, s[:, 8:10]) for b, s in zip(second, stream))
            assert [round(t.sigma, 10) for t in tuples] == [3.0, 2.0] and all(t.converged for t in tuples)

    def test_one_generator_per_call(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counting(*args):
            made.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        arr = diagonal_with_zero_slice()
        gen = rng(360).normal(size=(3, 3, 3))
        sym = random_symmetric(3, seed=361)
        calls = [
            lambda: find_singular_tuples(arr, 2, seed=4),
            lambda: find_singular_tuples(arr, 3, seed=4),
            lambda: find_singular_tuples(gen, 2, seed=4),
            lambda: find_eigenpairs(gen, 1, "z", seed=4),
            lambda: find_eigenpairs(np.abs(gen), 2, "h", seed=4),
            lambda: find_eigenpairs(sym, 3, "z", seed=4),
        ]
        for call in calls:
            made.clear()
            call()
            assert made == [(4,)]


def sparse_tensor(seed, shape):
    g = rng(seed)
    return g.normal(size=shape) * (g.random(shape) < 0.3)


class TestNoConvergedRecordLost:
    """The converged sigmas of seeded l2 and lO solves, pinned from sweeps run to 1e-13 and a one-sigma Newton.

    Handing the l2 sweeps off at 1e-4 to Newton on one sigma per mode keeps
    every record, each sigma within 1e-10 relative.
    """

    INPUTS = {
        "gen5x6x7": lambda: rng(420).normal(size=(5, 6, 7)),
        "sym3^3": lambda: random_symmetric(3, seed=421).to_array(),
        "sym4^4": lambda: random_symmetric(4, seed=422, order=4).to_array(),
        "sparse3x4x5": lambda: sparse_tensor(423, (3, 4, 5)),
    }
    SIGMAS = {
        ("gen5x6x7", 2): [7.27595271674976],
        ("gen5x6x7", 3): [11.757251560099295, 11.758545535168947, 11.852651545981963, 11.857695183315428],
        ("sym3^3", 2): [-1.7533706881166946, 1.3353019109866362],
        ("sym3^3", 3): [-2.9839934007836897, 1.8476097650238683],
        ("sym4^4", 2): [
            -2.4849429625511874, -1.9785607910894092, -1.9669320004386315, 2.1083904575721637,
            2.3084896319363533, 2.4218614870232935, 2.7511293320340875,
        ],
        ("sym4^4", 4): [
            -6.404579033214703, 4.904243868272412, 5.444665096789639, 5.444665096789696, 5.738394424650622,
            5.7383944246506235, 5.738394424650624, 5.947928237224437, 5.967736342780907, 5.967736342780918,
            5.967736342780961, 5.9691817395013915, 5.969181739501404, 5.969181739501405, 6.1561613186589685,
            6.281881741503611, 6.281881741503684, 8.240202176477574,
        ],
        ("sparse3x4x5", 2): [-3.2868332542981347, 3.088048245285467],
        ("sparse3x4x5", 3): [-5.395112504310123, 4.771343541028947, 5.317562289714045],
    }

    @pytest.mark.parametrize("name, p", list(SIGMAS))
    def test_converged_sigmas(self, name, p):
        arr = self.INPUTS[name]()
        tuples = find_singular_tuples(DenseTensor(arr), p, seed=3)
        got = sorted(t.sigma for t in tuples if t.converged)
        want = self.SIGMAS[name, p]
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        # the gate reads the rows singular_residual reads, at sigma = T(x_1, .., x_O)
        for t in tuples:
            assert abs(singular_residual(DenseTensor(arr), t) - t.residual) <= 1e-14 * np.max(np.abs(arr))


class TestGate:
    def test_z_norm_row_gates_convergence(self, monkeypatch):
        import tensorspec.spectra as spectra

        arr = diagonal_with_zero_slice() / 3.0
        # Newton returns the start as it is, so the start's defects are the record's
        monkeypatch.setattr(spectra, "_damped_newton", lambda residual, jacobian, v, g=None: v)
        e1 = np.eye(3)[:, :1]
        for scale, converged in [(1.0, True), (1.0 + 1e-12, True), (1.0 + 1e-6, False)]:
            lam, x, res, ok = spectra._polish(arr, "z", scale * e1, 1e-10)
            # (1 + eps) e_1 with lambda = 1 + eps solves the equation rows exactly
            assert res[0] <= 1e-15 and lam[0] == pytest.approx(scale, abs=1e-15)
            assert ok[0] == converged and lam.size == x.shape[1] == res.size == ok.size == 1 + int(converged)


class TestPolish:
    """`spectra._polish` evaluates ``F_1`` once per set of points, and gates on the residual of what it returns."""

    def test_one_contraction_per_set_of_points(self, monkeypatch):
        from tensorspec import spectra

        calls, steps = [], []
        contract, lstsq = spectra._contract_all_but_batch, spectra._lstsq
        monkeypatch.setattr(spectra, "_contract_all_but_batch", lambda *args: (calls.append(1), contract(*args))[1])
        monkeypatch.setattr(spectra, "_lstsq", lambda *args: (steps.append(1), lstsq(*args))[1])
        for arr in gaussian_size2(30):
            for mode in range(1, arr.ndim + 1):
                # z: the start's fit, Newton's residual and the gate share one
                # evaluation; h adds one at the renormalized columns
                for variant, count in (("z", 1), ("h", 2)):
                    calls.clear()
                    find_eigenpairs(DenseTensor(arr), mode, variant)
                    assert len(calls) == count, (arr.shape, mode, variant)
        assert steps == []

    @pytest.mark.parametrize("variant", ["z", "h"])
    def test_gate_reads_the_residual_of_the_returned_columns(self, monkeypatch, variant):
        from tensorspec import spectra

        gated, gate = [], spectra._gate
        monkeypatch.setattr(spectra, "_gate", lambda g, n, tol: (gated.append(g), gate(g, n, tol))[1])
        g = rng(92)
        for shape in ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3)):
            arr = g.normal(size=shape)
            arr /= np.max(np.abs(arr))
            power = 1 if variant == "z" else arr.ndim - 1
            residual, _ = spectra._eig_system(arr, power)
            starts = g.normal(size=(shape[0], 6))
            starts /= np.linalg.norm(starts, axis=0)
            lam, x, res, ok = spectra._polish(arr, variant, starts, 1e-10)
            solved = x[:, :6][:, ok[:6]]
            assert solved.size
            # converged columns stay where they are; the others move, or none do
            for cols in (np.hstack([solved, starts]), starts, solved):
                lam, x, res, ok = spectra._polish(arr, variant, cols, 1e-10)
                c = cols.shape[1]
                fresh = residual(np.vstack([x[:, :c], lam[:c]]))
                assert gated[-1].tobytes() == fresh.tobytes()
                assert res[:c].tobytes() == np.max(np.abs(fresh[: shape[0]]), axis=0).tobytes()


class TestFinish:
    """`spectra._finish` on arrays against `finish_loop` on records."""

    @staticmethod
    def check(s, v, res, ok, top):
        from tensorspec.spectra import _finish

        records = [EigenPair("z", 1, s[c], v[:, c], res[c], bool(ok[c])) for c in range(s.size)]
        index = {id(r): c for c, r in enumerate(records)}
        want = [index[id(r)] for r in finish_loop(records, lambda p: (p.value, p.vector), top)]
        assert [int(c) for c in _finish(s, v, res, ok, top)] == want
        return want

    def test_matches_finish_loop(self):
        g = rng(390)
        scalars = np.array([1.0, -1.0, 3.5, -1e3, 0.0, 1e-3])
        # offsets straddling the 1e-8 tolerance, and one ulp
        steps = [0.0, 0.99e-8, 1e-8, 1.01e-8, 2e-8]
        residuals = [0.0, 1e-16, 2e-16, 1e-12]
        base = g.normal(size=(3, scalars.size))
        # from 0 the offsets are exact, so some entries lie exactly 1e-8 apart
        base[0] = 0.0
        for trial in range(400):
            cols = int(g.integers(1, 13))
            pick = g.integers(0, scalars.size, size=cols)
            s = scalars[pick] + g.choice(steps, size=cols) * np.maximum(1.0, np.abs(scalars[pick])) * g.choice([-1.0, 1.0], size=cols)
            s = np.where(g.random(cols) < 0.2, np.nextafter(scalars[pick], np.inf), s)
            v = base[:, pick] + g.choice(steps, size=(3, cols)) * (g.random((3, cols)) < 0.4)
            res = g.choice(residuals, size=cols)
            ok = g.random(cols) < (0.0 if trial % 10 == 0 else 0.8)
            top = [1.0, 2.5, 1e-3, 7e5][trial % 4]
            want = self.check(s, v, res, ok, top)
            if not ok.any():
                assert want == [int(np.argmin(res))]

    def test_edge_sets(self):
        e = np.eye(2)
        up = np.nextafter(1.0, 2.0)
        # zero columns
        assert self.check(np.zeros(0), np.zeros((2, 0)), np.zeros(0), np.zeros(0, dtype=bool), 1.0) == []
        # nothing converged: the first of the lowest residuals
        assert self.check(np.array([1.0, 2.0, 3.0]), e[:, [0, 1, 0]], np.array([1.0, 0.5, 0.5]), np.zeros(3, dtype=bool), 1.0) == [1]
        # equal residuals: the first column is kept over its duplicate
        assert self.check(np.array([1.0, up]), e[:, [0, 0]], np.zeros(2), np.ones(2, dtype=bool), 1.0) == [0]
        # entries 1.01e-8 apart are two records
        v = np.array([[1.0, 1.0 + 1.01e-8], [0.0, 0.0]])
        assert len(self.check(np.array([1.0, 1.0]), v, np.zeros(2), np.ones(2, dtype=bool), 1.0)) == 2
        # round(e, 12) rounds this tie up where np.round rounds it down
        v = np.array([[0.1000000000025, 0.100000000002], [0.0, 0.5]])
        assert self.check(np.array([1.0, 1.0]), v, np.zeros(2), np.ones(2, dtype=bool), 1.0) == [1, 0]


class TestSparseInput:
    """Sparse input makes singular and near-singular Jacobians common."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_converged_eigen_records_solve_the_equation(self):
        g = rng(380)
        tol, checked = 1e-10, 0
        # F_mode by one einsum: the vector on the other two modes
        subs = {1: "ijk,j,k->i", 2: "ijk,i,k->j", 3: "ijk,i,j->k"}
        for s in [(3, 3, 3), (4, 4, 4)]:
            for i in range(10):
                arr = g.normal(size=s) * (g.random(s) < 0.3)
                top = np.max(np.abs(arr))
                mode = 1 + i % 3
                for variant, power in (("z", 1), ("h", 2)):
                    for r in find_eigenpairs(DenseTensor(arr), mode, variant, seed=i):
                        if r.converged:
                            f = np.einsum(subs[mode], arr, r.vector, r.vector)
                            assert np.max(np.abs(f - r.value * r.vector**power)) <= tol * top * (1 + 1e-6)
                            checked += 1
        assert checked >= 100


    def test_line_search_overflow_is_rejected_quietly(self):
        # a ladder step on this input has a residual whose square overflows; it
        # is rejected (inf < base is False) and no RuntimeWarning escapes
        g = rng(1001)
        g.normal(size=(3, 3, 3))
        arr = g.normal(size=(3, 3, 3)) * (g.random((3, 3, 3)) < 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = find_eigenpairs(DenseTensor(arr), 2, "h", seed=1)
        assert len(got) == 24 and all(r.converged and r.residual <= 1e-13 for r in got)
        want = [-1.27424802808, -1.26085927938, -0.628335611847, -0.624212003864]
        assert np.allclose([r.value for r in got[:8]], np.repeat(want, 2), rtol=0, atol=1e-11)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestParentJacobians:
    """Both systems' Jacobians against the parent's, which called the kernel once per other mode: the same bits."""

    SHAPES = [(2, 2, 2), (3, 3, 3), (4, 4, 4, 4), (8, 8, 8), (3, 3, 3, 3, 3), (5, 6, 7)]

    def test_eig_jacobian(self):
        from reference import eig_jacobian_parent

        from tensorspec.spectra import _eig_system

        g = rng(390)
        for shape in [s for s in self.SHAPES if len(set(s)) == 1] + [(3, 3)]:
            arr = g.normal(size=shape)
            for mode in range(1, len(shape) + 1):
                for power in sorted({1, len(shape) - 1}):
                    # the mode-1 system of a C-ordered copy with the mode moved to the front, as solvers lay it out
                    moved = np.ascontiguousarray(np.moveaxis(arr, mode - 1, 0))
                    _, jacobian = _eig_system(moved, power)
                    # at S = 1 BLAS takes its one-column path
                    for s in (1, 64):
                        v = g.normal(size=(shape[0] + 1, s))
                        assert same_bits(jacobian(v), eig_jacobian_parent(moved, 1, power, v))

    def test_tuple_jacobian(self):
        from reference import tuple_jacobian_parent

        from tensorspec.spectra import _tuple_system

        g = rng(391)
        for shape in self.SHAPES:
            arr = g.normal(size=shape)
            for p in (2, len(shape)):
                _, jacobian = _tuple_system(arr, p)
                for s in (1, 64):
                    v = g.normal(size=(sum(shape) + len(shape), s))
                    assert same_bits(jacobian(v), tuple_jacobian_parent(arr, p, v))


class TestWorkCounts:
    """Deterministic counts of kernel evaluations and plan builds."""

    @staticmethod
    def count(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def wrapped(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(module, name, wrapped)
        return calls

    def test_one_evaluation_per_block_per_sweep(self, monkeypatch):
        from tensorspec import spectra

        evals = self.count(monkeypatch, spectra, "_contract_all_but_batch")
        sweeps = spectra._power_sweeps
        per_update, ks = [], []

        def counted_sweeps(update, blocks, *args):
            def counted(k, cur, cols):
                before = len(evals)
                out = update(k, cur, cols)
                per_update.append(len(evals) - before)
                ks.append(k)
                return out

            return sweeps(counted, blocks, *args)

        monkeypatch.setattr(spectra, "_power_sweeps", counted_sweeps)
        cases = [
            (lambda: find_eigenpairs(random_symmetric(4, seed=392, order=4), 1, "z", max_iters=40), 1),
            (lambda: find_eigenpairs(DenseTensor(np.abs(rng(393).normal(size=(3, 3, 3)))), 2, "h"), 1),
            (lambda: find_singular_tuples(DenseTensor(rng(394).normal(size=(3, 4, 5))), 2, max_iters=40), 3),
            (lambda: find_singular_tuples(DenseTensor(rng(395).normal(size=(3, 2, 3, 2))), 4, max_iters=40), 4),
        ]
        for call, blocks in cases:
            per_update.clear()
            ks.clear()
            call()
            assert ks and per_update == [1] * len(ks)
            assert ks == list(range(blocks)) * (len(ks) // blocks)

    def test_one_evaluation_per_eigen_jacobian(self, monkeypatch):
        from tensorspec import spectra

        evals = self.count(monkeypatch, spectra, "_contract_all_but_batch")
        plans = self.count(monkeypatch, spectra, "_contract_plan")
        g = rng(396)
        for order in (2, 3, 4, 5):
            arr = g.normal(size=(3,) * order)
            for mode in range(1, order + 1):
                plans.clear()
                _, jacobian = spectra._eig_system(np.moveaxis(arr, mode - 1, 0), order - 1)
                assert len(plans) == 1
                for s in (1, 5, 5):
                    evals.clear()
                    jacobian(g.normal(size=(4, s)))
                    assert len(evals) == 1
                # the slabs are planned on the first Jacobian call only
                assert len(plans) == 2

    def test_plans_built_once_per_solve(self, monkeypatch):
        from tensorspec import spectra

        plans = self.count(monkeypatch, spectra, "_contract_plan")
        solves = [
            (lambda: find_eigenpairs(random_symmetric(4, seed=397, order=4), 2, "z"), 2),
            (lambda: find_eigenpairs(DenseTensor(rng(398).normal(size=(4, 4, 4))), 3, "h"), 2),
            # every column converges in the power sweeps: no Newton step, so no Jacobian plan
            (lambda: find_eigenpairs(DenseTensor(np.abs(rng(399).normal(size=(3, 3, 3)))), 1, "h"), 1),
            (lambda: find_singular_tuples(DenseTensor(rng(400).normal(size=(3, 4, 5))), 3), 3 + 3),
            # an input whose lO sweeps leave starts to Newton, which plans the pairs
            (lambda: find_singular_tuples(DenseTensor(rng(402).normal(size=(3, 2, 3, 2))), 4), 4 + 6),
            # the l2 sweeps hand off at 1e-4, so Newton steps and plans the pairs too
            (lambda: find_singular_tuples(DenseTensor(rng(401).normal(size=(3, 2, 3, 2))), 2), 4 + 6),
        ]
        for solve, builds in solves:
            plans.clear()
            solve()
            assert len(plans) == builds
        plans.clear()
        pair = EigenPair("z", 1, 0.5, np.array([0.6, 0.8, 0.0]), 0.0)
        eig_residual(DenseTensor(rng(402).normal(size=(3, 3, 3))), pair)
        # a one-shot residual plans F_o and not the Jacobian
        assert len(plans) == 1


class TestIntegerModes:
    """A mode is read with `operator.index`: NumPy integers work like ints, floats raise."""

    def test_numpy_integer_modes(self):
        g = rng(404)
        for shape in [(3, 3, 3), (2, 2, 2), (4, 4, 4, 4)]:
            t = DenseTensor(g.normal(size=shape))
            for variant in "zh":
                want = find_eigenpairs(t, 2, variant, seed=3)
                got = find_eigenpairs(t, np.int64(2), variant, seed=3)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert type(a.mode) is int and same_record(a, b)
                    assert eig_residual(t, replace_mode(a, np.int64(2))) == eig_residual(t, b)

    def test_float_modes_raise(self):
        t = DenseTensor(rng(405).normal(size=(3, 3, 3)))
        with pytest.raises(TypeError):
            find_eigenpairs(t, 1.5, "z")
        with pytest.raises(TypeError):
            find_eigenpairs(DenseTensor(np.ones((2, 2, 2))), 1.0, "z")
        with pytest.raises(TypeError):
            EigenPair("z", 1.5, 1.0, np.ones(3), 0.0)


def same_record(a, b):
    return (a.variant, a.mode, a.value, a.residual, a.converged) == (b.variant, b.mode, b.value, b.residual, b.converged) and (
        a.vector.tobytes() == b.vector.tobytes()
    )


def replace_mode(pair, mode):
    return EigenPair(pair.variant, mode, pair.value, pair.vector, pair.residual, pair.converged)


class TestOneLayout:
    """The stacked plans a solve builds are of the C-ordered canonical copy, whatever the input's layout."""

    def test_stacked_plans_get_c_ordered_tensors(self, monkeypatch):
        from tensorspec import spectra

        inner = spectra._contract_plan
        stacked = []

        def recording(arr, keep):
            if isinstance(keep, list):
                stacked.append(arr.flags.c_contiguous)
            return inner(arr, keep)

        monkeypatch.setattr(spectra, "_contract_plan", recording)
        g = rng(392)
        for order in (2, 3, 4, 5):
            t = DenseTensor(g.normal(size=(3,) * order))
            assert t.to_array().flags.f_contiguous and not t.to_array().flags.c_contiguous
            for mode in range(1, order + 1):
                for variant in ("z", "h"):
                    stacked.clear()
                    find_eigenpairs(t, mode, variant, starts=4, max_iters=20)
                    assert stacked and all(stacked), (order, mode, variant)
