"""Self-tests of the benchmark's oracles.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from tensorspec import DenseTensor, find_eigenpairs, odeco_decompose  # noqa: E402
from tensorspec.golden import counterexample_222  # noqa: E402


def sign_changes(arr, mode, variant, n=200_000):
    """Transversal roots of the collinearity defect on [0, pi), by dense sampling."""
    power = 1 if variant == "z" else arr.ndim - 1
    thetas = np.linspace(0.0, np.pi, n, endpoint=False)
    xs = np.stack([np.cos(thetas), np.sin(thetas)])
    letters = "abcde"[: arr.ndim]
    others = [letters[m] + "z" for m in range(arr.ndim) if m != mode - 1]
    f = np.einsum(",".join([letters] + others) + "->" + letters[mode - 1] + "z", arr, *([xs] * (arr.ndim - 1)))
    g = f[0] * xs[1] ** power - f[1] * xs[0] ** power
    # the defect is odd or even under x -> -x, so close the loop with the sign at pi
    g_pi = g[0] * (-1) ** (arr.ndim - 1 + power)
    return int(np.sum(np.sign(g[:-1]) != np.sign(g[1:])) + (np.sign(g[-1]) != np.sign(g_pi)))


class TestBinaryForm:
    def test_counterexample_closed_form(self):
        # (1,1) o (1,1) o (1,2): mode-1 lines are x ~ (1,1), x _|_ (1,1), x _|_ (1,2)
        arr = counterexample_222().to_array()
        assert orc.count_real_lines(orc.binary_form(arr, 1, "z")) == 3
        assert orc.count_real_lines(orc.binary_form(arr, 2, "z")) == 3
        # mode 3: the two equal factors give a double root at x _|_ (1,1)
        assert orc.count_real_lines(orc.binary_form(arr, 3, "z")) is None

    @pytest.mark.parametrize("mode", [1, 2])
    def test_counterexample_solver_agrees(self, mode):
        t = counterexample_222()
        verdict = orc.check_size2(t.to_array(), find_eigenpairs(t, mode, "z"), "z", mode)
        assert verdict.ok and verdict.expected == verdict.recovered == 6

    @pytest.mark.parametrize("variant", ["z", "h"])
    def test_seeded_222_at_scale_one(self, variant):
        arr = np.random.default_rng(0).normal(size=(2, 2, 2))
        lines = orc.count_real_lines(orc.binary_form(arr, 1, variant))
        assert lines == sign_changes(arr, 1, variant)
        verdict = orc.check_size2(arr, find_eigenpairs(DenseTensor(arr), 1, variant), variant, 1)
        assert verdict.ok and verdict.expected == 2 * lines

    def test_missing_sign_is_rejected(self):
        arr = np.random.default_rng(0).normal(size=(2, 2, 2))
        pairs = find_eigenpairs(DenseTensor(arr), 1, "z")
        assert not orc.check_size2(arr, pairs[1:], "z", 1).ok

    def test_random_size2_inputs_keep_root_lines_apart(self):
        close = np.random.default_rng(270).normal(size=(2, 2, 2))
        assert orc.root_line_gap(orc.binary_form(close, 1, "h")) < orc.CLOSE_ROOTS_RAD
        arr = workloads._separated_size2(np.random.default_rng(270), 3, (1, 3))
        assert not np.array_equal(arr, close)
        gaps = [orc.root_line_gap(orc.binary_form(arr, m, v)) for m in (1, 3) for v in "zh"]
        assert min(gaps) > workloads.ROOT_LINE_SEPARATION_RAD

    def test_missed_close_roots_are_the_known_grid_defect(self):
        # h, mode 1: two of the four root lines are 0.07 degrees apart
        arr = np.random.default_rng(270).normal(size=(2, 2, 2))
        roots = orc.unit_root_vectors(orc.binary_form(arr, 1, "h"))
        gaps = [orc._line_gap(u, roots) for u in roots]
        close, far = int(np.argmin(gaps)), int(np.argmax(gaps))

        def pair(x):
            w = x**2
            value = float(orc.contract_all_but(arr, 1, [x, x]) @ w / (w @ w))
            return SimpleNamespace(variant="h", mode=1, value=value, vector=x, converged=True)

        def pairs_without(skip):
            return [pair(s * u) for i, u in enumerate(roots) for s in (1.0, -1.0) if i != skip]

        assert orc.check_size2(arr, pairs_without(None), "h", 1).ok
        assert orc.check_size2(arr, pairs_without(close), "h", 1).known == orc.CLOSE_ROOTS_DEFECT
        missed_far = orc.check_size2(arr, pairs_without(far), "h", 1)
        assert not missed_far.ok and not missed_far.known

    def test_zero_form_falls_back(self):
        assert orc.count_real_lines(np.zeros(4)) is None


def _odeco_result(weights, factors):
    return SimpleNamespace(weights=np.array(weights, dtype=float), factors=[f.copy() for f in factors])


class TestPlantedRecovery:
    def setup_method(self):
        self.arr, self.w, self.qs = orc.planted_odeco(np.random.default_rng(3), 4, 3, symmetric=False)

    def test_exact_components_pass(self):
        res = _odeco_result(self.w, self.qs)
        assert orc.check_odeco_components(res.weights, res.factors, self.w, self.qs).ok

    def test_sign_consistent_flip_passes(self):
        res = _odeco_result(self.w, self.qs)
        res.factors[0][:, 1] *= -1
        res.weights[1] *= -1
        assert orc.check_odeco_components(res.weights, res.factors, self.w, self.qs).ok

    def test_inconsistent_sign_is_rejected(self):
        res = _odeco_result(self.w, self.qs)
        res.factors[0][:, 1] *= -1
        verdict = orc.check_odeco_components(res.weights, res.factors, self.w, self.qs)
        assert not verdict.ok and verdict.recovered == 3

    def test_perturbed_vector_is_rejected(self):
        res = _odeco_result(self.w, self.qs)
        res.factors[2][:, 0] += 1e-4
        assert not orc.check_odeco_components(res.weights, res.factors, self.w, self.qs).ok

    def test_perturbed_weight_is_rejected(self):
        res = _odeco_result(self.w * (1 + 1e-4), self.qs)
        assert not orc.check_odeco_components(res.weights, res.factors, self.w, self.qs).ok

    def test_solver_output_passes(self):
        res = odeco_decompose(DenseTensor(self.arr))
        assert orc.check_odeco_components(res.cp.weights, res.cp.factors, self.w, self.qs).ok

    def test_eigenpairs_need_both_signs(self):
        arr, w, factors = orc.planted_odeco(np.random.default_rng(4), 3, 3)
        q = factors[0]
        pairs = [SimpleNamespace(variant="z", mode=1, value=s * wi, vector=s * q[:, i], converged=True)
                 for i, wi in enumerate(w) for s in (1.0, -1.0)]
        assert orc.check_odeco_eigs(arr, pairs, w, q).ok
        verdict = orc.check_odeco_eigs(arr, pairs[:-1], w, q)
        assert not verdict.ok and verdict.recovered == 5
        pairs[0].value *= 1 + 1e-4
        assert not orc.check_odeco_eigs(arr, pairs, w, q).ok
