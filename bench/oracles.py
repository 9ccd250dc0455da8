"""Independent checks of solver output, written against raw numpy arrays.

Nothing here calls a `tensorspec` solver or contraction: residuals are
recomputed with `numpy.einsum`, size-2 solution counts come from the real
roots of a binary form built entry by entry, and planted components are
matched directly.  Every check returns a `Verdict`.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass

import numpy as np

# residual tolerance relative to max|T|; the library's own gate is 1e-10 absolute
RESIDUAL_RTOL = 1e-8
# two unit vectors closer than this (max-abs) are the same solution
VECTOR_TOL = 1e-6
# roots closer than this (in the unit disc) count as a double root
DOUBLE_ROOT_RTOL = 1e-5
# The size-2 solver brackets sign changes on 2048 circle points; two root
# lines closer than two of its steps can fall in one bracket and be missed.
CLOSE_ROOTS_RAD = 2 * 2 * np.pi / 2048
CLOSE_ROOTS_DEFECT = "ROADMAP size-2 solve: grid sampling misses root lines closer than its step"
ZERO_FACTOR_DEFECT = "found by this benchmark: find_singular_tuples flags a tuple with a zero factor as converged"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``expected`` is the number of planted or closed-form solutions the case
    has (0 when it has none) and ``recovered`` how many of them the output
    contains; they feed ``oracle_recall``.  ``known`` names the known defect
    a failure reproduces, if it matches one.
    """

    ok: bool
    expected: int = 0
    recovered: int = 0
    reason: str = ""
    known: str = ""


def fail(reason: str, expected: int = 0, recovered: int = 0, known: str = "") -> Verdict:
    return Verdict(False, expected, recovered, reason, known)


def contract_all_but(arr: np.ndarray, mode: int, xs) -> np.ndarray:
    """F_mode: contract one vector onto every mode except ``mode`` (1-based)."""
    order = arr.ndim
    letters = string.ascii_lowercase[:order]
    others = [m for m in range(order) if m != mode - 1]
    spec = ",".join([letters] + [letters[m] for m in others]) + "->" + letters[mode - 1]
    return np.einsum(spec, arr, *xs)


def eig_defect(arr: np.ndarray, variant: str, mode: int, value: float, x: np.ndarray) -> float:
    power = 1 if variant == "z" else arr.ndim - 1
    f = contract_all_but(arr, mode, [x] * (arr.ndim - 1))
    return float(np.max(np.abs(f - value * x**power)))


def singular_defect(arr: np.ndarray, p: int, sigma: float, vectors) -> float:
    order = arr.ndim
    power = 1 if p == 2 else order - 1
    worst = 0.0
    for o in range(order):
        f = contract_all_but(arr, o + 1, [vectors[j] for j in range(order) if j != o])
        worst = max(worst, float(np.max(np.abs(f - sigma * vectors[o] ** power))))
    return worst


def _tol(arr: np.ndarray) -> float:
    return RESIDUAL_RTOL * float(np.max(np.abs(arr)))


def check_eig_records(arr: np.ndarray, pairs, variant: str, mode: int) -> Verdict:
    """Every record flagged converged is a unit vector solving the equation."""
    tol = _tol(arr)
    for p in pairs:
        if p.variant != variant or p.mode != mode:
            return fail(f"record for ({p.variant}, {p.mode}), asked ({variant}, {mode})")
        if not p.converged:
            continue
        if abs(float(np.linalg.norm(p.vector)) - 1.0) > 1e-8:
            return fail("converged record is not unit norm")
        if not eig_defect(arr, variant, mode, p.value, p.vector) <= tol:
            return fail("converged record fails the eigen equation")
    return Verdict(True)


def check_singular_records(arr: np.ndarray, tuples, p: int) -> Verdict:
    """Every record flagged converged has unit p-norm vectors and solves the system."""
    tol = _tol(arr)
    for s in tuples:
        if s.p != p or len(s.vectors) != arr.ndim:
            return fail("record of the wrong variant or order")
        if not s.converged:
            continue
        if any(np.max(np.abs(v)) <= 1e-8 for v in s.vectors):
            return fail("converged record has a zero factor", known=ZERO_FACTOR_DEFECT)
        if any(abs(float(np.sum(np.abs(v) ** p)) - 1.0) > 1e-8 for v in s.vectors):
            return fail("converged record is not unit p-norm")
        if not singular_defect(arr, p, s.sigma, s.vectors) <= tol:
            return fail("converged record fails the singular system")
    return Verdict(True)


def require_converged(records) -> Verdict:
    if not any(r.converged for r in records):
        return fail("no converged record")
    return Verdict(True)


# -- size-2 modes: the binary defect form --------------------------------------


def binary_form(arr: np.ndarray, mode: int, variant: str) -> np.ndarray:
    """Coefficients c_k of g(x) = f_0(x) x_1^p - f_1(x) x_0^p, monomial x_0^(D-k) x_1^k.

    ``f_i(x)`` is the entry-``i`` component of F_mode(x, .., x) on a mode of
    size 2; ``p`` is 1 (z) or O-1 (h).  The unit vectors solving the
    eigen equation are exactly the unit vectors on the real lines where g
    vanishes.
    """
    order = arr.ndim
    degree = order - 1
    power = 1 if variant == "z" else order - 1
    f = np.zeros((2, degree + 1))
    for idx in itertools.product((0, 1), repeat=order):
        rest = [idx[m] for m in range(order) if m != mode - 1]
        f[idx[mode - 1], sum(rest)] += arr[idx]
    g = np.zeros(degree + power + 1)
    g[power:] += f[0]
    g[: degree + 1] -= f[1]
    return g


def _chart_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots t of sum_k coeffs[k] t^k."""
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return np.array([])
    return np.roots(coeffs[: nz[-1] + 1][::-1])


def count_real_lines(g: np.ndarray) -> int | None:
    """Number of distinct real projective roots of the binary form ``g``.

    Roots are found in both charts, t = x1/x0 and s = x0/x1, keeping each
    chart's roots of modulus <= 1 so the point at infinity is covered.
    Returns None when the count is not well defined numerically: ``g``
    vanishes identically, or two roots nearly coincide (a double root).
    """
    scale = float(np.max(np.abs(g)))
    if scale == 0.0 or np.all(np.abs(g) <= 1e-14 * scale):
        return None
    g = np.where(np.abs(g) <= 1e-14 * scale, 0.0, g)
    angles = []
    for coeffs, to_line in ((g, lambda r: (1.0, r)), (g[::-1], lambda r: (r, 1.0))):
        roots = _chart_roots(coeffs)
        small = roots[np.abs(roots) <= 1.0 + 1e-9]
        for i, a in enumerate(roots):
            if abs(a) <= 1.0 + 1e-9 and np.any(np.abs(np.delete(roots, i) - a) <= DOUBLE_ROOT_RTOL):
                return None
        for r in small:
            if abs(r.imag) <= 1e-9:
                x0, x1 = to_line(float(r.real))
                angles.append(np.arctan2(x1, x0) % np.pi)
    angles.sort()
    distinct = [a for i, a in enumerate(angles) if i == 0 or a - angles[i - 1] > 1e-7]
    if len(distinct) > 1 and distinct[0] + np.pi - distinct[-1] <= 1e-7:
        distinct.pop()
    return len(distinct)


def unit_root_vectors(g: np.ndarray) -> list[np.ndarray]:
    """One unit vector per distinct real projective root of ``g`` (simple roots only)."""
    out = []
    for coeffs, to_line in ((g, lambda r: (1.0, r)), (g[::-1], lambda r: (r, 1.0))):
        for r in _chart_roots(coeffs):
            if abs(r) <= 1.0 + 1e-9 and abs(r.imag) <= 1e-9:
                v = np.array(to_line(float(r.real)))
                v /= np.linalg.norm(v)
                if not any(min(np.max(np.abs(v - u)), np.max(np.abs(v + u))) <= 1e-7 for u in out):
                    out.append(v)
    return out


def check_size2(arr: np.ndarray, pairs, variant: str, mode: int) -> Verdict:
    """Exhaustiveness on a size-2 mode: both signs of every real root line.

    Falls back to the residual check alone when the form vanishes
    identically or has a double root.
    """
    base = check_eig_records(arr, pairs, variant, mode)
    if not base.ok:
        return base
    g = binary_form(arr, mode, variant)
    lines = count_real_lines(g)
    if lines is None:
        return base
    expected = 2 * lines
    roots = unit_root_vectors(g)
    missed = []
    for u in roots:
        for s in (1.0, -1.0):
            if not any(p.converged and np.max(np.abs(p.vector - s * u)) <= VECTOR_TOL for p in pairs):
                missed.append(u)
    found = expected - len(missed)
    if missed or len(pairs) != expected:
        reason = f"{len(pairs)} records, {found} of {expected} root vectors"
        close = len(pairs) < expected and all(_line_gap(u, roots) <= CLOSE_ROOTS_RAD for u in missed)
        return fail(reason, expected, found, CLOSE_ROOTS_DEFECT if close else "")
    return Verdict(True, expected, found)


def root_line_gap(g: np.ndarray) -> float:
    """Smallest angle between two distinct real root lines of ``g`` (inf with fewer than two)."""
    roots = unit_root_vectors(g)
    return min((_line_gap(u, roots) for u in roots), default=np.inf)


def _line_gap(u: np.ndarray, roots) -> float:
    """Angle between the line of ``u`` and the nearest other root line."""
    gaps = [np.arccos(min(1.0, abs(float(u @ v)))) for v in roots if v is not u]
    return min(gaps, default=np.inf)


# -- planted structure ------------------------------------------------------------


def planted_odeco(rng: np.random.Generator, n: int, order: int, symmetric: bool = True):
    """(tensor, weights, per-mode factor matrices) with orthonormal columns and distinct weights."""
    weights = np.arange(1, n + 1, dtype=float) + rng.uniform(0.1, 0.9, size=n)
    weights *= rng.choice([-1.0, 1.0], size=n)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    factors = [q] * order if symmetric else [np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(order)]
    return cp_tensor(weights, factors), weights, factors


def cp_tensor(weights, factors) -> np.ndarray:
    order = len(factors)
    letters = string.ascii_lowercase[:order]
    spec = "r," + ",".join(f"{c}r" for c in letters) + "->" + letters
    return np.einsum(spec, np.asarray(weights, dtype=float), *factors)


def check_odeco_eigs(arr: np.ndarray, pairs, weights, q) -> Verdict:
    """Z-eigenpairs of a symmetric odeco tensor include (s^(O-2) w_i, s q_i) for s = +-1."""
    base = check_eig_records(arr, pairs, "z", 1)
    order = arr.ndim
    expected = 2 * len(weights)
    found = 0
    for i, w in enumerate(weights):
        for s in (1.0, -1.0):
            value, vector = s ** (order - 2) * w, s * q[:, i]
            if any(
                p.converged
                and np.max(np.abs(p.vector - vector)) <= VECTOR_TOL
                and abs(p.value - value) <= VECTOR_TOL * abs(w)
                for p in pairs
            ):
                found += 1
    if not base.ok:
        return fail(base.reason, expected, found)
    if found != expected:
        return fail(f"{found} of {expected} planted signed components", expected, found)
    return Verdict(True, expected, found)


def check_odeco_components(weights_out, factors_out, weights, factors) -> Verdict:
    """Each planted component appears once, per-mode signs consistent with its weight."""
    expected = len(weights)
    found = 0
    used = set()
    for i, w in enumerate(weights):
        for r in range(len(weights_out)):
            if r in used:
                continue
            signs = []
            for f_out, f in zip(factors_out, factors):
                if np.max(np.abs(f_out[:, r] - f[:, i])) <= VECTOR_TOL:
                    signs.append(1.0)
                elif np.max(np.abs(f_out[:, r] + f[:, i])) <= VECTOR_TOL:
                    signs.append(-1.0)
                else:
                    break
            else:
                if abs(weights_out[r] * np.prod(signs) - w) <= VECTOR_TOL * abs(w):
                    used.add(r)
                    found += 1
                    break
    if found != expected:
        return fail(f"{found} of {expected} planted components", expected, found)
    return Verdict(True, expected, found)


def tucker_tensor(core: np.ndarray, factors) -> np.ndarray:
    """The core with factor ``o`` applied along mode ``o``."""
    out = core
    for o, f in enumerate(factors):
        out = np.moveaxis(np.tensordot(f, out, axes=(1, o)), 0, o)
    return out


def relative_error(arr: np.ndarray, approx: np.ndarray) -> float:
    return float(np.linalg.norm(arr - approx) / np.linalg.norm(arr))
