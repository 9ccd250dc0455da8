"""Generalized eigenpairs and singular value tuples of dense tensors.

Definitions (``F_o(x, ...)`` is the tensor contracted by vectors on every mode
except ``o``):

* mode-o Z-eigenpair: ``F_o(x, ..., x) = lambda * x`` with ``||x||_2 = 1``;
  under ``x -> t x`` the eigenvalue scales as ``t^(O-2)``.
* mode-o H-eigenpair: ``F_o(x, ..., x) = lambda * x^(O-1)`` (entrywise power);
  the eigenvalue is scale-invariant.  Records are still reported with
  ``||x||_2 = 1`` as the canonical representative.
* l2 singular tuple: ``F_o(x_1, .., x_O except o) = sigma * x_o`` for every
  mode simultaneously, each ``||x_o||_2 = 1``.
* lO singular tuple: same with ``sigma * x_o^(O-1)`` and unit lO norms.

Solvers are heuristic for modes of size >= 3 (the general problems are
NP-hard); for 2-dimensional modes the solution set of the defining equations
restricted to the unit circle is found exhaustively by dense sampling plus
Newton refinement, which reproduces every isolated solution.

Both sign choices of an eigenvector solve the equations and are reported as
distinct records, matching the convention of listing plus/minus pairs
explicitly.
"""

from __future__ import annotations

import string
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .contract import _contract_all_but_array, _contract_all_but_batch, _mode_unfolding, _power_sweeps
from .tensor import DenseTensor, _as_array, is_symmetric, outer

__all__ = [
    "EigenPair",
    "SingularTuple",
    "BestRankOne",
    "BridgeResult",
    "eig_residual",
    "find_eigenpairs",
    "find_eigenpairs_contract_trailing",
    "find_eigenpairs_contract_leading",
    "eig_orbit",
    "singular_residual",
    "find_singular_tuples",
    "singular_orbit",
    "best_rank_one",
    "eig_singular_bridge",
]

_VARIANTS = ("z", "h")


@dataclass(frozen=True)
class EigenPair:
    """A (lambda, x) record for one mode and variant, with its equation defect.

    Solver output is canonical (``||x||_2 = 1``); orbit operations may produce
    unnormalized records, which keep the exact rescaled residual.
    """

    variant: str
    mode: int
    value: float
    vector: np.ndarray
    residual: float
    converged: bool = True

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be 'z' or 'h', got {self.variant!r}")
        vec = np.asarray(self.vector, dtype=float)
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True)
class SingularTuple:
    """A (sigma, x_1..x_O) record with the max per-mode equation defect.

    ``p`` is 2 for the l2 variant or the tensor order for the lO variant.
    """

    p: int
    sigma: float
    vectors: tuple[np.ndarray, ...]
    residual: float
    converged: bool = True

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.vectors)
        for v in vecs:
            v.flags.writeable = False
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "residual", float(self.residual))

    @property
    def order(self) -> int:
        return len(self.vectors)

    def with_nonnegative_sigma(self) -> "SingularTuple":
        """Equivalent record with sigma >= 0 (one vector flipped when needed).

        Only available where the sign rules permit: always for p=2, and for
        p=O only when the order is even.
        """
        if self.sigma >= 0:
            return self
        return singular_orbit(self, flip=(True,) + (False,) * (self.order - 1))


def _check_cubical(arr: np.ndarray) -> int:
    if len(set(arr.shape)) != 1:
        raise ValueError(f"eigenpairs are defined for cubical tensors only, got shape {arr.shape}")
    return arr.shape[0]


def _eig_defect(arr: np.ndarray, variant: str, mode: int, value: float, x: np.ndarray) -> float:
    order = arr.ndim
    f = _contract_all_but_array(arr, mode, [x] * (order - 1))
    rhs = x if variant == "z" else x ** (order - 1)
    return float(np.max(np.abs(f - value * rhs)))


def eig_residual(t: DenseTensor, pair: EigenPair) -> float:
    """Infinity-norm defect of the defining equation; zero iff exact."""
    arr = _as_array(t)
    m = _check_cubical(arr)
    if not 1 <= pair.mode <= arr.ndim:
        raise IndexError(f"mode {pair.mode} out of range [1, {arr.ndim}]")
    if pair.vector.shape != (m,):
        raise ValueError(f"vector length {pair.vector.size} does not match mode size {m}")
    return _eig_defect(arr, pair.variant, pair.mode, pair.value, pair.vector)


def singular_residual(t: DenseTensor, tup: SingularTuple) -> float:
    """Max over modes of the per-equation infinity-norm defect."""
    arr = _as_array(t)
    order = arr.ndim
    if tup.order != order:
        raise ValueError(f"tuple has {tup.order} vectors, tensor has order {order}")
    for o, v in enumerate(tup.vectors, start=1):
        if v.shape != (arr.shape[o - 1],):
            raise ValueError(f"vector {o} length {v.size} does not match mode size {arr.shape[o - 1]}")
    power = 1 if tup.p == 2 else order - 1
    worst = 0.0
    for o in range(1, order + 1):
        others = [tup.vectors[j] for j in range(order) if j != o - 1]
        f = _contract_all_but_array(arr, o, others)
        rhs = tup.vectors[o - 1] ** power
        worst = max(worst, float(np.max(np.abs(f - tup.sigma * rhs))))
    return worst


# -- exhaustive path for 2-dimensional modes -----------------------------------


def _batch_map(arr: np.ndarray, mode: int, xs_batch: np.ndarray) -> np.ndarray:
    """Evaluate F_mode at many vectors at once; xs_batch is (M, N)."""
    order = arr.ndim
    letters = string.ascii_lowercase[:order]
    subs = [letters]
    operands = [arr]
    for m in range(1, order + 1):
        if m != mode:
            subs.append(letters[m - 1] + "z")
            operands.append(xs_batch)
    return np.einsum(",".join(subs) + "->" + letters[mode - 1] + "z", *operands)


def _circle_solve(arr, mode, variant, grid, newton_iters, newton_tol, tol, dedup_tol):
    """All isolated unit-circle solutions for a size-2 mode, by bracketing."""
    order = arr.ndim
    power = 1 if variant == "z" else order - 1
    scale = 1.0 + float(np.max(np.abs(arr)))

    def defect(theta: float) -> float:
        x = np.array([np.cos(theta), np.sin(theta)])
        f = _contract_all_but_array(arr, mode, [x] * (order - 1))
        return float(f[0] * x[1] ** power - f[1] * x[0] ** power)

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    xs = np.vstack([np.cos(thetas), np.sin(thetas)])
    fs = _batch_map(arr, mode, xs)
    gs = fs[0] * xs[1] ** power - fs[1] * xs[0] ** power

    near_zero = np.abs(gs) <= 1e-12 * scale
    if np.count_nonzero(near_zero) > grid // 4:
        warnings.warn(
            "defining equation vanishes on a large fraction of the circle; "
            "the solution family is not isolated and is returned sampled",
            stacklevel=3,
        )

    step = 2.0 * np.pi / grid
    abs_gs = np.abs(gs)
    candidates = []
    for i in range(grid):
        j = (i + 1) % grid
        if near_zero[i]:
            candidates.append(thetas[i])
        elif gs[i] * gs[j] < 0.0:
            candidates.append(_refine_root(defect, thetas[i], thetas[i] + step, gs[i], gs[j], newton_iters, newton_tol * scale))
        elif abs_gs[i] <= 1e-7 * scale and abs_gs[i] <= abs_gs[i - 1] and abs_gs[i] <= abs_gs[j]:
            # possible tangential (double) root: Newton from the local minimum;
            # the residual gate below discards false candidates
            candidates.append(
                _refine_root(defect, thetas[i] - step, thetas[i] + step, gs[i - 1], gs[j], newton_iters, newton_tol * scale)
            )

    pairs = []
    for theta in candidates:
        x = np.array([np.cos(theta), np.sin(theta)])
        f = _contract_all_but_array(arr, mode, [x] * (order - 1))
        w = x ** power
        denom = float(w @ w)
        value = float(f @ w) / denom if denom > 0 else 0.0
        residual = float(np.max(np.abs(f - value * w)))
        pairs.append(EigenPair(variant, mode, value, x, residual, converged=residual <= tol))
    return _dedup_pairs([p for p in pairs if p.converged], dedup_tol)


def _refine_root(g: Callable[[float], float], a, b, ga, gb, max_iters, tol) -> float:
    """Newton with central differences, falling back to bisection inside [a, b]."""
    theta = 0.5 * (a + b)
    for _ in range(max_iters):
        val = g(theta)
        if abs(val) <= tol:
            return theta
        h = 1e-7
        slope = (g(theta + h) - g(theta - h)) / (2.0 * h)
        if slope != 0.0:
            nxt = theta - val / slope
        else:
            nxt = np.nan
        if not (a <= nxt <= b):
            # bisection step keeps the bracket
            if ga * val < 0.0:
                b, gb = theta, val
            else:
                a, ga = theta, val
            nxt = 0.5 * (a + b)
        if abs(nxt - theta) <= 1e-16:
            return nxt
        theta = nxt
    return theta


def _dedup_pairs(pairs: list[EigenPair], dedup_tol: float) -> list[EigenPair]:
    kept: list[EigenPair] = []
    for p in sorted(pairs, key=lambda q: q.residual):
        dup = any(
            abs(p.value - k.value) <= dedup_tol * max(1.0, abs(k.value))
            and np.max(np.abs(p.vector - k.vector)) <= dedup_tol
            for k in kept
        )
        if not dup:
            kept.append(p)
    kept.sort(key=lambda p: (-abs(p.value), tuple(p.vector)))
    return kept


# -- iterative path for larger modes --------------------------------------------


def _fit_scale(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per column, the least-squares c in ``f = c * w``; 0 where ``w`` is zero."""
    denom = np.sum(w * w, axis=0)
    nonzero = denom > 0
    return np.where(nonzero, np.sum(f * w, axis=0) / np.where(nonzero, denom, 1.0), 0.0)


def _damped_newton(residual, jacobian, v, scale, iters=50, tol=1e-13):
    """Damped Gauss-Newton on every column of ``v`` at once.

    ``residual`` maps an ``(n, C)`` block of points to their ``(r, C)``
    residuals and ``jacobian`` to their exact ``(C, r, n)`` Jacobians.  Per
    column: stop once ``max|residual| <= tol * scale``; otherwise take the
    minimum-norm least-squares step and halve it, at most 20 times, until the
    residual's 2-norm drops; a column whose residual never drops stops there.
    """
    v = np.array(v, dtype=float)
    g = residual(v)
    cols = np.arange(v.shape[1])
    for _ in range(iters):
        cols = cols[np.max(np.abs(g[:, cols]), axis=0) > tol * scale]
        if not cols.size:
            break
        jac = jacobian(v[:, cols])
        # lstsq rejects non-finite systems; such a column stops where it is
        finite = np.all(np.isfinite(jac), axis=(1, 2)) & np.all(np.isfinite(g[:, cols]), axis=0)
        cols, jac = cols[finite], jac[finite]
        if not cols.size:
            break
        try:
            u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        except np.linalg.LinAlgError:
            break
        # singular values below lstsq's default cutoff are dropped, as lstsq does
        kept = sv > np.finfo(float).eps * max(jac.shape[1:]) * sv[:, :1]
        coef = np.einsum("crk,rc->ck", u, g[:, cols])
        coef = np.where(kept, coef / np.where(kept, sv, 1.0), 0.0)
        step = -np.einsum("ckn,ck->nc", vt, coef)
        base = np.linalg.norm(g[:, cols], axis=0)
        pending = np.ones(cols.size, dtype=bool)
        t = 1.0
        for _ in range(20):
            idx = np.flatnonzero(pending)
            cand = v[:, cols[idx]] + t * step[:, idx]
            gc = residual(cand)
            better = np.linalg.norm(gc, axis=0) < base[idx]
            v[:, cols[idx[better]]] = cand[:, better]
            g[:, cols[idx[better]]] = gc[:, better]
            pending[idx[better]] = False
            if not pending.any():
                break
            t /= 2.0
        cols = cols[~pending]
    return v


def _eig_system(arr, mode, power):
    """Residual and exact Jacobian of the eigen system at the columns ``[x; lambda]``.

    The system is ``F_mode(x, .., x) - lambda * x^power = 0`` with
    ``x . x = 1``.  ``dF_mode/dx`` sums, over the other modes ``j``, the
    tensor contracted with ``x`` on every mode except ``mode`` and ``j``.
    """
    m = arr.shape[0]

    def residual(v):
        x, lam = v[:m], v[m]
        return np.vstack([_contract_all_but_batch(arr, mode, x) - lam * x**power, np.sum(x * x, axis=0) - 1.0])

    def jacobian(v):
        x, lam = v[:m], v[m]
        jac = np.zeros((x.shape[1], m + 1, m + 1))
        for j in range(1, arr.ndim + 1):
            if j != mode:
                jac[:, :m, :m] += np.moveaxis(_contract_all_but_batch(arr, (mode, j), x), -1, 0)
        diag = np.arange(m)
        jac[:, diag, diag] -= (power * lam * x ** (power - 1)).T
        jac[:, :m, m] = -(x**power).T
        jac[:, m, :m] = 2.0 * x.T
        return jac

    return residual, jacobian


def _eig_iterative(arr, mode, variant, tol, max_iters, seed, starts, dedup_tol):
    order = arr.ndim
    m = arr.shape[0]
    power = 1 if variant == "z" else order - 1
    symmetric = is_symmetric(DenseTensor(arr), tol=1e-12)
    shift = 1.0 + float(np.sum(np.abs(arr)))
    nonneg = bool(np.all(arr >= 0.0))

    seeds: list[np.ndarray] = [np.eye(m)[:, r] for r in range(m)]
    u, _, _ = np.linalg.svd(_mode_unfolding(arr, mode), full_matrices=False)
    seeds.extend(u[:, r] for r in range(u.shape[1]))
    g = np.random.default_rng(seed)
    while len(seeds) < starts:
        v = g.normal(size=m)
        seeds.append(v / np.linalg.norm(v))
    seeds = seeds[:starts]
    x = np.column_stack(seeds) if seeds else np.zeros((m, 0))

    def F(x):
        return _contract_all_but_batch(arr, mode, x)

    update = None
    if variant == "z" and symmetric:
        # each start runs both shifted maps (Kolda & Mayo 2011), which converge
        # monotonically to local maxima and minima: column 2s adds F, 2s+1 subtracts it
        x = np.repeat(x, 2, axis=1)
        sign = np.tile([1.0, -1.0], x.shape[1] // 2)

        def update(k, cur, cols):
            return sign[cols] * F(cur[0]) + shift * cur[0]

    elif variant == "z":

        def update(k, cur, cols):
            return F(cur[0])

    elif nonneg:
        # entrywise-root iteration is valid on the nonnegative path; a negative
        # entry of F stops the start, signalled as a zero update
        x = np.abs(x)

        def update(k, cur, cols):
            f = F(cur[0])
            y = np.maximum(f, 0.0) ** (1.0 / (order - 1)) if order > 2 else f
            return np.where(np.any(f < 0.0, axis=0), 0.0, y)

    if update is not None:
        (x,), _ = _power_sweeps(update, [x], 2, 1e-14, max_iters)

    scale = 1.0 + float(np.max(np.abs(arr)))
    v = _damped_newton(*_eig_system(arr, mode, power), np.vstack([x, _fit_scale(F(x), x**power)]), scale)
    x, lam = v[:m], v[m]
    if variant == "h":
        # the h equation is homogeneous; renormalize the records
        nrm = np.linalg.norm(x, axis=0)
        x = np.where(nrm > 0, x / np.where(nrm > 0, nrm, 1.0), x)
        lam = np.where(nrm > 0, _fit_scale(F(x), x**power), lam)
    res = np.max(np.abs(F(x) - lam * x**power), axis=0)
    pairs = [
        EigenPair(variant, mode, lam[c], x[:, c], res[c], converged=bool(res[c] <= tol))
        for c in range(x.shape[1])
    ]
    good = [p for p in pairs if p.converged]
    # the t = -1 orbit of a solution (eig_orbit) is a solution with the same residual
    good = _dedup_pairs(good + [eig_orbit(p, -1.0, order) for p in good], dedup_tol)
    if good:
        return good
    if pairs:
        best = min(pairs, key=lambda p: p.residual)
        return [best]
    return []


def find_eigenpairs(
    t: DenseTensor,
    mode: int,
    variant: str,
    *,
    tol: float = 1e-10,
    grid: int = 2048,
    newton_iters: int = 50,
    newton_tol: float = 1e-13,
    dedup_tol: float = 1e-8,
    max_iters: int = 500,
    seed: int = 0,
    starts: int = 32,
) -> list[EigenPair]:
    """Mode-``mode`` eigenpairs of a cubical tensor, deduplicated and sorted.

    For modes of size 2 the unit circle is sampled on ``grid`` points, sign
    changes of the collinearity defect are bracketed and Newton-refined; this
    finds every isolated solution deterministically (``seed`` is unused).
    For larger modes all ``starts`` run at once, one per column, through a
    power iteration: on symmetric input each z start runs both shifted maps,
    other z input the unshifted map, and h starts on nonnegative input the
    entrywise-root map (other h starts skip it).  Every end point is then
    polished by damped Newton with the exact Jacobian, and the sign partner
    (`eig_orbit` with ``t = -1``) of every converged record is added before
    deduplication.  Completeness is not claimed there.  Pairs are sorted by
    decreasing |value|, then vector.

    Every returned pair satisfies ``eig_residual <= tol`` except when nothing
    converged at all, in which case the single best non-converged record is
    returned flagged (``converged=False``).
    """
    arr = _as_array(t)
    m = _check_cubical(arr)
    if not 1 <= mode <= arr.ndim:
        raise IndexError(f"mode {mode} out of range [1, {arr.ndim}]")
    variant = variant.lower()
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be 'z' or 'h', got {variant!r}")
    if m == 2:
        return _circle_solve(arr, mode, variant, grid, newton_iters, newton_tol, tol, dedup_tol)
    return _eig_iterative(arr, mode, variant, tol, max_iters, seed, starts, dedup_tol)


def find_eigenpairs_contract_trailing(t: DenseTensor, variant: str, **opts) -> list[EigenPair]:
    """Eigenpairs with the vector contracted on the trailing O-1 modes (mode 1)."""
    return find_eigenpairs(t, 1, variant, **opts)


def find_eigenpairs_contract_leading(t: DenseTensor, variant: str, **opts) -> list[EigenPair]:
    """Eigenpairs with the vector contracted on the leading O-1 modes (mode O)."""
    return find_eigenpairs(t, _as_array(t).ndim, variant, **opts)


def eig_orbit(pair: EigenPair, t_scale: float, order: int, tensor: DenseTensor | None = None) -> EigenPair:
    """The equivalent eigenpair with the vector rescaled by ``t_scale``.

    z variant: ``(t^(O-2) * lambda, t * x)``; h variant the eigenvalue does
    not depend on the magnitude, so only the vector scales.  Both defining
    equations rescale by exactly ``t^(O-1)``, so the output residual is the
    input residual times ``|t|^(O-1)`` (re-evaluated against ``tensor`` when
    one is supplied).  The output vector is generally not unit norm.
    """
    if t_scale == 0.0:
        raise ValueError("orbit scale must be nonzero")
    if order < 1:
        raise ValueError("order must be >= 1")
    value = pair.value * t_scale ** (order - 2) if pair.variant == "z" else pair.value
    vector = t_scale * pair.vector
    if tensor is not None:
        residual = _eig_defect(_as_array(tensor), pair.variant, pair.mode, value, vector)
    else:
        residual = pair.residual * abs(t_scale) ** (order - 1)
    return EigenPair(pair.variant, pair.mode, value, vector, residual, pair.converged)


# -- singular tuples -------------------------------------------------------------


def _lp_normalize(v: np.ndarray, p: int) -> np.ndarray:
    nrm = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if nrm == 0.0:
        raise ZeroDivisionError
    return v / nrm


def _signed_root(v: np.ndarray, k: int) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** (1.0 / k)


def _tuple_system(arr, p):
    """Residual and exact Jacobian of the singular system at the columns ``[x_1; ..; x_O; sigma]``.

    The rows are ``F_o - sigma * x_o^power`` for every mode ``o``, then
    ``sum |x_o|^p - 1`` for every mode.  The block ``dF_o/dx_j`` is the
    tensor contracted with the vectors on every mode except ``o`` and ``j``.
    """
    order = arr.ndim
    power = 1 if p == 2 else order - 1
    offsets = np.cumsum([0] + list(arr.shape))
    n = int(offsets[-1])

    def residual(v):
        xs, sig = np.split(v[:n], offsets[1:-1]), v[n]
        eqs = [_contract_all_but_batch(arr, o + 1, xs[:o] + xs[o + 1:]) - sig * xs[o] ** power for o in range(order)]
        norms = np.array([np.sum(np.abs(x) ** p, axis=0) - 1.0 for x in xs])
        return np.vstack(eqs + [norms])

    def jacobian(v):
        xs, sig = np.split(v[:n], offsets[1:-1]), v[n]
        jac = np.zeros((v.shape[1], n + order, n + 1))
        for o in range(order):
            rows = slice(offsets[o], offsets[o + 1])
            for j in range(o + 1, order):
                cols = slice(offsets[j], offsets[j + 1])
                rest = [xs[k] for k in range(order) if k not in (o, j)]
                block = np.moveaxis(_contract_all_but_batch(arr, (o + 1, j + 1), rest), -1, 0)
                jac[:, rows, cols] = block
                jac[:, cols, rows] = np.swapaxes(block, 1, 2)
            diag = np.arange(offsets[o], offsets[o + 1])
            jac[:, diag, diag] = -(power * sig * xs[o] ** (power - 1)).T
            jac[:, rows, n] = -(xs[o] ** power).T
            jac[:, n + o, rows] = (p * np.sign(xs[o]) * np.abs(xs[o]) ** (p - 1)).T
        return jac

    return residual, jacobian


def _canonical_tuple_signs(xs: list[np.ndarray], sigma: float, p: int, order: int):
    """Deterministic sign gauge so flip-equivalent records dedup together."""

    def first_nonzero_sign(v):
        for val in v:
            if abs(val) > 1e-12:
                return 1.0 if val > 0 else -1.0
        return 1.0

    xs = [x.copy() for x in xs]
    if p == 2 or order % 2 == 0:
        for o in range(order):
            if first_nonzero_sign(xs[o]) < 0:
                xs[o] = -xs[o]
                sigma = -sigma
    else:
        # odd order, p = O: only the global flip (scale t = -1) is available
        if first_nonzero_sign(xs[0]) < 0:
            xs = [-x for x in xs]
    return xs, sigma


def find_singular_tuples(
    t: DenseTensor,
    p: int,
    *,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
    starts: int = 32,
    dedup_tol: float = 1e-8,
) -> list[SingularTuple]:
    """Singular value tuples by multi-start alternating power iteration.

    ``p`` must be 2 or the tensor order.  Starts combine per-mode leading
    singular vectors of the matricizations, coordinate vectors, and seeded
    random draws; all of them run at once through the cyclic update
    ``x_o <- normalize_p(F_o)`` (with entrywise signed roots feeding the lO
    variant) until no factor moves by more than 1e-13 over a sweep, and are
    then tightened by a least-squares Newton pass on the coupled system.  A
    start whose iterate collapses to zero restarts from the derived seed
    ``seed + starts + k`` (k = 1, 2, ...), at most ``starts`` times in all.
    A record is flagged converged when its residual is at most ``tol`` and
    every factor's p-norm is within ``tol`` of 1.  The result is
    deduplicated under the sign gauge and sorted by decreasing |sigma|;
    completeness is not claimed (the problem is NP-hard in general).
    """
    arr = _as_array(t)
    order = arr.ndim
    if p not in (2, order):
        raise ValueError(f"p must be 2 or the tensor order {order}, got {p}")
    dims = arr.shape
    power = 1 if p == 2 else order - 1
    offsets = np.cumsum([0] + list(dims))
    n = int(offsets[-1])

    svd_starts = []
    factors = [np.linalg.svd(_mode_unfolding(arr, o), full_matrices=False)[0] for o in range(1, order + 1)]
    for r in range(min(dims)):
        svd_starts.append([factors[o][:, r] for o in range(order)])
    coord_starts = []
    for r in range(min(dims)):
        coord_starts.append([np.eye(d)[:, r] for d in dims])

    g = np.random.default_rng(seed)
    seeds = svd_starts + coord_starts
    while len(seeds) < starts:
        seeds.append([g.normal(size=d) for d in dims])
    seeds = seeds[:starts]

    def update(k, cur, cols):
        f = _contract_all_but_batch(arr, k + 1, cur[:k] + cur[k + 1:])
        return f if p == 2 else _signed_root(f, order - 1)

    residual, jacobian = _tuple_system(arr, p)
    scale = 1.0 + float(np.max(np.abs(arr)))

    def run(group) -> list[SingularTuple | None]:
        blocks = [np.column_stack([s[o] for s in group]) for o in range(order)]
        blocks = [b / np.linalg.norm(b, axis=0) for b in blocks]
        blocks, status = _power_sweeps(update, blocks, p, 1e-13, max_iters)
        live = np.flatnonzero(status >= 0)
        xs = [b[:, live] for b in blocks]
        sigma0 = _fit_scale(_contract_all_but_batch(arr, 1, xs[1:]), xs[0] ** power)
        v = _damped_newton(residual, jacobian, np.vstack(xs + [sigma0]), scale)
        res = np.max(np.abs(residual(v)[:n]), axis=0)
        xs, sigma = np.split(v[:n], offsets[1:-1]), v[n]
        unit = np.all([np.abs(np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p) - 1.0) <= tol for x in xs], axis=0)
        out: list[SingularTuple | None] = [None] * len(group)
        for c, s in enumerate(live):
            vecs, sig = _canonical_tuple_signs([x[:, c] for x in xs], sigma[c], p, order)
            out[s] = SingularTuple(p, sig, tuple(vecs), res[c], converged=bool(res[c] <= tol and unit[c]))
        return out

    results = run(seeds) if seeds else []
    restarts = 0
    while None in results and restarts < starts:
        # a zero iterate killed these starts; fill their slots, in order, from
        # fresh derived seeds run in order until the slots or the budget run out
        dead = [i for i, r in enumerate(results) if r is None]
        fresh = [
            [np.random.default_rng(seed + starts + restarts + k).normal(size=d) for d in dims]
            for k in range(1, min(len(dead), starts - restarts) + 1)
        ]
        restarts += len(fresh)
        for i, r in zip(dead, [r for r in run(fresh) if r is not None]):
            results[i] = r
    tuples = [r for r in results if r is not None]
    good = _dedup_tuples([r for r in tuples if r.converged], dedup_tol)
    if good:
        return good
    if tuples:
        return [min(tuples, key=lambda r: r.residual)]
    return []


def _dedup_tuples(tuples: list[SingularTuple], dedup_tol: float) -> list[SingularTuple]:
    kept: list[SingularTuple] = []
    for t in sorted(tuples, key=lambda r: r.residual):
        dup = False
        for k in kept:
            if abs(t.sigma - k.sigma) > dedup_tol * max(1.0, abs(k.sigma)):
                continue
            if all(
                np.max(np.abs(a - b)) <= dedup_tol
                for a, b in zip(t.vectors, k.vectors)
            ):
                dup = True
                break
        if not dup:
            kept.append(t)
    kept.sort(key=lambda r: (-abs(r.sigma), tuple(np.concatenate(r.vectors))))
    return kept


def singular_orbit(
    tup: SingularTuple,
    *,
    scale: float | None = None,
    flip: Sequence[bool] | None = None,
    tensor: DenseTensor | None = None,
) -> SingularTuple:
    """Apply one equivalence operation to a singular tuple.

    ``scale=t``: every vector scales by ``t``; sigma scales by ``t^(O-2)``
    for p=2 and is unchanged for p=O.  ``flip``: a per-mode sign mask; an odd
    number of flips negates sigma, an even number leaves it unchanged.  For
    the lO variant with odd order there is no sign indeterminacy and flips
    are rejected.  Flips preserve the residual exactly; scaling multiplies it
    by ``|t|^(O-1)`` (re-evaluated when ``tensor`` is given).
    """
    if (scale is None) == (flip is None):
        raise ValueError("give exactly one of scale= or flip=")
    order = tup.order
    if scale is not None:
        if scale == 0.0:
            raise ValueError("orbit scale must be nonzero")
        vectors = tuple(scale * v for v in tup.vectors)
        sigma = tup.sigma * scale ** (order - 2) if tup.p == 2 else tup.sigma
        residual = tup.residual * abs(scale) ** (order - 1)
    else:
        flip = tuple(bool(b) for b in flip)
        if len(flip) != order:
            raise ValueError(f"flip mask needs {order} entries, got {len(flip)}")
        if tup.p != 2 and order % 2 == 1 and any(flip):
            raise ValueError("lO tuples of odd order admit no sign flips")
        vectors = tuple(-v if b else v for v, b in zip(tup.vectors, flip))
        sigma = -tup.sigma if sum(flip) % 2 == 1 else tup.sigma
        residual = tup.residual
    out = SingularTuple(tup.p, sigma, vectors, residual, tup.converged)
    if tensor is not None:
        out = replace(out, residual=singular_residual(tensor, out))
    return out


@dataclass(frozen=True)
class BestRankOne:
    """Best rank-one approximation found: sigma, unit factors, the tensor, and its error."""

    sigma: float
    vectors: tuple[np.ndarray, ...]
    tensor: DenseTensor
    error: float


def best_rank_one(t: DenseTensor, **opts) -> BestRankOne:
    """Best rank-one approximation via the top l2 singular tuple.

    The largest l2 singular value equals the product of the factor norms of
    the best rank-one approximation, and the unit factors are its singular
    vectors.  On the zero tensor sigma is 0 and the vectors are (arbitrary)
    coordinate unit vectors.
    """
    arr = _as_array(t)
    if not np.any(arr):
        vectors = tuple(np.eye(d)[:, 0] for d in arr.shape)
        return BestRankOne(0.0, vectors, DenseTensor(np.zeros(arr.shape)), 0.0)
    tuples = find_singular_tuples(t, 2, **opts)
    top = max(tuples, key=lambda r: abs(r.sigma)).with_nonnegative_sigma()
    rank_one = top.sigma * outer(*top.vectors)
    err = float(np.linalg.norm(arr - rank_one.to_array()))
    return BestRankOne(top.sigma, top.vectors, rank_one, err)


@dataclass(frozen=True)
class BridgeResult:
    """Outcome of promoting a z-eigenpair to an O-copies singular tuple.

    ``status`` is "ok" with the tuple set, or "mode_mismatch" when the vector
    is not an eigenvector of every mode with one shared eigenvalue
    (``per_mode_residuals`` shows which equations fail).
    """

    status: str
    tuple: SingularTuple | None
    per_mode_residuals: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def eig_singular_bridge(t: DenseTensor, pair: EigenPair, tol: float = 1e-10) -> BridgeResult:
    """O copies of an eigenvector form a singular tuple iff it is an
    eigenvector for every mode with the same eigenvalue.

    Checks the z equation of ``pair`` against all modes; on success returns
    the l2 tuple with ``sigma = |lambda|`` and signs arranged to keep sigma
    nonnegative.  Precondition failure is reported in the result status, not
    raised.
    """
    arr = _as_array(t)
    _check_cubical(arr)
    if pair.variant != "z":
        raise ValueError("the bridge is defined for z-eigenpairs")
    order = arr.ndim
    nrm = float(np.linalg.norm(pair.vector))
    if nrm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    # renormalize the record first (scale rule with t = 1/||x||)
    x = pair.vector / nrm
    lam = pair.value / nrm ** (order - 2)
    residuals = tuple(
        _eig_defect(arr, "z", o, lam, x) for o in range(1, order + 1)
    )
    if any(r > tol for r in residuals):
        return BridgeResult("mode_mismatch", None, residuals)
    if lam >= 0:
        vectors = tuple(x.copy() for _ in range(order))
        sigma = lam
    else:
        vectors = (-x,) + tuple(x.copy() for _ in range(order - 1))
        sigma = -lam
    tup = SingularTuple(2, sigma, vectors, 0.0)
    tup = replace(tup, residual=singular_residual(t, tup))
    return BridgeResult("ok", tup, residuals)
