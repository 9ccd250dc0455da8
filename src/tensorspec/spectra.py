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
* lO singular tuple: same with ``sigma * sign(x_o) |x_o|^(O-1)`` (entrywise;
  the plain power for even O) and unit lO norms, Lim's l^p tuple for p = O
  (Lim 2005, "Singular values and eigenvalues of tensors: a variational
  approach"): a critical point of ``T(x_1, .., x_O) / prod_o ||x_o||_O``.
  For both kinds every single-mode flip (``x_o -> -x_o``, ``sigma -> -sigma``)
  is a symmetry; each class is reported once, under a sign gauge.

Both solvers solve ``T / max|T|`` and scale lambda, sigma and the residual
back, so records do not depend on the tensor's scale and a record is
converged when its residual is at most ``tol * max|T|``.

Solvers are heuristic for modes of size >= 3 (the general problems are
NP-hard).  On 2-dimensional modes the eigen equation holds at a unit
``x = (x_0, x_1)`` exactly where the binary form
``f_0(x) x_1^p - f_1(x) x_0^p`` vanishes (``p`` = 1 for z, ``O - 1`` for h;
degree ``O`` or ``2(O - 1)``).  Its coefficients are built from the tensor
entries and its real root lines found with `np.roots`, a multiple root line
once, so every isolated solution is reported unless two lie closer than the
rounding spread of a double root.

Both sign choices of an eigenvector solve the equations and are reported as
distinct records, matching the convention of listing plus/minus pairs
explicitly.

Every spectral solve has three steps.  Starts: `_starts` builds every
start (on size-2 modes the root lines of the binary form are the starts),
and `contract._power_sweeps` runs them as the columns of one matrix where a
map converges (tuple starts, z starts on symmetric input, h starts on
nonnegative input).  Polish: `_damped_newton` on the system's residual (one
batched LU per step on the square eigen system, the truncated SVD on the
tuple system and at exactly singular Jacobians), then `_gate` reads that
residual once per column.  Finish: `_finish` reads the arrays of every
column once and returns the columns to report in printed order: the
converged ones, a column within ``_DEDUP_TOL`` (1e-8) of a lower-residual
one dropped, or when none converged the best one.  Record objects are built
for those columns only.  Each system, the eigen one (`_eig_system`) and the
singular one (`_tuple_system`), has one residual, which the Newton polish,
the gate and the public `eig_residual` and `singular_residual` all read;
``F_o`` is always the batched kernel `contract._contract_all_but_batch`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .contract import _check_run_opts, _contract_all_but_batch, _mode_unfolding, _power_sweeps
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
# records closer than this in the scalar (relative) and every vector entry are one
_DEDUP_TOL = 1e-8


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
        """Equivalent record with sigma >= 0 (the first vector flipped when needed)."""
        if self.sigma >= 0:
            return self
        return singular_orbit(self, flip=(True,) + (False,) * (self.order - 1))


def _check_cubical(arr: np.ndarray) -> int:
    if len(set(arr.shape)) != 1:
        raise ValueError(f"eigenpairs are defined for cubical tensors only, got shape {arr.shape}")
    return arr.shape[0]


def eig_residual(t: DenseTensor, pair: EigenPair) -> float:
    """Infinity-norm defect of the defining equation; zero iff exact."""
    arr = _as_array(t)
    m = _check_cubical(arr)
    if not 1 <= pair.mode <= arr.ndim:
        raise IndexError(f"mode {pair.mode} out of range [1, {arr.ndim}]")
    if pair.vector.shape != (m,):
        raise ValueError(f"vector length {pair.vector.size} does not match mode size {m}")
    residual, _ = _eig_system(arr, pair.mode, 1 if pair.variant == "z" else arr.ndim - 1)
    return float(np.max(np.abs(residual(np.append(pair.vector, pair.value)[:, None])[:m])))


def singular_residual(t: DenseTensor, tup: SingularTuple) -> float:
    """Max over modes of the per-equation infinity-norm defect."""
    arr = _as_array(t)
    order = arr.ndim
    if tup.order != order:
        raise ValueError(f"tuple has {tup.order} vectors, tensor has order {order}")
    for o, v in enumerate(tup.vectors, start=1):
        if v.shape != (arr.shape[o - 1],):
            raise ValueError(f"vector {o} length {v.size} does not match mode size {arr.shape[o - 1]}")
    residual, _ = _tuple_system(arr, tup.p)
    v = np.append(np.concatenate(tup.vectors), tup.sigma)[:, None]
    return float(np.max(np.abs(residual(v)[: sum(arr.shape)])))


def _gate(residual, v, n: int, tol: float):
    """Per column of ``v``, the record's residual and whether it converged.

    The residual is the largest defect of the ``n`` equation rows; converged
    means every row, the norm rows included, is within ``tol``.
    """
    g = np.abs(residual(v))
    return np.max(g[:n], axis=0), np.all(g <= tol, axis=0)


def _finish(s, v, res, ok, top: float) -> list:
    """The columns a solve returns, given per column its scalar, ``(n, C)`` entries, residual and gate.

    The converged columns are taken in stable residual order, and one within
    ``_DEDUP_TOL`` of a column already kept (the scalar relative to
    ``max(1, |kept|)``, every entry absolute) is dropped.  When none
    converged, the first lowest-residual column is returned alone.  The
    result is sorted by decreasing ``|s * top|`` to 12 significant digits, as
    printed, then by the entries rounded to 12 decimals; Python's ``.12g`` and
    `round` are used because `np.round` rounds ties differently.
    """
    if not ok.any():
        return [int(np.argmin(res))] if res.size else []
    good = np.flatnonzero(ok)
    rest = good[np.argsort(res[good], kind="stable")]
    kept = []
    # the first column left is kept, and the columns after it within the tolerance
    # of it are dropped; entries are compared only where the scalars are near
    while rest.size:
        c, rest = rest[0], rest[1:]
        kept.append(c)
        near = np.abs(s[rest] - s[c]) <= _DEDUP_TOL * max(1.0, abs(s[c]))
        if near.any():
            near[near] = np.max(np.abs(v[:, rest[near]] - v[:, c, None]), axis=0) <= _DEDUP_TOL
            rest = rest[~near]
    scaled = (s * top).tolist()
    return sorted(kept, key=lambda c: (-float(f"{abs(scaled[c]):.12g}"), [round(e, 12) for e in v[:, c].tolist()]))


def _starts(arr: np.ndarray, modes, count: int, seed: int) -> list[np.ndarray]:
    """One ``(M_o, count)`` block of unit start columns for each mode ``o`` in ``modes``.

    With ``R`` the smallest listed mode size, columns ``0 .. R-1`` are the
    leading left singular vectors of each mode's unfolding, columns
    ``R .. 2R-1`` the first ``R`` coordinate vectors, and every later column
    takes one ``default_rng(seed).normal`` draw per mode, mode by mode.  The
    blocks keep their first ``count`` columns.  The draws are one
    ``(count - 2R, sum M_o)`` block, split by mode, and each is divided by
    the square root of its own dot product (a batched ``w @ w``, the dot
    that `np.linalg.norm` takes), so every column has the bits of a
    per-column draw and norm.
    """
    dims = [arr.shape[o - 1] for o in modes]
    r = min(dims)
    lead = [np.linalg.svd(_mode_unfolding(arr, o), full_matrices=False)[0][:, :r] for o in modes]
    draws = np.random.default_rng(seed).normal(size=(max(count - 2 * r, 0), sum(dims)))
    blocks = []
    for u, d, w in zip(lead, dims, np.split(draws, np.cumsum(dims)[:-1], axis=1)):
        nrm = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0]
        blocks.append(np.hstack([u, np.eye(d, r), (w / nrm).T])[:, :count])
    return blocks


# -- exact path for 2-dimensional modes -----------------------------------------


def _binary_form(arr: np.ndarray, mode: int, power: int) -> np.ndarray:
    """Coefficients of ``g(x) = f_0(x) x_1^power - f_1(x) x_0^power`` on a size-2 mode.

    ``f = F_mode(x, .., x)``; ``g[k]`` multiplies ``x_0^(D-k) x_1^k``.  A unit
    ``x`` solves the eigen equation exactly where ``g`` vanishes.  Entry
    ``(i, rest)`` of the tensor adds to the coefficient of ``f_i`` counted by
    the number of 1-indices in ``rest``.
    """
    order = arr.ndim
    cols = np.moveaxis(arr, mode - 1, 0).reshape(2, -1)
    ones = np.array([bin(c).count("1") for c in range(cols.shape[1])])
    f = np.stack([np.bincount(ones, weights=row, minlength=order) for row in cols])
    g = np.zeros(order + power)
    g[power:] += f[0]
    g[:order] -= f[1]
    return g


def _taylor(p: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``p^(j)(at) / j!`` for j = 0 .. deg p along a new last axis; ``p`` in `np.polyval` order."""
    d = np.arange(p.size)
    binomials = np.array([[math.comb(i, j) for i in d] for j in d], dtype=float)
    return np.einsum("ji,...ji->...j", binomials * p[::-1], at[..., None, None] ** np.maximum(d - d[:, None], 0))


def _split_roots(p: np.ndarray, groups: np.ndarray, noise: float) -> np.ndarray:
    """``fits[..., k - 1]``: the first k roots of ``groups[...]`` are one k-fold root of ``p`` split by rounding.

    Let ``a_j = p^(j)(mu) / j!`` be the Taylor coefficients of ``p`` at the
    mean ``mu`` of k roots, ``n_j`` the most they move when every coefficient
    of ``p`` moves by ``noise``, and ``r`` the spread of the roots about
    ``mu``.  Moving ``a_0`` by ``n_0`` splits a k-fold root into k roots with
    ``|a_k| r^k`` about ``n_0``, so a split root has ``|a_k| r^k <= n_0``.
    And k roots within ``r`` of ``mu`` make ``|a_j|`` at most about
    ``C(k, j) |a_k| r^(k - j) <= 2^k |a_k| r^(k - j)`` for j < k (Vieta);
    that must hold too, up to ``n_j`` and a slack of 2^k, so that spread roots
    whose mean merely has a small ``a_k`` are not taken for one multiple root.
    """
    size = groups.shape[-1]
    k = np.arange(1, size + 1)
    j = np.arange(p.size)
    mu = np.cumsum(groups, axis=-1) / k
    r = np.max(np.abs(groups[..., None, :] - mu[..., None]) * np.tri(size), axis=-1, initial=0.0)
    a = np.abs(_taylor(p, mu))
    n = noise * _taylor(np.ones(p.size), np.abs(mu))
    a_k = a[..., k - 1, k]
    split = a_k * r**k <= n[..., 0]
    k, a_k, r = k[:, None], a_k[..., None], r[..., None]
    vieta = n + 4.0**k * a_k * r ** np.maximum(k - j, 0)
    return split & np.all((a <= vieta) | (j >= k), axis=-1)


def _root_clusters(p: np.ndarray, roots: np.ndarray, noise: float) -> list:
    """The roots of the polynomial ``p``, a multiple root once, as the mean of its cluster.

    A root and its k - 1 nearest roots are one k-fold root when
    `_split_roots` allows it and none of them is taken yet.  Larger clusters
    are taken first, so a simple root next to a wide multiple one, which may
    pass with part of it, stays alone.  The roots left over stand alone.
    """
    near = np.argsort(np.abs(roots[:, None] - roots[None, :]), axis=1, kind="stable")
    fits = _split_roots(p, roots[near], noise)
    means, taken = [], np.zeros(roots.size, dtype=bool)
    for k in range(roots.size, 1, -1):
        for i in np.flatnonzero(fits[:, k - 1]):
            if not taken[near[i, :k]].any():
                taken[near[i, :k]] = True
                means.append(roots[near[i, :k]].mean())
    return means + list(roots[~taken])


def _root_lines(g: np.ndarray, noise: float) -> np.ndarray:
    """One unit column per real root line of the binary form ``g``.

    Roots come from both charts, ``t = x_1/x_0`` and ``s = x_0/x_1``, each
    keeping those of modulus <= 1 so the line ``x_0 = 0`` is covered.  A
    k-fold root comes out of `np.roots` as k roots about eps^(1/k) apart;
    `_root_clusters` merges them, taking ``noise`` as the rounding level of
    the coefficients.
    """
    cols = []
    for coeffs, line in ((g[::-1], lambda r: (1.0, r)), (g, lambda r: (r, 1.0))):
        roots = np.roots(coeffs)
        # a cluster with its mean in the unit disc lies well inside modulus 2
        for r in _root_clusters(coeffs, roots[np.abs(roots) <= 2.0], noise):
            if abs(r.imag) <= 1e-9 and abs(r) <= 1.0 + 1e-9:
                cols.append(line(r.real))
    x = np.array(cols, dtype=float).reshape(-1, 2).T
    return x / np.linalg.norm(x, axis=0)


def _size2_solve(arr, mode, variant, tol):
    """Every isolated solution on a size-2 mode of a tensor with max|T| = 1, from the real roots of the binary form.

    Returns None when the form vanishes identically (the solutions are not isolated).
    """
    power = 1 if variant == "z" else arr.ndim - 1
    g = _binary_form(arr, mode, power)
    # a coefficient sums 2^(O-1) entries of magnitude <= 1; below 2^O eps it is rounding
    noise = arr.size * np.finfo(float).eps
    g[np.abs(g) <= noise] = 0.0
    if not g.any():
        return None
    # np.roots adds rounding of its own to that of the coefficients
    return _polish(arr, mode, variant, _root_lines(g, 4.0 * noise), tol)


# -- iterative path for larger modes --------------------------------------------


# the step lengths `_damped_newton` tries, longest first
_LADDER = 0.5 ** np.arange(20)


def _fit_scale(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per column, the least-squares c in ``f = c * w``; 0 where ``w`` is zero."""
    denom = np.sum(w * w, axis=0)
    nonzero = denom > 0
    return np.where(nonzero, np.sum(f * w, axis=0) / np.where(nonzero, denom, 1.0), 0.0)


def _newton_step(jac: np.ndarray, g: np.ndarray):
    """The ``(n, C)`` steps of `_damped_newton` for ``(C, r, n)`` Jacobians and ``(r, C)`` residuals.

    None when the SVD does not converge.
    """
    if jac.shape[1] == jac.shape[2]:
        try:
            return -np.linalg.solve(jac, g.T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            pass
    try:
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    kept = sv > np.finfo(float).eps * max(jac.shape[1:]) * sv[:, :1]
    coef = np.einsum("crk,rc->ck", u, g)
    coef = np.where(kept, coef / np.where(kept, sv, 1.0), 0.0)
    return -np.einsum("ckn,ck->nc", vt, coef)


def _damped_newton(residual, jacobian, v, iters=50, tol=1e-13):
    """Damped Gauss-Newton on every column of ``v`` at once.

    ``residual`` maps an ``(n, C)`` block of points to their ``(r, C)``
    residuals and ``jacobian`` to their exact ``(C, r, n)`` Jacobians.  Per
    column: stop once ``max|residual| <= tol``; otherwise take the
    minimum-norm least-squares step scaled by the first of ``1, 1/2, ..,
    2^-19`` at which the residual's 2-norm drops; a column whose residual
    drops at none of them stops there.  The whole ladder is evaluated for
    every column in one residual call per iteration.

    Square systems (the eigen system) solve every step of an iteration with
    one batched LU.  Systems that are not square (the tuple system), and an
    iteration in which some Jacobian is exactly singular so that LU raises,
    take the truncated SVD: singular values below lstsq's default cutoff,
    ``eps * max(r, n) * sigma_max``, are dropped, as lstsq does.  Only a
    Jacobian singular to rounding has such values, so elsewhere the two
    steps agree to rounding.
    """
    v = np.array(v, dtype=float)
    g = residual(v)
    cols = np.arange(v.shape[1])
    for _ in range(iters):
        cols = cols[np.max(np.abs(g[:, cols]), axis=0) > tol]
        if not cols.size:
            break
        jac = jacobian(v[:, cols])
        # lstsq rejects non-finite systems; such a column stops where it is
        finite = np.all(np.isfinite(jac), axis=(1, 2)) & np.all(np.isfinite(g[:, cols]), axis=0)
        cols, jac = cols[finite], jac[finite]
        if not cols.size:
            break
        step = _newton_step(jac, g[:, cols])
        if step is None:
            break
        base = np.linalg.norm(g[:, cols], axis=0)
        cand = v[:, cols, None] + step[:, :, None] * _LADDER
        gc = residual(cand.reshape(v.shape[0], -1)).reshape(g.shape[0], cols.size, _LADDER.size)
        better = np.linalg.norm(gc, axis=0) < base[:, None]
        hit = np.flatnonzero(better.any(axis=1))
        level = better[hit].argmax(axis=1)
        cols = cols[hit]
        v[:, cols] = cand[:, hit, level]
        g[:, cols] = gc[:, hit, level]
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


def _eig_iterative(arr, mode, variant, tol, max_iters, seed, starts):
    order = arr.ndim
    [x] = _starts(arr, [mode], starts, seed)

    def F(x):
        return _contract_all_but_batch(arr, mode, x)

    if variant == "z" and is_symmetric(arr, tol=1e-12):
        # each start runs both shifted maps (Kolda & Mayo 2011), which converge
        # monotonically to local maxima and minima: column 2s adds F, 2s+1 subtracts it
        x = np.repeat(x, 2, axis=1)
        sign = np.tile([1.0, -1.0], x.shape[1] // 2)
        shift = float(np.sum(np.abs(arr)))

        def update(k, cur, cols):
            return sign[cols] * F(cur[0]) + shift * cur[0]

        (x,), _ = _power_sweeps(update, [x], 2, 1e-14, max_iters)

    elif variant == "h" and np.all(arr >= 0.0):
        # the entrywise-root map converges on nonnegative input (Ng, Qi & Zhou
        # 2009); from the starts |x| every F(x) stays nonnegative
        def update(k, cur, cols):
            return F(cur[0]) ** (1.0 / (order - 1))

        (x,), _ = _power_sweeps(update, [np.abs(x)], 2, 1e-14, max_iters)

    return _polish(arr, mode, variant, x, tol)


def _polish(arr, mode, variant, x, tol):
    """Damped-Newton polish of the start columns ``x``: ``(lam, x, res, ok)``, one entry per column.

    ``res`` and ``ok`` are `_gate`'s.  The polished columns are followed by
    the sign partner (`eig_orbit` with ``t = -1``) of every converged one:
    ``-x``, with ``(-1)^(O-2) lam`` for z and ``lam`` for h, the same
    residual, converged.
    """
    order, m = arr.ndim, arr.shape[0]
    power = 1 if variant == "z" else order - 1

    def F(x):
        return _contract_all_but_batch(arr, mode, x)

    residual, jacobian = _eig_system(arr, mode, power)
    v = _damped_newton(residual, jacobian, np.vstack([x, _fit_scale(F(x), x**power)]))
    x, lam = v[:m], v[m]
    if variant == "h":
        # the h equation is homogeneous; renormalize the records
        nrm = np.linalg.norm(x, axis=0)
        x = np.where(nrm > 0, x / np.where(nrm > 0, nrm, 1.0), x)
        lam = np.where(nrm > 0, _fit_scale(F(x), x**power), lam)
    res, ok = _gate(residual, np.vstack([x, lam]), m, tol)
    # the t = -1 orbit of a solution is a solution with the same residual
    sign = (-1.0) ** (order - 2) if variant == "z" else 1.0
    return np.append(lam, sign * lam[ok]), np.hstack([x, -x[:, ok]]), np.append(res, res[ok]), np.append(ok, ok[ok])


def find_eigenpairs(
    t: DenseTensor,
    mode: int,
    variant: str,
    *,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
    starts: int = 32,
) -> list[EigenPair]:
    """Mode-``mode`` eigenpairs of a cubical tensor, deduplicated and sorted.

    Every path solves ``T / max|T|`` (module docstring), so a record is
    converged when ``eig_residual <= tol * max|T|`` and ``|x . x - 1| <= tol``
    (`_gate`).  When the solutions are not isolated (every unit vector solves
    the zero tensor; on size-2 modes, whenever the binary form vanishes
    identically) a warning says so and ``[]`` is returned.
    For modes of size 2 the starts are one unit vector per real root line of
    the binary form (module docstring), taken in both charts ``x_1/x_0`` and
    ``x_0/x_1``.  The k roots into which rounding splits a k-fold root are
    merged into their mean, so a multiple root line gives one start.  Every
    isolated solution is found deterministically (``seed`` is unused,
    ``max_iters`` and ``starts`` are only checked), except that two distinct
    root lines closer than the rounding spread of a double root (a few 1e-7 rad
    for a 2x2x2 tensor) give one start and may be reported as one line.
    For larger modes the ``starts`` are the leading left singular vectors of
    the mode's unfolding, then coordinate vectors, then ``default_rng(seed)``
    normal draws (`_starts`), all run at once, one per column.  On symmetric
    input z starts first run both shifted power maps, on nonnegative input
    h starts the entrywise-root map; ``max_iters`` caps those sweeps only.
    Other starts go straight to Newton.  Completeness is not claimed there.
    Both paths polish every start by damped Newton with the exact Jacobian,
    add the sign partner (`eig_orbit` with ``t = -1``) of every converged
    record and share one finish: the converged records, deduplicated, or
    when nothing converged at all the single best non-converged record,
    flagged (``converged=False``).  On size-2 modes ``[]`` is returned when
    no root line is real.  Pairs are sorted by decreasing |value| to 12
    significant digits, then vector.  A tensor of order below 2, ``starts``
    or ``max_iters`` below 1 and ``tol`` below 0 or NaN raise `ValueError`
    on both paths, a ``starts`` or ``max_iters`` that is not an integer
    `TypeError`.
    """
    arr = _as_array(t)
    if arr.ndim < 2:
        raise ValueError(f"eigenpairs need a tensor of order >= 2, got order {arr.ndim}")
    m = _check_cubical(arr)
    if not 1 <= mode <= arr.ndim:
        raise IndexError(f"mode {mode} out of range [1, {arr.ndim}]")
    variant = variant.lower()
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be 'z' or 'h', got {variant!r}")
    _check_run_opts(tol, max_iters=max_iters, starts=starts)
    top = float(np.max(np.abs(arr)))
    solved = None
    if top > 0.0 and m == 2:
        solved = _size2_solve(arr / top, mode, variant, tol)
    elif top > 0.0:
        solved = _eig_iterative(arr / top, mode, variant, tol, max_iters, seed, starts)
    if solved is None:
        warnings.warn("the solutions form a continuous family, not isolated; no records are returned", stacklevel=2)
        return []
    lam, x, res, ok = solved
    return [
        EigenPair(variant, mode, lam[c] * top, x[:, c], res[c] * top, bool(ok[c]))
        for c in _finish(lam, x, res, ok, top)
    ]


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
    residual = pair.residual * abs(t_scale) ** (order - 1)
    out = EigenPair(pair.variant, pair.mode, value, t_scale * pair.vector, residual, pair.converged)
    if tensor is not None:
        out = replace(out, residual=eig_residual(tensor, out))
    return out


# -- singular tuples -------------------------------------------------------------


def _phi(v: np.ndarray, k: float) -> np.ndarray:
    """The signed power ``sign(v) |v|^k``, entrywise (``v`` itself at k = 1)."""
    return v if k == 1 else np.sign(v) * np.abs(v) ** k


def _tuple_system(arr, p):
    """Residual and exact Jacobian of the singular system at the columns ``[x_1; ..; x_O; sigma]``.

    The rows are ``F_o - sigma * phi(x_o, p - 1)`` (`_phi`) for every mode
    ``o``, then ``sum |x_o|^p - 1`` for every mode.  The block ``dF_o/dx_j``
    is the tensor contracted with the vectors on every mode except ``o`` and
    ``j``.
    """
    order = arr.ndim
    power = p - 1
    offsets = np.cumsum([0] + list(arr.shape))
    n = int(offsets[-1])

    def residual(v):
        xs, sig = np.split(v[:n], offsets[1:-1]), v[n]
        eqs = [_contract_all_but_batch(arr, o + 1, xs[:o] + xs[o + 1:]) - sig * _phi(xs[o], power) for o in range(order)]
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
            jac[:, diag, diag] = -(power * sig * np.abs(xs[o]) ** (power - 1)).T
            jac[:, rows, n] = -_phi(xs[o], power).T
            jac[:, n + o, rows] = (p * _phi(xs[o], p - 1)).T
        return jac

    return residual, jacobian


def find_singular_tuples(
    t: DenseTensor,
    p: int,
    *,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
    starts: int = 32,
) -> list[SingularTuple]:
    """Singular value tuples by multi-start alternating power iteration.

    ``p`` must be 2 or the tensor order, ``starts`` and ``max_iters``
    integers at least 1 and ``tol`` at least 0 (not NaN).  The starts are
    the per-mode leading left singular vectors of the unfoldings, then
    coordinate vectors, then ``default_rng(seed)`` normal draws: the first
    ``starts`` columns of `_starts` with count ``2 * starts``.  All of them
    run at once through the cyclic update
    ``x_o <- normalize_p(sign(F_o) |F_o|^(1/(p-1)))`` until no factor moves by
    more than 1e-13 over a sweep.  A start whose iterate collapses to zero is
    replaced once by the next unused column of that stream (column
    ``starts``, ``starts + 1``, ..), and the replacements run as one more
    such batch; a replacement that collapses too is dropped.  Every start
    is then tightened by a least-squares Newton pass on the coupled system.
    The tensor is solved as ``T / max|T|`` (module docstring): a record is
    flagged converged when every row of the system is within the gate,
    ``singular_residual <= tol * max|T|`` and every ``sum |x_o|^p - 1``
    within ``tol``.  The converged records are deduplicated under the sign
    gauge and sorted by decreasing |sigma| (12 significant digits), then
    entries; when none converged, the single best record is returned
    flagged.  Every unit tuple solves the zero tensor with sigma 0, so the
    solutions are not isolated: a warning says so and ``[]`` is returned.
    Completeness is not claimed (the problem is NP-hard in general).
    """
    arr = _as_array(t)
    order = arr.ndim
    if order < 2:
        raise ValueError(f"singular tuples need a tensor of order >= 2, got order {order}")
    if p not in (2, order):
        raise ValueError(f"p must be 2 or the tensor order {order}, got {p}")
    _check_run_opts(tol, max_iters=max_iters, starts=starts)
    top = float(np.max(np.abs(arr)))
    if top == 0.0:
        warnings.warn("the solutions form a continuous family, not isolated; no records are returned", stacklevel=2)
        return []
    arr = arr / top
    power = p - 1

    def update(k, cur, cols):
        return _phi(_contract_all_but_batch(arr, k + 1, cur[:k] + cur[k + 1:]), 1.0 / power)

    blocks = _starts(arr, range(1, order + 1), 2 * starts, seed)
    xs, status = _power_sweeps(update, [b[:, :starts] for b in blocks], p, 1e-13, max_iters)
    # a zero iterate killed these starts; each is replaced once by the next unused column
    dead = np.flatnonzero(status < 0)
    spare = [b[:, starts : starts + dead.size] for b in blocks]
    spare, status[dead] = _power_sweeps(update, spare, p, 1e-13, max_iters)
    for x, y in zip(xs, spare):
        x[:, dead] = y
    xs = [x[:, status >= 0] for x in xs]
    n = sum(arr.shape)
    sigma0 = _fit_scale(_contract_all_but_batch(arr, 1, xs[1:]), _phi(xs[0], power))
    residual, jacobian = _tuple_system(arr, p)
    v = _damped_newton(residual, jacobian, np.vstack(xs + [sigma0]))
    res, ok = _gate(residual, v, n, tol)
    xs, sigma = np.split(v[:n], np.cumsum(arr.shape)[:-1]), v[n]
    # sign gauge, so flip-equivalent records dedup together: in each mode the
    # first entry above 1e-12 in magnitude is made positive, each flip negating sigma
    for x in xs:
        big = np.abs(x) > 1e-12
        flip = big.any(axis=0) & (np.take_along_axis(x, big.argmax(axis=0)[None], 0)[0] < 0)
        x[:, flip] = -x[:, flip]
        sigma[flip] = -sigma[flip]
    return [
        SingularTuple(p, sigma[c] * top, tuple(x[:, c] for x in xs), res[c] * top, bool(ok[c]))
        for c in _finish(sigma, v[:n], res, ok, top)
    ]


def singular_orbit(
    tup: SingularTuple,
    *,
    scale: float | None = None,
    flip: Sequence[bool] | None = None,
    tensor: DenseTensor | None = None,
) -> SingularTuple:
    """Apply one equivalence operation to a singular tuple.

    ``scale=t``: every vector scales by ``t``; sigma scales by ``t^(O-2)``
    for p=2 and by ``sign(t)^(O-2)`` for p=O (phi is odd, so a negative
    ``t`` negates sigma at odd order).  ``flip``: a per-mode sign mask; an odd
    number of flips negates sigma, an even number leaves it unchanged.  Every
    mask is a symmetry of both variants at every order and preserves the
    residual exactly; scaling multiplies it by ``|t|^(O-1)`` (re-evaluated
    when ``tensor`` is given).
    """
    if (scale is None) == (flip is None):
        raise ValueError("give exactly one of scale= or flip=")
    order = tup.order
    if scale is not None:
        if scale == 0.0:
            raise ValueError("orbit scale must be nonzero")
        vectors = tuple(scale * v for v in tup.vectors)
        sigma = tup.sigma * (scale if tup.p == 2 else np.sign(scale)) ** (order - 2)
        residual = tup.residual * abs(scale) ** (order - 1)
    else:
        flip = tuple(bool(b) for b in flip)
        if len(flip) != order:
            raise ValueError(f"flip mask needs {order} entries, got {len(flip)}")
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
    raised; ``tol`` below 0 or NaN raises `ValueError`.
    """
    arr = _as_array(t)
    _check_cubical(arr)
    _check_run_opts(tol)
    if pair.variant != "z":
        raise ValueError("the bridge is defined for z-eigenpairs")
    order = arr.ndim
    nrm = float(np.linalg.norm(pair.vector))
    if nrm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    # renormalize the record first (scale rule with t = 1/||x||)
    x = pair.vector / nrm
    lam = pair.value / nrm ** (order - 2)
    residuals = tuple(eig_residual(t, EigenPair("z", o, lam, x, 0.0)) for o in range(1, order + 1))
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
