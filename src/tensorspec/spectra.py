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
converged when its residual is at most ``tol * max|T|``, the gate
`eig_singular_bridge` applies too.

Every solve runs in one canonical mode order (`_canonical_order`): the
scaled tensor is copied once, C-ordered, with the eigen mode first and the
other modes (for tuples, every mode) sorted by size, then by the sorted
energies of their slices.  So every eigen solve is a mode-1 solve, the
identity PAPER.md opens with, and tuple vectors are mapped back to the
given modes.  Records depend on the tensor alone up to relabeling:
relabeling the modes relabels the records bit for bit, unless two modes tie
on the sort key (energies are compared in single precision).

Solvers are heuristic for modes of size >= 3 (the general problems are
NP-hard).  On 2-dimensional modes the eigen equation holds at a unit
``x = (x_0, x_1)`` exactly where the binary form
``f_0(x) x_1^p - f_1(x) x_0^p`` vanishes (``p`` = 1 for z, ``O - 1`` for h;
degree ``O`` or ``2(O - 1)``).  Its coefficients are built from the tensor
entries, and its roots in both charts are the eigenvalues of their two
companion matrices, from one `np.linalg.eigvals` call (`_chart_roots`, the
roots `np.roots` gives).  Rounding splits a k-fold root line into k roots
about eps^(1/k) apart, which `_split_roots` merges, so a multiple root line
is reported once and every isolated solution is reported unless two lie
closer than the rounding spread of a double root.  That analysis runs only
on a chart where a proven bound on ``|g|`` at the means of the root groups
(`_cluster_bound`) admits a group; on most forms none is admitted.

Both sign choices of an eigenvector solve the equations and are reported as
distinct records, matching the convention of listing plus/minus pairs
explicitly.

Every spectral solve has three steps.  Starts: `contract._starts` builds
every start (on size-2 modes the root lines of the binary form are the
starts), and `contract._power_sweeps` runs them as the columns of one matrix where a map
converges (tuple starts, z starts on symmetric input, h starts on
nonnegative input); it tests the stops once per chunk of sweeps, on the
chunk's history, with the bits of a test after every sweep.  Polish:
`_damped_newton` on the system's residual, each step one `contract._lstsq`
solve, the least-squares kernel ALS also uses (one batched LU, as both
systems are square; the SVD only where a Jacobian is exactly singular),
then `_gate` reads that residual once per column.  Each system writes its
residual rows and its Jacobian in place, into one block per call.  An eigen polish evaluates ``F_1`` once per set of points: the
starts' one evaluation gives their fitted lambda, Newton's first residual
and, when Newton moves no column (on size-2 roots it takes no step), the
gate's residual; h records are renormalized and evaluated once more.  The
l2 tuple sweeps hand their starts to Newton once no factor moves by more
than ``_HANDOFF`` (1e-4), as the sweeps' tail is linear and Newton's
quadratic.  The lO sweeps run to 1e-13: the rows
``sigma_o sign(x)|x|^(O-1)`` have zero derivative at a zero entry, so an
lO solution with an exact zero entry is a singular root, from which Newton
converges only linearly and stops on near copies that do not dedup.
Finish: `_finish` reads the scalars of every column once, as Python floats,
and returns the columns to report in printed order: the converged ones, a
column within ``_DEDUP_TOL`` (1e-8) of a lower-residual one dropped, or
when none converged the best one.  Record objects are built for those columns only.
Each system, the eigen one (`_eig_system`) and the singular one
(`_tuple_system`), has one residual, which the Newton polish, the gate and
the public `eig_residual` and `singular_residual` all read; ``F_o`` is
always `contract._contract_all_but_batch` on plans built once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .contract import _column_norms, _contract_all_but_batch, _contract_plan, _lstsq, _power_sweeps, _starts
from .shape import _check_mode
from .tensor import DenseTensor, _as_array, _check_cubical, _check_order, _check_run_opts, _symmetric_input, frobenius_norm, outer

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
# the warning of a solve whose solutions are not isolated; `best_rank_one` filters on it as a regex, so it holds no metacharacters
_NOT_ISOLATED = "the solutions form a continuous family, not isolated; no records are returned"
# records closer than this in the scalar (relative) and every vector entry are one
_DEDUP_TOL = 1e-8
# the unit roundoff u of float64, eps / 2
_UNIT = np.finfo(float).eps / 2
# the l2 tuple sweeps stop once no factor moves by more than this; Newton finishes
_HANDOFF = 1e-4


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "mode", operator.index(self.mode))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True, eq=False)
class SingularTuple:
    """A (sigma, x_1..x_O) record with the max per-mode equation defect.

    ``p`` is 2 for the l2 variant or the tensor order, the number of vectors
    (at least two), for the lO variant; anything else raises `ValueError`.
    """

    p: int
    sigma: float
    vectors: tuple[np.ndarray, ...]
    residual: float
    converged: bool = True

    def __post_init__(self):
        vecs = tuple(np.asarray(v, dtype=float) for v in self.vectors)
        if len(vecs) < 2:
            raise ValueError("a singular tuple needs at least two vectors")
        p = operator.index(self.p)
        if p not in (2, len(vecs)):
            raise ValueError(f"p must be 2 or the number of vectors {len(vecs)}, got {p!r}")
        for v in vecs:
            v.flags.writeable = False
        object.__setattr__(self, "p", p)
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


def eig_residual(t: DenseTensor, pair: EigenPair) -> float:
    """Infinity-norm defect of the defining equation; zero iff exact."""
    arr = _as_array(t)
    m = _check_cubical(arr, "eigenpairs")
    _check_mode(pair.mode, arr.ndim)
    if pair.vector.shape != (m,):
        raise ValueError(f"vector length {pair.vector.size} does not match mode size {m}")
    residual, _ = _eig_system(np.moveaxis(arr, pair.mode - 1, 0), 1 if pair.variant == "z" else arr.ndim - 1)
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
    v = np.append(np.concatenate(tup.vectors), [tup.sigma] * order)[:, None]
    return float(np.max(np.abs(residual(v)[: sum(arr.shape)])))


def _gate(g: np.ndarray, n: int, tol: float):
    """Per column of the residual block ``g``, the record's residual and whether it converged.

    The residual is the largest defect of the ``n`` equation rows; converged
    means every row, the norm rows included, is within ``tol``.
    """
    g = np.abs(g)
    return np.maximum.reduce(g[:n], axis=0), np.logical_and.reduce(g <= tol, axis=0)


def _finish(s, v, res, ok, top: float) -> list:
    """The columns a solve returns, given per column its scalar, ``(n, C)`` entries, residual and gate.

    The converged columns are taken in stable residual order, and one within
    ``_DEDUP_TOL`` of a column already kept (the scalar relative to
    ``max(1, |kept|)``, every entry absolute) is dropped.  When none
    converged, the first lowest-residual column is returned alone.  The
    result is sorted by decreasing ``|s * top|`` to 12 significant digits, as
    printed, then by the entries rounded to 12 decimals; Python's ``.12g`` and
    `round` are used because `np.round` rounds ties differently.  The scalars
    are compared as Python floats (the same IEEE operations), and the entries
    of a kept column with one array operation against the columns whose
    scalars are near, so the work stays linear in the column count per kept
    column.
    """
    if not ok.any():
        return [int(np.argmin(res))] if res.size else []
    good = np.flatnonzero(ok)
    rest = good[np.argsort(res[good], kind="stable")].tolist()
    scalars = s.tolist()
    kept = []
    # the first column left is kept, and the columns after it within the tolerance
    # of it are dropped; entries are compared only where the scalars are near
    while rest:
        c, rest = rest[0], rest[1:]
        kept.append(c)
        bound = _DEDUP_TOL * max(1.0, abs(scalars[c]))
        near = [r for r in rest if abs(scalars[r] - scalars[c]) <= bound]
        if near:
            same = np.maximum.reduce(np.abs(v[:, near] - v[:, c, None]), axis=0) <= _DEDUP_TOL
            drop = set(itertools.compress(near, same.tolist()))
            rest = [r for r in rest if r not in drop]
    keys = [
        (-float(f"{abs(scalars[c] * top):.12g}"), [round(e, 12) for e in col])
        for c, col in zip(kept, v[:, kept].T.tolist())
    ]
    return [kept[i] for i in sorted(range(len(kept)), key=keys.__getitem__)]


def _canonical_order(arr: np.ndarray, first: int | None = None) -> list[int]:
    """The axes of ``arr`` in the order every spectral solve runs in.

    Mode ``first`` (1-based), when given, leads.  The other modes follow,
    sorted by their size, then by the sorted energies of their slices; ties
    keep the given order.  A slice's energy sums its squared entries in
    ascending order (one sort of every square, then one `np.bincount` per
    mode, which adds in input order), so its bits do not depend on how the
    other modes are laid out.  Energies are compared in single precision:
    modes whose energies differ only by rounding (a tensor symmetric up to
    rounding, or its copy under a decimal scale) tie, so such a scale does
    not reorder them.  The energies are computed only when two of the modes
    to sort have one size.
    """
    lead = [] if first is None else [first - 1]
    rest = [a for a in range(arr.ndim) if a not in lead]
    sizes = [arr.shape[a] for a in rest]
    if len(set(sizes)) == len(sizes):
        return lead + sorted(rest, key=lambda a: arr.shape[a])
    sq = (arr * arr).ravel()
    at = np.argsort(sq)
    sq, index = sq[at], np.unravel_index(at, arr.shape)
    keys = {}
    for a in rest:
        energies = np.bincount(index[a], weights=sq, minlength=arr.shape[a])
        keys[a] = (arr.shape[a], np.sort(energies).astype(np.float32).tolist())
    return lead + sorted(rest, key=keys.__getitem__)


# -- exact path for 2-dimensional modes -----------------------------------------


def _binary_form(arr: np.ndarray, power: int) -> np.ndarray:
    """Coefficients of ``g(x) = f_0(x) x_1^power - f_1(x) x_0^power`` on a size-2 mode 1.

    ``f = F_1(x, .., x)``; ``g[k]`` multiplies ``x_0^(D-k) x_1^k``.  A unit
    ``x`` solves the eigen equation exactly where ``g`` vanishes.  Entry
    ``(i, rest)`` of the tensor adds to the coefficient of ``f_i`` counted by
    the number of 1-indices in ``rest``.
    """
    order = arr.ndim
    ones = _popcounts(order)
    f = np.stack([np.bincount(ones, weights=row, minlength=order) for row in arr.reshape(2, -1)])
    g = np.zeros(order + power)
    g[power:] += f[0]
    g[:order] -= f[1]
    return g


@functools.lru_cache(maxsize=None)
def _popcounts(order: int) -> np.ndarray:
    """The read-only number of 1-bits of each of ``0 .. 2^(order - 1) - 1``: the 1-indices of a column of ``arr.reshape(2, -1)``."""
    out = np.array([bin(c).count("1") for c in range(2 ** (order - 1))])
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _binomials(size: int) -> np.ndarray:
    """The read-only ``(size, size)`` float matrix of ``C(i, j)`` at row j, column i."""
    out = np.array([[math.comb(i, j) for i in range(size)] for j in range(size)], dtype=float)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _tri(size: int) -> np.ndarray:
    """The read-only ``np.tri(size)``: ones on and below the diagonal."""
    out = np.tri(size)
    out.flags.writeable = False
    return out


def _taylor(p: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``p^(j)(at) / j!`` for j = 0 .. deg p along a new last axis; ``p`` in `np.polyval` order."""
    d = np.arange(p.size)
    return np.einsum("ji,...ji->...j", _binomials(p.size) * p[::-1], at[..., None, None] ** np.maximum(d - d[:, None], 0))


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
    r = np.maximum.reduce(np.abs(groups[..., None, :] - mu[..., None]) * _tri(size), axis=-1, initial=0.0)
    a = np.abs(_taylor(p, mu))
    n = noise * _taylor(np.ones(p.size), np.abs(mu))
    a_k = a[..., k - 1, k]
    split = a_k * r**k <= n[..., 0]
    k, a_k, r = k[:, None], a_k[..., None], r[..., None]
    vieta = n + 4.0**k * a_k * r ** np.maximum(k - j, 0)
    return split & np.logical_and.reduce((a <= vieta) | (j >= k), axis=-1)


def _cluster_bound(p: np.ndarray, groups: np.ndarray, noise: float) -> np.ndarray:
    """``admit[..., k - 2]``: the first k >= 2 roots of ``groups[...]`` meet a bound that every group `_split_roots` passes meets.

    `_split_roots` passes a group only if ``|a_k| r^k <= n_0`` (its split
    row) and ``|a_0| <= n_0 + 4^k |a_k| r^k`` (its j = 0 Vieta row), so only
    if ``|p(mu)| = |a_0| <= (1 + 4^k) n_0``, with ``n_0 = noise * sum_i
    |mu|^i``; multiplying by 4^k is exact.  The bound tests that at the same
    means ``mu``, from one table of their powers, with a margin for the
    rounding of both computations (Higham 2002, "Accuracy and Stability of
    Numerical Algorithms", section 3.1 and Lemma 3.5).  Let ``D = deg p``,
    ``c_i`` the coefficient of ``mu^i`` and ``S = sum_i |c_i| |mu|^i``.  A
    computed power is off by at most ``D - 1`` complex products, each of
    relative error ``sqrt(2) gamma_2``, and a sum of ``D + 1`` terms adds
    ``gamma_D``, so each of the two evaluations of ``p(mu)`` (`_taylor`'s and
    this one) is off by at most ``gamma_(5D + 3) S``, and each sum of
    positive terms here and in `_split_roots` by a factor of at most ``1 +
    gamma_(4D + 4)``.  With ``g = gamma_(8(D + 1))`` the test ``|p(mu)| <=
    sum_i |mu^i| ((1 + 4^k)(1 + 2g) noise + 2g |c_i|)`` covers both: a group
    it does not admit, `_split_roots` does not pass.  ``|mu| <= 2`` rules out
    overflow, and the ``i = 0`` term keeps the right side above underflow.
    """
    size = groups.shape[-1]
    k = np.arange(2, size + 1)
    mu = (np.cumsum(groups, axis=-1) / np.arange(1, size + 1))[..., 1:]
    powers = mu[..., None] ** np.arange(p.size)
    c = p[::-1]
    g = 8 * p.size * _UNIT / (1 - 8 * p.size * _UNIT)
    # the right side is sum_i |mu^i| ((1 + 4^k)(1 + 2g) noise + 2g |c_i|)
    weights = (1.0 + 4.0**k)[:, None] * ((1 + 2 * g) * noise) + 2 * g * np.abs(c)
    return np.abs(powers @ c) <= np.add.reduce(np.abs(powers) * weights, axis=-1)


def _root_clusters(p: np.ndarray, roots: np.ndarray, noise: float) -> np.ndarray:
    """The roots of the polynomial ``p``, a multiple root once, as the mean of its cluster.

    A root and its k - 1 nearest roots are one k-fold root when
    `_split_roots` allows it and none of them is taken yet.  Larger clusters
    are taken first, so a simple root next to a wide multiple one, which may
    pass with part of it, stays alone.  The roots left over stand alone.
    Fewer than two roots form no cluster, and when `_cluster_bound` admits
    no group `_split_roots` would pass none; either way ``roots`` is returned
    as it is, before any group is formed.
    """
    if roots.size < 2:
        return roots
    near = np.argsort(np.abs(roots[:, None] - roots[None, :]), axis=1, kind="stable")
    groups = roots[near]
    if not _cluster_bound(p, groups, noise).any():
        return roots
    fits = _split_roots(p, groups, noise)
    means, taken = [], np.zeros(roots.size, dtype=bool)
    for k in range(roots.size, 1, -1):
        for i in np.flatnonzero(fits[:, k - 1]):
            if not taken[near[i, :k]].any():
                taken[near[i, :k]] = True
                means.append(roots[near[i, :k]].mean())
    return np.array(means + list(roots[~taken]), dtype=roots.dtype)


def _chart_roots(g: np.ndarray) -> list:
    """``[np.roots(g[::-1]), np.roots(g)]`` for a nonzero ``g``, bit for bit, from one `np.linalg.eigvals` call.

    `np.roots`' rules: the end zeros are stripped, the rest's companion has
    first row ``-c[1:] / c[0]``, each trailing zero adds a zero root, and
    the roots are real when every imaginary part is 0.  The two charts strip
    to one polynomial and its reverse, so their companions have one size,
    and LAPACK factors each matrix of a stack on its own.  The companions
    are written into one zero block: the first rows, and the ones below the
    diagonal at every ``n + 1``-th flat index from ``n``.
    """
    nz = np.flatnonzero(g)
    q = g[nz[0] : nz[-1] + 1]
    qs = np.array([q[::-1], q])
    n = q.size - 1
    w = np.empty((2, 0))
    if n:
        a = np.zeros((2, n, n))
        a.reshape(2, -1)[:, n :: n + 1] = 1.0
        a[:, 0, :] = -qs[:, 1:] / qs[:, :1]
        w = np.linalg.eigvals(a)
    out = []
    # a trailing zero of g[::-1] is a leading zero of g
    for roots, trailing in zip(w, (nz[0], g.size - 1 - nz[-1])):
        if np.iscomplexobj(roots) and not roots.imag.any():
            roots = roots.real
        out.append(np.hstack((roots, np.zeros(trailing, roots.dtype))) if trailing else roots)
    return out


def _root_lines(g: np.ndarray, noise: float) -> np.ndarray:
    """One unit column per real root line of the nonzero binary form ``g``.

    Roots come from both charts, ``t = x_1/x_0`` and ``s = x_0/x_1``, each
    keeping those of modulus <= 1 so the line ``x_0 = 0`` is covered.  A
    k-fold root comes out of `np.roots` as k roots about eps^(1/k) apart;
    `_root_clusters` merges them, taking ``noise`` as the rounding level of
    the coefficients.
    """
    # a cluster with its mean in the unit disc lies well inside modulus 2
    t, s = (_root_clusters(c, r[np.abs(r) <= 2.0], noise) for c, r in zip((g[::-1], g), _chart_roots(g)))
    x = np.ones((t.size + s.size, 2))
    x[: t.size, 1] = t.real
    x[t.size :, 0] = s.real
    r = np.concatenate([t, s])
    x = x[(np.abs(r.imag) <= 1e-9) & (np.abs(r) <= 1.0 + 1e-9)].T
    return x / _column_norms(x)


def _size2_solve(arr, variant, tol):
    """Every isolated mode-1 solution on size-2 modes of a tensor with max|T| = 1, from the real roots of the binary form.

    Returns None when the form vanishes identically (the solutions are not isolated).
    """
    power = 1 if variant == "z" else arr.ndim - 1
    g = _binary_form(arr, power)
    # a coefficient sums 2^(O-1) entries of magnitude <= 1; below 2^O eps it is rounding
    noise = arr.size * np.finfo(float).eps
    g[np.abs(g) <= noise] = 0.0
    if not g.any():
        return None
    # np.roots adds rounding of its own to that of the coefficients
    return _polish(arr, variant, _root_lines(g, 4.0 * noise), tol)


# -- iterative path for larger modes --------------------------------------------


# the step lengths `_damped_newton` tries, longest first
_LADDER = 0.5 ** np.arange(20)
# `_damped_newton` stops a column once its max|residual| is at most _NEWTON_TOL,
# and runs at most _NEWTON_ITERS iterations
_NEWTON_ITERS = 50
_NEWTON_TOL = 1e-13


def _fit_scale(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per column, the least-squares c in ``f = c * w``; 0 where ``w`` is zero."""
    denom = np.add.reduce(w * w, axis=0)
    nonzero = denom > 0
    return np.where(nonzero, np.add.reduce(f * w, axis=0) / np.where(nonzero, denom, 1.0), 0.0)


def _damped_newton(residual, jacobian, v, g=None):
    """Damped Gauss-Newton on every column of ``v`` at once.

    ``residual`` maps an ``(n, C)`` block of points to their ``(r, C)``
    residuals and ``jacobian`` to their exact ``(C, r, n)`` Jacobians.  Per
    column: stop once ``max|residual| <= _NEWTON_TOL``; otherwise take the
    minimum-norm least-squares step scaled by the first of ``1, 1/2, ..,
    2^-19`` at which the residual's 2-norm drops; a column whose residual
    drops at none of them stops there.  The whole ladder is evaluated for
    every column in one residual call per iteration.  ``g``, when given, is
    ``residual(v)``, which the caller has already computed; it is not
    evaluated again.

    The steps of an iteration are one `contract._lstsq` call: batched LU on
    the square systems, the SVD for a Jacobian that is exactly singular.
    The iteration stops when the SVD does not converge, and once no column
    is left, with no further `jacobian` call.  The columns are narrowed only
    in an iteration in which one stops, and the finite test runs per column
    only when some entry of the Jacobians or residuals is not finite.
    """
    v = np.array(v, dtype=float)
    g = residual(v) if g is None else g
    cols = np.arange(v.shape[1])
    for _ in range(_NEWTON_ITERS):
        live = np.maximum.reduce(np.abs(g), axis=0) > _NEWTON_TOL  # g holds the residuals of cols
        if np.count_nonzero(live) < cols.size:
            cols, g = cols[live], g[:, live]
        if not cols.size:
            break
        at = v if cols.size == v.shape[1] else v[:, cols]
        jac = jacobian(at)
        # lstsq rejects non-finite systems; such a column stops where it is
        if np.count_nonzero(np.isfinite(jac)) < jac.size or np.count_nonzero(np.isfinite(g)) < g.size:
            finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(g).all(axis=0)
            cols, at, jac, g = cols[finite], at[:, finite], jac[finite], g[:, finite]
            if not cols.size:
                break
        try:
            step = _lstsq(jac, g.T[:, :, None])[:, :, 0].T
        except np.linalg.LinAlgError:
            break
        base = _column_norms(g)
        cand = at[:, :, None] - step[:, :, None] * _LADDER
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected: inf < base is False
            gc = residual(cand.reshape(v.shape[0], -1)).reshape(g.shape[0], cols.size, _LADDER.size)
            better = _column_norms(gc) < base[:, None]
        hit = np.flatnonzero(np.logical_or.reduce(better, axis=1))
        level = better[hit].argmax(axis=1)
        cols = cols[hit]
        v[:, cols] = cand[:, hit, level]
        g = gc[:, hit, level]
    return v


def _eig_system(arr, power, plan=None):
    """Residual and exact Jacobian of the mode-1 eigen system at the columns ``[x; lambda]``.

    The system is ``F_1(x, .., x) - lambda * x^power = 0`` with
    ``x . x = 1``, ``plan`` the `_contract_plan` of ``F_1`` (built when
    None); ``residual(v, f)`` takes ``f = F_1(x, .., x)`` at ``v`` as given.
    ``dF_1/dx`` sums, over the other modes ``j``, the tensor
    contracted with ``x`` on every mode except 1 and ``j``: one kernel pass
    over the stacked slabs, planned on the first call.  Another mode's
    system is this one of the tensor with that mode moved to the front.
    Both are written in place into one preallocated block per call: the
    residual rows as ``(m + 1, C)``, the Jacobian as ``(m + 1, m + 1, C)``,
    returned as its ``(C, m + 1, m + 1)`` transposed view.
    """
    m = arr.shape[0]
    plan = _contract_plan(arr, (1,)) if plan is None else plan
    slabs = []

    def residual(v, f=None):
        x, lam = v[:m], v[m]
        f = _contract_all_but_batch(plan, x) if f is None else f
        out = np.empty(v.shape)
        eqs = out[:m]
        np.multiply(lam, x if power == 1 else x**power, out=eqs)
        np.subtract(f, eqs, out=eqs)
        np.add.reduce(x * x, axis=0, out=out[m])
        out[m] -= 1.0
        return out

    def jacobian(v):
        if not slabs:
            slabs.append(_contract_plan(arr, [(1, j) for j in range(2, arr.ndim + 1)]))
        x, lam = v[:m], v[m]
        jac = np.empty((m + 1, m + 1, x.shape[1]))
        dfdx = _contract_all_but_batch(slabs[0], x)
        if dfdx.shape[-1] == x.shape[1]:
            np.add.reduce(dfdx, axis=0, initial=0.0, out=jac[:m, :m])
        else:  # order 2: the matrix itself, one slab for every column
            jac[:m, :m] = np.add.reduce(dfdx, axis=0, initial=0.0)
        diag = jac.reshape(-1, x.shape[1])[:: m + 2][:m]  # the rows (i, i, :)
        diag -= lam if power == 1 else power * lam * x ** (power - 1)
        np.negative(x if power == 1 else x**power, out=jac[:m, m])
        np.multiply(2.0, x, out=jac[m, :m])
        jac[m, m] = 0.0
        return jac.transpose(2, 0, 1)

    return residual, jacobian


def _eig_iterative(arr, variant, tol, max_iters, seed, starts):
    order = arr.ndim
    [x] = _starts(arr, [1], starts, seed)
    plan = _contract_plan(arr, (1,))

    if variant == "z" and _symmetric_input(arr):
        # each start runs both shifted maps (Kolda & Mayo 2011), which converge
        # monotonically to local maxima and minima: column 2s adds F, 2s+1 subtracts it
        x = np.repeat(x, 2, axis=1)
        sign = np.tile([1.0, -1.0], x.shape[1] // 2)
        shift = float(np.sum(np.abs(arr)))

        def update(k, cur, cols):
            return sign[cols] * _contract_all_but_batch(plan, cur[0]) + shift * cur[0]

        (x,), _ = _power_sweeps(update, [x], 2, 1e-14, max_iters)

    elif variant == "h" and order >= 3 and np.all(arr >= 0.0):
        # the entrywise-root map converges on nonnegative input (Ng, Qi & Zhou
        # 2009); from the starts |x| every F(x) stays nonnegative.  At order 2
        # it is the plain power method, which takes every start to one vector
        def update(k, cur, cols):
            return _contract_all_but_batch(plan, cur[0]) ** (1.0 / (order - 1))

        (x,), _ = _power_sweeps(update, [np.abs(x)], 2, 1e-14, max_iters)

    return _polish(arr, variant, x, tol, plan)


def _polish(arr, variant, x, tol, plan=None):
    """Damped-Newton polish of the mode-1 start columns ``x``: ``(lam, x, res, ok)``, one entry per column.

    ``plan`` is `_eig_system`'s, ``res`` and ``ok`` are `_gate`'s.  The
    polished columns are followed by the sign partner (`eig_orbit` with
    ``t = -1``) of every converged one: ``-x``, with ``(-1)^(O-2) lam`` for
    z and ``lam`` for h, the same residual, converged.

    ``F_1`` is evaluated once per set of points: at the starts it gives the
    fitted ``lam`` and Newton's first residual, which is also the gate's when
    Newton returns its input bit for bit (on size-2 roots it takes no step);
    otherwise the gate evaluates the residual afresh.  On h the renormalized
    columns get one more evaluation, which the refit and the gate share.
    """
    order, m = arr.ndim, arr.shape[0]
    power = 1 if variant == "z" else order - 1
    plan = _contract_plan(arr, (1,)) if plan is None else plan
    residual, jacobian = _eig_system(arr, power, plan)
    v = np.empty((m + 1, x.shape[1]))
    v[:m] = x
    f = _contract_all_but_batch(plan, v[:m])
    v[m] = _fit_scale(f, v[:m] ** power)
    g = residual(v, f)
    out = _damped_newton(residual, jacobian, v, g=g)
    if variant == "h":
        # the h equation is homogeneous; renormalize the records, and refit lam where x is nonzero
        x, lam = out[:m], out[m]
        nrm = _column_norms(x)
        v = np.empty_like(out)
        v[:m] = np.where(nrm > 0, x / np.where(nrm > 0, nrm, 1.0), x)
        f = _contract_all_but_batch(plan, v[:m])
        v[m] = np.where(nrm > 0, _fit_scale(f, v[:m] ** power), lam)
        g = residual(v, f)
    elif out.tobytes() != v.tobytes():
        v, g = out, residual(out)
    x, lam = v[:m], v[m]
    res, ok = _gate(g, m, tol)
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

    Every path solves ``T / max|T|`` in the canonical mode order, with
    ``mode`` first (module docstring), so the records depend on the tensor
    alone up to relabeling its modes, and a record is converged when
    ``eig_residual <= tol * max|T|`` and ``|x . x - 1| <= tol`` (`_gate`).
    When the solutions are not isolated (every unit vector solves
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
    input (`tensor._symmetric_input`) z starts first run both shifted power
    maps, on nonnegative input of order 3 or more h starts the entrywise-root
    map; ``max_iters`` caps those sweeps only.
    Other starts go straight to Newton.  Completeness is not claimed there.
    Both paths polish every start by damped Newton with the exact Jacobian,
    add the sign partner (`eig_orbit` with ``t = -1``) of every converged
    record and share one finish: the converged records, deduplicated, or
    when nothing converged at all the single best non-converged record,
    flagged (``converged=False``).  On size-2 modes ``[]`` is returned when
    no root line is real.  Pairs are sorted by decreasing |value| to 12
    significant digits, then vector.  A tensor of order below 2, ``starts``
    or ``max_iters`` below 1, ``tol`` or ``seed`` below 0 and a NaN ``tol``
    raise `ValueError` on both paths, a ``mode``, ``seed``, ``starts`` or
    ``max_iters`` that is not an integer `TypeError`.
    """
    arr = _as_array(t)
    _check_order(arr, "eigenpairs")
    m = _check_cubical(arr, "eigenpairs")
    mode = _check_mode(mode, arr.ndim)
    variant = variant.lower() if isinstance(variant, str) else variant
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be 'z' or 'h', got {variant!r}")
    _check_run_opts(tol, seed, max_iters=max_iters, starts=starts)
    top = float(np.max(np.abs(arr)))
    solved = None
    if top > 0.0:
        arr = arr / top
        # a fresh C-ordered copy: BLAS sums a strided view in another order
        arr = np.ascontiguousarray(arr.transpose(_canonical_order(arr, mode)))
        if m == 2:
            solved = _size2_solve(arr, variant, tol)
        else:
            solved = _eig_iterative(arr, variant, tol, max_iters, seed, starts)
    if solved is None:
        warnings.warn(_NOT_ISOLATED, stacklevel=2)
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


def _check_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale != 0.0):
        raise ValueError(f"orbit scale must be finite and nonzero, got {scale!r}")


def eig_orbit(pair: EigenPair, t_scale: float, order: int, tensor: DenseTensor | None = None) -> EigenPair:
    """The equivalent eigenpair with the vector rescaled by ``t_scale``.

    z variant: ``(t^(O-2) * lambda, t * x)``; h variant the eigenvalue does
    not depend on the magnitude, so only the vector scales.  Both defining
    equations rescale by exactly ``t^(O-1)``, so the output residual is the
    input residual times ``|t|^(O-1)`` (re-evaluated against ``tensor`` when
    one is supplied).  The output vector is generally not unit norm.
    ``order`` is the tensor order O, an integer at least 2 (`TypeError`
    otherwise for a non-integer, `ValueError` for a smaller one) that must
    equal ``tensor``'s order when ``tensor`` is given; a zero or non-finite
    ``t_scale`` raises `ValueError`.
    """
    _check_scale(t_scale)
    order = operator.index(order)
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if tensor is not None and order != _as_array(tensor).ndim:
        raise ValueError(f"order {order} does not match the tensor order {_as_array(tensor).ndim}")
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


def _tuple_system(arr, p, plans=None):
    """Residual and exact square Jacobian of the singular system at the columns ``[x_1; ..; x_O; sigma_1; ..; sigma_O]``.

    Each mode has its own scalar: the rows are ``F_o - sigma_o * phi(x_o,
    p - 1)`` (`_phi`) for every mode ``o`` (``plans`` the `_contract_plan`
    of each ``F_o``), then ``sum |x_o|^p - 1`` for every mode, as many rows as
    unknowns.  At a solution every ``sigma_o`` is ``T(x_1, .., x_O)`` (dot
    row o with ``x_o``; Lim 2005), so the solutions are the singular tuples,
    and with every ``sigma_o`` set to one sigma the rows are those of the
    tuple ``(sigma, x_1, .., x_O)``.  The block ``dF_o/dx_j``, planned on the
    first call, is the tensor contracted with the vectors on every mode
    except ``o`` and ``j``; the ``sigma_o`` column is ``-phi(x_o, p - 1)`` in
    the mode-o rows only.  Both are written in place into one preallocated
    block per call: the residual rows as ``(r, C)``, the Jacobian as
    ``(r, r, C)``, returned as its ``(C, r, r)`` transposed view.
    """
    order = arr.ndim
    power = p - 1
    offsets = list(itertools.accumulate(arr.shape, initial=0))
    n = offsets[-1]
    spans = [slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])]
    plans = [_contract_plan(arr, (o,)) for o in range(1, order + 1)] if plans is None else plans
    pairs = {}

    def residual(v):
        xs, sig = [v[span] for span in spans], v[n:]
        out = np.empty(v.shape)
        for o, span in enumerate(spans):
            eqs = out[span]
            np.multiply(sig[o], _phi(xs[o], power), out=eqs)
            np.subtract(_contract_all_but_batch(plans[o], xs[:o] + xs[o + 1:]), eqs, out=eqs)
            np.add.reduce(xs[o] * xs[o] if p == 2 else np.abs(xs[o]) ** p, axis=0, out=out[n + o])
        out[n:] -= 1.0
        return out

    def jacobian(v):
        if not pairs:
            pairs.update({(o, j): _contract_plan(arr, (o + 1, j + 1)) for o in range(order) for j in range(o + 1, order)})
        xs, sig = [v[span] for span in spans], v[n:]
        jac = np.zeros((n + order, n + order, v.shape[1]))
        diag = jac.reshape(-1, v.shape[1])[:: n + order + 1]  # the rows (i, i, :)
        for o, rows in enumerate(spans):
            for j in range(o + 1, order):
                block = _contract_all_but_batch(pairs[o, j], [xs[k] for k in range(order) if k not in (o, j)])
                jac[rows, spans[j]] = block
                jac[spans[j], rows] = block.transpose(1, 0, 2)
            diag[rows] = -sig[o] if p == 2 else -(power * sig[o] * np.abs(xs[o]) ** (power - 1))
            phi = _phi(xs[o], power)
            np.negative(phi, out=jac[rows, n + o])
            np.multiply(p, phi, out=jac[n + o, rows])
        return jac.transpose(2, 0, 1)

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
    integers at least 1, ``seed`` one at least 0 and ``tol`` at least 0
    (not NaN).  The tensor is solved in the canonical mode order (module
    docstring), to which the modes below refer, and the vectors are mapped
    back to the given modes, so relabeling the modes only relabels the
    records.  The starts are the per-mode leading left singular vectors of
    the unfoldings, then coordinate vectors, then ``default_rng(seed)``
    normal draws: the first ``starts`` columns of `_starts` with count
    ``2 * starts``.  All of them run at once through the cyclic update
    ``x_o <- normalize_p(sign(F_o) |F_o|^(1/(p-1)))`` until no factor moves by
    more than ``_HANDOFF`` (1e-4) over a sweep for p = 2, or 1e-13 for
    p = O > 2, where Newton is slow at zero entries (module docstring).  A
    start whose iterate collapses to zero is replaced once by the next
    unused column of that stream (column ``starts``, ``starts + 1``, ..),
    and the replacements run as one more such batch; a replacement that
    collapses too is dropped.  Every start is then finished by damped Newton
    on the square coupled system (`_tuple_system`), one sigma per mode, each
    started at its least-squares fit; the record's sigma is
    ``T(x_1, .., x_O)``, at which every row is gated.
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
    order = _check_order(arr, "singular tuples")
    p = operator.index(p)
    if p not in (2, order):
        raise ValueError(f"p must be 2 or the tensor order {order}, got {p}")
    _check_run_opts(tol, seed, max_iters=max_iters, starts=starts)
    top = float(np.max(np.abs(arr)))
    if top == 0.0:
        warnings.warn(_NOT_ISOLATED, stacklevel=2)
        return []
    arr = arr / top
    # the canonical order, a fresh C-ordered copy as in find_eigenpairs
    axes = _canonical_order(arr)
    arr = np.ascontiguousarray(arr.transpose(axes))
    power = p - 1
    plans = [_contract_plan(arr, (o,)) for o in range(1, order + 1)]

    def update(k, cur, cols):
        return _phi(_contract_all_but_batch(plans[k], cur[:k] + cur[k + 1:]), 1.0 / power)

    # lO keeps its sweeps to the end: its rows are flat at a zero entry (module docstring)
    handoff = _HANDOFF if p == 2 else 1e-13
    blocks = _starts(arr, range(1, order + 1), 2 * starts, seed)
    xs, status = _power_sweeps(update, [b[:, :starts] for b in blocks], p, handoff, max_iters)
    # a zero iterate killed these starts; each is replaced once by the next unused column
    dead = np.flatnonzero(status < 0)
    if dead.size:
        spare = [b[:, starts : starts + dead.size] for b in blocks]
        spare, status[dead] = _power_sweeps(update, spare, p, handoff, max_iters)
        for x, y in zip(xs, spare):
            x[:, dead] = y
        xs = [x[:, status >= 0] for x in xs]
    n = sum(arr.shape)
    sigma0 = [_fit_scale(_contract_all_but_batch(plans[o], xs[:o] + xs[o + 1:]), _phi(xs[o], power)) for o in range(order)]
    residual, jacobian = _tuple_system(arr, p, plans)
    v = _damped_newton(residual, jacobian, np.vstack(xs + sigma0))
    # the tuple's one sigma is T(x_1, .., x_O), and the gate reads the rows singular_residual reads
    xs = np.split(v[:n], np.cumsum(arr.shape)[:-1])
    sigma = np.sum(_contract_all_but_batch(plans[0], xs[1:]) * xs[0], axis=0)
    res, ok = _gate(residual(np.vstack([v[:n], np.tile(sigma, (order, 1))])), n, tol)
    # sign gauge, so flip-equivalent records dedup together: in each mode the
    # first entry above 1e-12 in magnitude is made positive, each flip negating sigma
    for x in xs:
        big = np.abs(x) > 1e-12
        flip = big.any(axis=0) & (np.take_along_axis(x, big.argmax(axis=0)[None], 0)[0] < 0)
        x[:, flip] = -x[:, flip]
        sigma[flip] = -sigma[flip]
    # the given mode a was solved as mode back[a]
    back = np.argsort(axes)
    return [
        SingularTuple(p, sigma[c] * top, tuple(xs[k][:, c] for k in back), res[c] * top, bool(ok[c]))
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
    when ``tensor`` is given).  A zero or non-finite ``t`` raises
    `ValueError`.
    """
    if (scale is None) == (flip is None):
        raise ValueError("give exactly one of scale= or flip=")
    order = tup.order
    if scale is not None:
        _check_scale(scale)
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


@dataclass(frozen=True, eq=False)
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
    vectors.  The input and ``opts`` are checked by `find_singular_tuples`;
    on the zero tensor, whose tuples it reports as not isolated (silenced
    here), sigma is 0 and the vectors are (arbitrary) coordinate unit
    vectors.  The error is the `frobenius_norm` of the residual, so it stays
    finite for tiny and huge entries.
    """
    arr = _as_array(t)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _NOT_ISOLATED)
        tuples = find_singular_tuples(arr, 2, **opts)
    if tuples:
        top = max(tuples, key=lambda r: abs(r.sigma)).with_nonnegative_sigma()
        sigma, vectors = top.sigma, top.vectors
    else:
        sigma, vectors = 0.0, tuple(np.eye(d)[:, 0] for d in arr.shape)
    rank_one = sigma * outer(*vectors)
    return BestRankOne(sigma, vectors, rank_one, frobenius_norm(arr - rank_one.to_array()))


@dataclass(frozen=True, eq=False)
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

    Checks the z equation of ``pair`` against all modes, each accepted when
    its `eig_residual` is at most ``tol * max|T|``, the solvers' gate; on
    success returns the l2 tuple with ``sigma = |lambda|`` and signs arranged
    to keep sigma nonnegative (`SingularTuple.with_nonnegative_sigma`).
    Precondition failure is reported in the result status, not raised;
    ``tol`` below 0 or NaN and a zero vector raise `ValueError`.
    """
    arr = _as_array(t)
    _check_cubical(arr, "eigenpairs")
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
    gate = tol * float(np.max(np.abs(arr)))
    if any(r > gate for r in residuals):
        return BridgeResult("mode_mismatch", None, residuals)
    tup = SingularTuple(2, lam, (x,) * order, 0.0).with_nonnegative_sigma()
    tup = replace(tup, residual=singular_residual(t, tup))
    return BridgeResult("ok", tup, residuals)
