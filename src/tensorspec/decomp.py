"""CP and Tucker decompositions, their solvers, and odeco recovery.

`cp_als` and `odeco_decompose` are heuristic fits: exact CP decomposition is
NP-hard in general, best rank-r approximations for r >= 2 need not even
exist, and no global-optimality claim is made anywhere in this module.  What
is guaranteed is that the ALS objective never increases across sweeps (a
start stops before a sweep that would raise it) and that on orthogonally
decomposable input the odeco fit recovers the components.

`cp_als` runs all its starts at once, one per slice of a batch.  Where the
rank allows, start 0 is the HOSVD factors and depends on the tensor alone;
the other starts are drawn from one ``default_rng(seed)`` per call: start
``k`` does not depend on ``starts``, and two seeds share no random start.
The batch stops as soon as one start reaches the rounding floor, as the
others could only tie it.  Results merge by ``(error, start_index)``.
Counts (``rank``, ``starts``, ``max_iters``) below 1, a ``seed`` below 0 and
a ``rank`` above ``|T| / max M_o`` (every tensor is a sum of that many
rank-one terms, one per fiber of its longest mode, so no larger rank fits
better) raise `ValueError`, counts and seeds that are not integers `TypeError`.  ALS
stacks its starts as ``(S, M_o, R)`` factor arrays, solves every mode update
with `contract._lstsq` (the pseudoinverse update of standard CP-ALS) and
takes each sweep's error as the exact residual of the last mode's unfolding
against the Khatri-Rao product its update already built.
`odeco_decompose` draws no starts: Jennrich's GEVD (Leurgans, Ross & Abel
1993, "A decomposition for three-way arrays"; `_gevd_factors`) gives every
component at once and one power iteration polishes them, with columns that
the polish takes to one component redone on the tensor without the others.
Both fit the input scaled by the power of two nearest its largest entry
(`tensor._scale_exponent`), so tiny and huge entries neither underflow nor
overflow, and `multilinear_rank` and `hosvd` factor the input scaled the
same way.  `multilinear_rank` projects out each mode's rounding-level
directions before it factors the next mode, so later unfoldings shrink on
rank-deficient input, while `hosvd` factors every whole unfolding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contract import _contract_all_but_batch, _contract_plan, _lstsq, _mode_svd, _mode_unfolding, _power_sweeps, multi_mode_product
from .shape import _ints
from .tensor import DenseTensor, _as_array, _check_cubical, _check_order, _check_run_opts, _scale_exponent, frobenius_norm

__all__ = [
    "CpDecomposition",
    "TuckerDecomposition",
    "CpAlsResult",
    "OdecoResult",
    "cp_eval",
    "cp_normalize",
    "cp_to_tucker",
    "tucker_eval",
    "hosvd",
    "multilinear_rank",
    "cp_als",
    "odeco_decompose",
]

# odeco accepts factor Grams within this of the identity (entrywise) and,
# without a rank cap, a relative reconstruction error up to this
_ORTH_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CpDecomposition:
    """Rank-R sum of weighted outer products: weights plus one factor matrix per mode.

    Factor ``o`` has shape ``(M_o, R)``; column ``r`` across the factors gives
    the r-th rank-one term.  The canonical form has unit-norm columns with
    magnitudes carried by the weights; `is_normalized` flags instances that
    are not in that form.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __init__(self, weights, factors: Sequence):
        weights = np.asarray(weights, dtype=float).reshape(-1)
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        if len(factors) == 0:
            raise ValueError("a CP decomposition needs at least one factor matrix")
        for f in factors:
            if f.ndim != 2:
                raise ValueError("factors must be matrices")
            if f.shape[1] != weights.size:
                raise ValueError(
                    f"factor with {f.shape[1]} columns does not match {weights.size} weights"
                )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return all(
            abs(np.linalg.norm(f[:, r]) - 1.0) <= tol
            for f in self.factors
            for r in range(self.rank)
        )


@dataclass(frozen=True, eq=False)
class TuckerDecomposition:
    """A core tensor transformed by one factor matrix per mode."""

    core: DenseTensor
    factors: tuple[np.ndarray, ...]

    def __init__(self, core: DenseTensor, factors: Sequence):
        if not isinstance(core, DenseTensor):
            core = DenseTensor(np.asarray(core, dtype=float))
        factors = tuple(np.asarray(f, dtype=float) for f in factors)
        if len(factors) != core.order:
            raise ValueError(f"need {core.order} factors, got {len(factors)}")
        for o, f in enumerate(factors, start=1):
            if f.ndim != 2:
                raise ValueError("factors must be matrices")
            if f.shape[1] != core.dims[o - 1]:
                raise ValueError(
                    f"factor {o} width {f.shape[1]} does not match core dim {core.dims[o - 1]}"
                )
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return self.core.order

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker product; the last matrix's row index varies fastest.

    Each matrix is ``(M_j, R)`` or, for a stack of starts, ``(S, M_j, R)``;
    the product is ``(prod M_j, R)`` or ``(S, prod M_j, R)``.
    """
    out = mats[0]
    for m in mats[1:]:
        out = out[..., :, None, :] * m[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    return out


def cp_eval(cp: CpDecomposition) -> DenseTensor:
    """Assemble the dense tensor a CP decomposition represents.

    One matmul: ``(A_1 * w) @ kr.T`` with ``kr`` the Khatri-Rao product of
    ``A_O, ..., A_2``, whose rows run colex over modes 2..O.
    """
    rest = cp.factors[:0:-1]
    kr = _khatri_rao(rest) if rest else np.ones((1, cp.rank))
    flat = (cp.factors[0] * cp.weights) @ kr.T
    return DenseTensor(flat.reshape(cp.dims, order="F"))


def cp_normalize(cp: CpDecomposition) -> CpDecomposition:
    """Rescale factor columns to unit norm, moving magnitudes into the weights.

    A zero column cannot be normalized: its weight becomes 0 and the column is
    replaced by the first unit vector (the term contributes nothing either way).
    """
    weights = cp.weights.copy()
    factors = [f.copy() for f in cp.factors]
    for r in range(cp.rank):
        for f in factors:
            nrm = np.linalg.norm(f[:, r])
            if nrm == 0.0:
                weights[r] = 0.0
                f[:, r] = 0.0
                f[0, r] = 1.0
            else:
                f[:, r] /= nrm
                weights[r] *= nrm
    return CpDecomposition(weights, factors)


def cp_to_tucker(cp: CpDecomposition) -> TuckerDecomposition:
    """The equivalent Tucker form: hyper-diagonal core with the weights on it."""
    r = cp.rank
    core = np.zeros((r,) * cp.order)
    core[tuple(np.arange(r) for _ in range(cp.order))] = cp.weights
    return TuckerDecomposition(DenseTensor(core), cp.factors)


def tucker_eval(tk: TuckerDecomposition) -> DenseTensor:
    """Assemble the dense tensor: the core pushed through every factor matrix."""
    return multi_mode_product(tk.core, tk.factors)


def hosvd(t: DenseTensor, ranks: Sequence[int]) -> TuckerDecomposition:
    """Truncated higher-order SVD.

    Factor ``o`` holds ``ranks[o]`` orthonormal columns, the leading left
    singular vectors of the mode-o matricization (`contract._mode_svd` at
    ``ranks[o]`` columns); where the matricization has fewer columns, the rest
    complete an orthonormal basis, so the core always has shape ``ranks``.
    The core is ``t`` contracted with the factor transposes.  Exact at full
    multilinear ranks; a heuristic (not optimal) truncation below them.  A
    rank that is not an integer raises `TypeError`.

    Both steps run on ``t`` scaled by the power of two nearest its largest
    entry (`tensor._scale_exponent`), as `multilinear_rank` scales its input,
    and the core is scaled back exactly, so entries near the float maximum
    or minimum factor as they do at ordinary scales.  A core entry can
    exceed the largest entry of ``t`` by up to ``sqrt(t.size)``; when one
    exceeds the float maximum (a 2x2x2 tensor of 1e308 has core entry
    2.8e308), the core tensor's finite check raises `ValueError`.
    """
    arr = _as_array(t)
    order = arr.ndim
    ranks = _ints(ranks)
    if len(ranks) != order:
        raise ValueError(f"need {order} ranks, got {len(ranks)}")
    for o, r in enumerate(ranks, start=1):
        if not 1 <= r <= arr.shape[o - 1]:
            raise ValueError(f"rank {r} out of range [1, {arr.shape[o - 1]}] for mode {o}")
    e = _scale_exponent(arr)
    arr = np.ldexp(arr, -e)
    factors = [_mode_svd(arr, o, r)[0] for o, r in enumerate(ranks, start=1)]
    core = multi_mode_product(DenseTensor(arr), [f.T for f in factors]).to_array()
    with np.errstate(over="ignore"):
        core = np.ldexp(core, e)
    return TuckerDecomposition(DenseTensor(core), factors)


def multilinear_rank(t: DenseTensor, tol: float = 1e-8) -> tuple[int, ...]:
    """Numerical rank of every single-mode matricization.

    Singular values above ``tol`` times the largest one count; each component
    lower-bounds the tensor rank.  ``tol`` below 0 or NaN raises
    `ValueError`.  The tensor is first scaled by the power of two nearest its
    largest entry (`tensor._scale_exponent`), as `cp_als` and
    `frobenius_norm` scale theirs, so its unfoldings near the float maximum
    or minimum factor as they do at ordinary scales.

    The modes are taken in order, each factored once (`contract._mode_svd`,
    the last for its values only, the others for their ``min(M_o, N_o)``
    vectors), and the tensor shrinks on the way, as in sequential truncation
    (Vannieuwenhoven, Vandebril & Meerbergen 2012, "A new truncation strategy
    for the higher-order singular value decomposition").  Before the next mode,
    the mode-o directions with
    ``sigma <= min(tol, max(M_o, N_o) * eps) * sigma_max`` (numpy's
    `matrix_rank` cutoff, capped by ``tol``; ``N_o`` is the unfolding's column
    count) are projected out: ``T <- T x_o U_keep^T``, with ``U_keep`` the
    leading left singular vectors that stay, from the same SVD as the mode's
    rank.  The dropped part has Frobenius norm at most ``sqrt(M_o) * cutoff``,
    so by Weyl's inequality each singular value of a later unfolding moves by
    at most that much: only a value that close to its threshold can change a rank.
    """
    _check_run_opts(tol)
    arr = _as_array(t)
    arr = np.ldexp(arr, -_scale_exponent(arr))
    order = arr.ndim
    eps = np.finfo(float).eps
    out = []
    for o in range(1, order + 1):
        m, n = arr.shape[o - 1], arr.size // arr.shape[o - 1]
        u, s = _mode_svd(arr, o, min(m, n) if o < order else 0)
        smax = s[0]
        if smax == 0.0:
            return (0,) * order
        out.append(int(np.sum(s > tol * smax)))
        cutoff = min(tol, max(m, n) * eps) * smax
        if o < order and (s.size < m or s[-1] <= cutoff):
            arr = np.moveaxis(np.tensordot(arr, u[:, : np.sum(s > cutoff)], axes=(o - 1, 0)), -1, o - 1)
    return tuple(out)


def _gevd_factors(arr: np.ndarray, a: np.ndarray, symmetric: bool = False) -> list[np.ndarray]:
    """Jennrich's GEVD factors of ``arr`` at rank ``R``, the columns of ``a`` (Leurgans, Ross & Abel 1993).

    ``a`` holds ``R`` leading orthonormal left singular vectors of the mode-1
    unfolding.  On order 3 and up the mode-1 factor is ``a`` times the
    eigenvectors of ``M_a M_b^-1``, with ``M_a``, ``M_b`` combinations of the
    slices of ``arr`` compressed to ``a`` and to the leading mode-2 singular
    vectors (``a`` again on symmetric input): of three fixed generic pairs, the one whose eigenvalues
    lie furthest apart (chordal distance, none complex), as noise mixes
    eigenvectors whose eigenvalues nearly tie.  On order 2 it is ``a``.
    Symmetric input takes the mode-1 factor on every mode and returns it
    alone; other input splits each row of ``pinv(A) X_(1)`` into its leading
    singular vector in each other mode.  A singular pencil or a rank-deficient
    ``A`` gives finite, possibly repeated, columns.
    """
    order, r = arr.ndim, a.shape[1]
    if order > 2:
        u2 = a if symmetric else _mode_svd(arr, 2, r)[0]
        slices = np.moveaxis(arr.reshape(arr.shape[0], arr.shape[1], -1, order="F"), -1, 0)
        # fixed, not drawn from a seed: the factors depend on the tensor alone
        ma, mb = np.moveaxis(np.tensordot(np.random.default_rng(0).normal(size=(3, 2, slices.shape[0])), a.T @ slices @ u2, axes=1), 1, 0)
        lam, vec = np.linalg.eig(np.swapaxes(_lstsq(np.swapaxes(mb, 1, 2), np.swapaxes(ma, 1, 2)), 1, 2))
        d = 1 + np.abs(lam) ** 2
        dist = np.abs(lam[:, :, None] - lam[:, None, :]) / np.sqrt(d[:, :, None] * d[:, None, :]) + np.where(np.eye(r), np.inf, 0.0)
        gap = np.where(np.any(lam.imag != 0, axis=1), 0.0, dist.min(axis=(1, 2)))
        a = a @ vec[np.argmax(gap)].real
    if symmetric:
        return [a]
    rows = (np.linalg.pinv(a) @ _mode_unfolding(arr, 1)).reshape((r,) + arr.shape[1:], order="F")
    return [a] + [np.linalg.svd(np.moveaxis(rows, o, 1).reshape(r, arr.shape[o], -1), full_matrices=False)[0][:, :, 0].T for o in range(1, order)]


# -- alternating least squares ------------------------------------------------


@dataclass(eq=False)
class CpAlsResult:
    """Best fit across starts, with the winning start's per-sweep error trace."""

    cp: CpDecomposition
    errors: list[float]
    start: int
    converged: bool

    @property
    def error(self) -> float:
        return self.errors[-1]


def _als_sweeps(arr: np.ndarray, factors: list[np.ndarray], max_iters: int, tol: float):
    """Run ALS from every start at once; start ``s`` is slice ``s`` of each stack.

    ``factors[o]`` stacks the starts' mode-o factors, shape ``(S, M_o, R)``.
    A sweep updates modes 1..O in turn for the running starts.  Its error is
    the exact relative residual ``||X_(O) - A_O kr^T||_F / ||T||_F`` of the
    last mode's unfolding against the Khatri-Rao product its update just
    built.  A start stops, frozen, when a sweep would raise its error (it
    keeps the previous sweep), when the error gains less than ``tol`` or
    reaches 1e-15 (converged), or after ``max_iters`` sweeps (not converged).
    After a sweep in which some start reached 1e-15 every start stops: each
    keeps its own last kept sweep and its own flag, so a start that was
    still improving is not converged.  A start's trace is therefore the one
    it has alone only up to the sweep in which the first start of its batch
    reaches the floor.
    The running starts' factor and Gram stacks are kept from sweep to sweep.
    Only after a sweep in which some start stopped are the factors written
    back, each start taking that sweep or, if it rose, the previous one, and
    both stacks narrowed to the starts still running; the factors are written
    back once more at the end.  Returns the final factor stacks, each start's
    error trace and convergence flags.

    Memory: the stacked Khatri-Rao product holds ``S * R * |T| / M_o``
    entries, S times what one start needs; the residual is taken for all
    running starts at once, one batched matmul and one batched dot, so it
    holds S copies of the last unfolding.  For the rise rule the previous
    sweep's factor stacks of the running starts stay alive by reference;
    Gram stacks are held for the running starts only, and the traces as one
    error array per sweep run.
    """
    order = arr.ndim
    starts = factors[0].shape[0]
    norm_t = float(np.linalg.norm(arr))
    unfoldings = [_mode_unfolding(arr, o) for o in range(1, order + 1)]
    factors = [np.array(f, dtype=float) for f in factors]
    cur = list(factors)
    cur_grams = [f.swapaxes(1, 2) @ f for f in factors]
    last = np.full(starts, np.inf)
    converged = np.zeros(starts, dtype=bool)
    cols = np.arange(starts)
    # each run of sweeps on one set of starts: those starts, each sweep's
    # errors and which starts kept the last of those sweeps
    runs, errs = [], []
    for _ in range(max_iters):
        if not cols.size:
            break
        # every mode update builds new arrays, so these stay the previous sweep
        prev = list(cur)
        for o in range(order):
            # colex unfolding pairs with the reversed-order Khatri-Rao chain
            kr = _khatri_rao([cur[j] for j in range(order - 1, -1, -1) if j != o])
            gram = functools.reduce(np.multiply, [cur_grams[j] for j in range(order) if j != o])
            # x @ gram = rhs, transposed to gram^T @ x^T = rhs^T
            cur[o] = _lstsq(gram.swapaxes(1, 2), (unfoldings[o] @ kr).swapaxes(1, 2)).swapaxes(1, 2)
            cur_grams[o] = cur[o].swapaxes(1, 2) @ cur[o]
        resid = cur[-1] @ kr.swapaxes(1, 2)
        resid -= unfoldings[-1]
        flat = resid.reshape(cols.size, 1, -1)
        # a batched dot, the one np.linalg.norm takes of each start's residual
        err = np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]
        err = err / norm_t if norm_t > 0 else np.zeros_like(err)
        errs.append(err)
        # an exact least-squares sweep cannot increase the objective, so a
        # rise is rounding at the fit's floor: the start keeps its previous sweep
        keep = ~(err > last)
        floor = err <= 1e-15
        done = ~keep | (last - err < tol) | floor
        if not done.any():
            last = err
            continue
        for f, c, p in zip(factors, cur, prev):
            f[cols] = np.where(keep[:, None, None], c, p)
        runs.append((cols, errs, keep))
        converged[cols[done]] = True
        # a start at the floor is an exact fit the others can only tie
        running = ~done & ~floor.any()
        cols, last, errs = cols[running], err[running], []
        cur = [c[running] for c in cur]
        cur_grams = [g[running] for g in cur_grams]
    for f, c in zip(factors, cur):
        f[cols] = c
    runs.append((cols, errs, np.ones(cols.size, dtype=bool)))
    traces: list[list[float]] = [[] for _ in range(starts)]
    for run_cols, run_errs, run_keep in runs:
        for k, trace, kept in zip(run_cols.tolist(), np.array(run_errs).T.tolist(), run_keep.tolist()):
            traces[k].extend(trace if kept else trace[:-1])
    return factors, traces, converged


def cp_als(
    t: DenseTensor,
    rank: int,
    *,
    max_iters: int = 500,
    tol: float = 1e-12,
    seed: int = 0,
    starts: int = 8,
) -> CpAlsResult:
    """Fit a rank-``rank`` CP decomposition by alternating least squares.

    Runs ``starts`` fits and keeps the best final error; ties break on the
    start index.  Start ``k`` is row ``k`` of one
    ``default_rng(seed).uniform(-1, 1, size=(starts, sum M_o, rank))`` draw,
    split by mode, except that start 0 is the `hosvd` factors when ``rank``
    is at most every mode size.  All starts run at once as slices of stacked
    factor matrices, and a stopped start stays frozen while the others go
    on.  A mode update is the minimum-norm least-squares solution of its
    normal equations, also where the Gram is singular.
    ``tol`` (at least 0) is the per-sweep improvement below which a start
    stops; a start also stops, keeping its previous sweep, when a sweep
    would raise the error (rounding at an exact fit), and every start stops
    after the sweep in which one reaches the 1e-15 floor.  The per-sweep error
    is the exact relative residual, computed from the last mode's unfolding
    and the Khatri-Rao product its update already built.  It is non-increasing
    across sweeps and the returned trace belongs to the winning start.
    """
    _check_run_opts(tol, seed, rank=rank, starts=starts, max_iters=max_iters)
    arr = _as_array(t)
    _check_order(arr, "CP fits")
    fibers = arr.size // max(arr.shape)
    if rank > fibers:
        raise ValueError(f"rank {rank} is above {fibers}: every tensor of shape {arr.shape} is a sum of {fibers} rank-one terms")
    e = _scale_exponent(arr)
    arr = np.ldexp(arr, -e)
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(starts, sum(arr.shape), rank))
    factors = np.split(draws, np.cumsum(arr.shape)[:-1], axis=1)
    if rank <= min(arr.shape):
        for o, f in enumerate(factors, start=1):
            f[0] = _mode_svd(arr, o, rank)[0]
    factors, traces, converged = _als_sweeps(arr, factors, max_iters, tol)
    best = min(range(starts), key=lambda k: (traces[k][-1], k))
    cp = cp_normalize(CpDecomposition(np.ones(rank), [f[best] for f in factors]))
    cp = CpDecomposition(np.ldexp(cp.weights, e), cp.factors)
    return CpAlsResult(cp=cp, errors=traces[best], start=best, converged=bool(converged[best]))


# -- odeco recovery -------------------------------------------------------------


@dataclass(eq=False)
class OdecoResult:
    """Odeco recovery output plus its diagnostics.

    ``status`` is "ok" when the power iteration converged on every component
    and the recovered factor columns are mutually orthonormal;
    "not_orthogonal" flags input that is not orthogonally decomposable;
    "not_converged" flags a component whose power iteration did not converge
    (the result is still returned) or input with no component above ``tol``
    (zero weight, as for the zero tensor).
    """

    cp: CpDecomposition
    reconstruction_error: float
    orthogonality_defect: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def odeco_decompose(
    t: DenseTensor,
    *,
    symmetric: bool = False,
    rank: int | None = None,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> OdecoResult:
    """Recover an orthogonal CP decomposition: GEVD factors polished by one power iteration.

    The count ``R`` is the smallest whose tail of mode-1 singular values,
    ``sqrt(sum_{i>R} s_i^2)``, is at most ``tol`` (at least 0) times the
    input norm, capped by ``rank`` and the smallest mode size.  The ``R``
    columns start from the GEVD factors at rank ``R`` (`_gevd_factors`,
    Jennrich's algorithm; the leading left singular vectors on order 2), and
    one `contract._power_sweeps` call polishes them on ``t`` (symmetric map
    when ``symmetric``, else alternating per mode).  Noise can polish two
    columns to one component, which shows as factor columns with inner
    products above 1/2 in magnitude in every mode: unless every column does,
    all such columns are redone once, GEVD factors polished by one power
    iteration, on ``t`` minus the other components, and the redone columns
    are kept if they lower the reconstruction error.  A column not converged
    within ``max_iters`` sweeps makes the status "not_converged".  The
    weights are ``t(x_1, .., x_O)``, by decreasing magnitude; the result
    depends on the tensor alone.  On input that is not orthogonally
    decomposable the factor Gram check (entries within ``_ORTH_TOL`` of the
    identity) or, without a ``rank`` cap, the reconstruction check fails and
    the status is "not_orthogonal".
    """
    _check_run_opts(tol, rank=1 if rank is None else rank, max_iters=max_iters)
    arr = _as_array(t)
    order = _check_order(arr, "odeco fits")
    if symmetric:
        _check_cubical(arr, "symmetric odeco fits")
    e = _scale_exponent(arr)
    arr = np.ldexp(arr, -e)
    norm0 = float(np.linalg.norm(arr))
    cap = min(arr.shape) if rank is None else min(rank, *arr.shape)
    u1, s = _mode_svd(arr, 1, cap)
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    r = min(int(np.count_nonzero(tail > tol * norm0)), cap)
    if r == 0:
        return OdecoResult(CpDecomposition(np.zeros(1), [np.eye(d, 1) for d in arr.shape]), 1.0 if norm0 > 0 else 0.0, 0.0, "not_converged")

    def polish(a, blocks):
        """One `contract._power_sweeps` call on ``a`` from ``blocks``; also returns ``a``'s mode-1 plan."""
        plans = [_contract_plan(a, (o,)) for o in range(1, len(blocks) + 1)]

        def update(k, cur, cols):
            return _contract_all_but_batch(plans[k], cur[0] if symmetric else cur[:k] + cur[k + 1:])

        blocks, conv = _power_sweeps(update, blocks, 2, tol, max_iters)
        return blocks, conv, plans[0]

    def fit(blocks, conv):
        """The CP of ``blocks`` by decreasing weight magnitude, ``conv`` in that order, and its relative reconstruction error."""
        xs = blocks * order if symmetric else blocks
        weights = np.sum(_contract_all_but_batch(plan, xs[1:]) * xs[0], axis=0)
        keep = np.argsort(-np.abs(weights), kind="stable")
        cp = CpDecomposition(weights[keep], [x[:, keep] for x in xs])
        return cp, conv[keep], frobenius_norm(cp_eval(cp).to_array() - arr) / norm0

    blocks, conv, plan = polish(arr, _gevd_factors(arr, u1[:, :r], symmetric=symmetric))
    cp, conv, recon_err = fit(blocks, conv)
    # noise can polish two GEVD columns to one component: redo those columns
    # on the tensor with the other components subtracted (with no other
    # component, that would repeat the fit), and keep them if they fit better
    redo = np.any(functools.reduce(np.logical_and, [np.abs(f.T @ f) > 0.5 for f in cp.factors]) & ~np.eye(r, dtype=bool), axis=0)
    if redo.any() and not redo.all():
        left = arr - cp_eval(CpDecomposition(cp.weights[~redo], [f[:, ~redo] for f in cp.factors])).to_array()
        lead = _mode_svd(left, 1, int(np.count_nonzero(redo)))[0]
        new, new_conv, _ = polish(left, _gevd_factors(left, lead, symmetric=symmetric))
        blocks = [f.copy() for f in cp.factors[:len(new)]]
        for b, n in zip(blocks, new):
            b[:, redo] = n
        flags = conv.copy()
        flags[redo] = new_conv
        redone = fit(blocks, flags)
        if redone[2] < recon_err:
            cp, conv, recon_err = redone
    factors = cp.factors
    defect = max(float(np.max(np.abs(f.T @ f - np.eye(r)))) for f in factors)
    status = "ok" if np.all(conv == 1) else "not_converged"
    if status == "ok" and (defect > _ORTH_TOL or rank is None and recon_err > max(_ORTH_TOL, tol)):
        status = "not_orthogonal"
    return OdecoResult(CpDecomposition(np.ldexp(cp.weights, e), factors), recon_err, defect, status)
