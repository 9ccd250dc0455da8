"""CP and Tucker decompositions, their solvers, and odeco recovery.

`cp_als` and `odeco_decompose` are heuristic fits: exact CP decomposition is
NP-hard in general, best rank-r approximations for r >= 2 need not even
exist, and no global-optimality claim is made anywhere in this module.  What
is guaranteed is that the ALS objective never increases across sweeps (a
start stops before a sweep that would raise it) and that on orthogonally
decomposable input the power-iteration / deflation loop recovers the
components.

Multi-start solvers derive per-start seeds from ``seed`` and the start index
and merge results by ``(error, start_index)``, so outputs do not depend on the
order in which starts run; unlike the spectral solvers, whose random starts
come from one generator, they keep a generator per start for that reason.
Counts (``rank``, ``starts``, ``max_iters``) below 1 raise `ValueError`,
counts that are not integers `TypeError`.  ALS runs all its starts at once,
one start per slice of stacked ``(S, M_o, R)`` factor arrays, and takes each
sweep's error as the exact residual of the last mode's unfolding against the
Khatri-Rao product that mode's update already built.  The odeco power
iterations run all starts of a deflation round at once, one start per column.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contract import _check_run_opts, _contract_all_but_batch, _mode_unfolding, _power_sweeps, multi_mode_product
from .tensor import DenseTensor, _as_array, frobenius_norm, outer

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    Factor ``o`` holds the leading ``ranks[o]`` left singular vectors of the
    mode-o matricization; the core is ``t`` contracted with the factor
    transposes.  Exact at full multilinear ranks; a heuristic (not optimal)
    truncation below them.  A rank that is not an integer raises `TypeError`.
    """
    arr = _as_array(t)
    order = arr.ndim
    ranks = [operator.index(r) for r in ranks]
    if len(ranks) != order:
        raise ValueError(f"need {order} ranks, got {len(ranks)}")
    for o, r in enumerate(ranks, start=1):
        if not 1 <= r <= arr.shape[o - 1]:
            raise ValueError(f"rank {r} out of range [1, {arr.shape[o - 1]}] for mode {o}")
    factors = []
    for o in range(1, order + 1):
        u, _, _ = np.linalg.svd(_mode_unfolding(arr, o), full_matrices=False)
        factors.append(u[:, : ranks[o - 1]])
    core = multi_mode_product(DenseTensor(arr), [f.T for f in factors])
    return TuckerDecomposition(core, factors)


def multilinear_rank(t: DenseTensor, tol: float = 1e-8) -> tuple[int, ...]:
    """Numerical rank of every single-mode matricization.

    Singular values above ``tol`` times the largest one count; each component
    lower-bounds the tensor rank.  ``tol`` below 0 or NaN raises `ValueError`.
    """
    _check_run_opts(tol)
    arr = _as_array(t)
    out = []
    for o in range(1, arr.ndim + 1):
        s = np.linalg.svd(_mode_unfolding(arr, o), compute_uv=False)
        smax = s[0] if s.size else 0.0
        out.append(0 if smax == 0.0 else int(np.sum(s > tol * smax)))
    return tuple(out)


# -- alternating least squares ------------------------------------------------


@dataclass
class CpAlsResult:
    """Best fit across starts, with the winning start's per-sweep error trace."""

    cp: CpDecomposition
    errors: list[float]
    start: int
    converged: bool

    @property
    def error(self) -> float:
        return self.errors[-1]


def _solve_normal(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``x @ gram[s] = rhs[s]`` rowwise for every start ``s``.

    ``gram`` is ``(S, R, R)`` and ``rhs`` is ``(S, M, R)``.  One stacked solve
    serves the batch; when some start's Gram is singular, the starts are
    solved one by one and only the singular ones get a 1e-12 ridge.
    """
    try:
        return np.swapaxes(np.linalg.solve(np.swapaxes(gram, 1, 2), np.swapaxes(rhs, 1, 2)), 1, 2)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for s in range(gram.shape[0]):
            try:
                out[s] = np.linalg.solve(gram[s].T, rhs[s].T).T
            except np.linalg.LinAlgError:
                ridge = 1e-12 * np.eye(gram.shape[1])
                out[s] = np.linalg.solve((gram[s] + ridge).T, rhs[s].T).T
        return out


def _als_sweeps(arr: np.ndarray, factors: list[np.ndarray], max_iters: int, tol: float):
    """Run ALS from every start at once; start ``s`` is slice ``s`` of each stack.

    ``factors[o]`` stacks the starts' mode-o factors, shape ``(S, M_o, R)``.
    A sweep updates modes 1..O in turn for the running starts.  Its error is
    the exact relative residual ``||X_(O) - A_O kr^T||_F / ||T||_F`` of the
    last mode's unfolding against the Khatri-Rao product its update just
    built.  A start stops, frozen, when a sweep would raise its error (it
    keeps the previous sweep), when the error gains less than ``tol`` or
    reaches 1e-15 (converged), or after ``max_iters`` sweeps (not converged).
    Returns the final stacks, each start's error trace and convergence flags.

    Memory: the stacked Khatri-Rao product holds ``S * R * |T| / M_o``
    entries, S times what one start needs; the residual is taken one start
    at a time, so it adds one copy of the tensor.
    """
    order = arr.ndim
    starts = factors[0].shape[0]
    norm_t = float(np.linalg.norm(arr))
    unfoldings = [_mode_unfolding(arr, o) for o in range(1, order + 1)]
    factors = [np.array(f, dtype=float) for f in factors]
    grams = [np.swapaxes(f, 1, 2) @ f for f in factors]
    traces: list[list[float]] = [[] for _ in range(starts)]
    last = np.full(starts, np.inf)
    converged = np.zeros(starts, dtype=bool)
    cols = np.arange(starts)
    for _ in range(max_iters):
        if not cols.size:
            break
        cur = [f[cols] for f in factors]
        cur_grams = [g[cols] for g in grams]
        for o in range(order):
            # colex unfolding pairs with the reversed-order Khatri-Rao chain
            kr = _khatri_rao([cur[j] for j in range(order - 1, -1, -1) if j != o])
            gram = np.ones_like(cur_grams[0])
            for j in range(order):
                if j != o:
                    gram = gram * cur_grams[j]
            cur[o] = _solve_normal(gram, unfoldings[o] @ kr)
            cur_grams[o] = np.swapaxes(cur[o], 1, 2) @ cur[o]
        # one start at a time, so the residual holds one copy of the tensor
        err = np.empty(cols.size)
        for i in range(cols.size):
            resid = cur[-1][i] @ kr[i].T
            resid -= unfoldings[-1]
            err[i] = np.linalg.norm(resid)
        err = err / norm_t if norm_t > 0 else np.zeros_like(err)
        prev = last[cols]
        # an exact least-squares sweep cannot increase the objective, so a
        # rise is rounding at the fit's floor: the start keeps its previous sweep
        keep = ~(err > prev)
        kept = cols[keep]
        for f, g, c, cg in zip(factors, grams, cur, cur_grams):
            f[kept] = c[keep]
            g[kept] = cg[keep]
        last[kept] = err[keep]
        for k, e in zip(kept.tolist(), err[keep].tolist()):
            traces[k].append(e)
        done = ~keep | (prev - err < tol) | (err <= 1e-15)
        converged[cols[done]] = True
        cols = cols[~done]
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

    Runs ``starts`` fits (start 0 seeds from the leading HOSVD vectors when
    the rank allows, the rest from uniform(-1, 1) entries with per-start
    seeds ``seed + k``) and keeps the best final error; ties break on the
    start index.  All starts run at once as slices of stacked factor
    matrices, and a stopped start stays frozen while the others go on.
    ``tol`` (at least 0) is the per-sweep improvement below which a start
    stops; a start also stops, keeping its previous sweep, when a sweep
    would raise the error (rounding at an exact fit).  The per-sweep error
    is the exact relative residual, computed from the last mode's unfolding
    and the Khatri-Rao product its update already built.  It is non-increasing
    across sweeps and the returned trace belongs to the winning start.
    """
    _check_run_opts(tol, rank=rank, starts=starts, max_iters=max_iters)
    arr = _as_array(t)
    order = arr.ndim
    if order < 2:
        raise ValueError("cp_als needs a tensor of order >= 2")
    inits = []
    for k in range(starts):
        if k == 0 and rank <= min(arr.shape):
            inits.append(hosvd(t, [rank] * order).factors)
        else:
            r = np.random.default_rng(seed + k)
            inits.append([r.uniform(-1.0, 1.0, size=(d, rank)) for d in arr.shape])
    factors = [np.stack([init[o] for init in inits]) for o in range(order)]
    factors, traces, converged = _als_sweeps(arr, factors, max_iters, tol)
    best = min(range(starts), key=lambda k: (traces[k][-1], k))
    cp = cp_normalize(CpDecomposition(np.ones(rank), [f[best] for f in factors]))
    return CpAlsResult(cp=cp, errors=traces[best], start=best, converged=bool(converged[best]))


# -- odeco recovery -------------------------------------------------------------


@dataclass
class OdecoResult:
    """Deflation-based recovery output plus its diagnostics.

    ``status`` is "ok" when every deflation step converged and the recovered
    factor columns are mutually orthonormal; "not_orthogonal" flags input that
    is not orthogonally decomposable; "not_converged" flags power-iteration
    failure (the partial result is still returned).
    """

    cp: CpDecomposition
    reconstruction_error: float
    orthogonality_defect: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _odeco_round(arr, symmetric, seeds, max_iters, tol):
    """One deflation round: the power iteration of every start at once.

    Start ``k`` draws its initial vectors from ``default_rng(seeds[k])``.
    Returns ``(value, vectors, converged)`` of the first start with the
    largest ``|value|``.  Symmetric input runs the symmetric map
    ``x <- F_1(x, .., x)``, anything else the alternating per-mode update
    (HOPM); a start whose update hits zero reports value 0, not converged.
    """
    order = arr.ndim
    gens = [np.random.default_rng(sd) for sd in seeds]
    if symmetric:
        blocks = [np.column_stack([r.normal(size=arr.shape[0]) for r in gens])]

        def update(k, cur, cols):
            return _contract_all_but_batch(arr, 1, cur[0])

    else:
        draws = [[r.normal(size=d) for d in arr.shape] for r in gens]
        blocks = [np.column_stack([d[o] for d in draws]) for o in range(order)]

        def update(k, cur, cols):
            return _contract_all_but_batch(arr, k + 1, cur[:k] + cur[k + 1:])

    blocks = [b / np.linalg.norm(b, axis=0) for b in blocks]
    blocks, status = _power_sweeps(update, blocks, 2, tol, max_iters)
    xs = blocks * order if symmetric else blocks
    value = np.sum(_contract_all_but_batch(arr, 1, xs[1:]) * xs[0], axis=0)
    value[status < 0] = 0.0
    k = int(np.argmax(np.abs(value)))
    return value[k], [x[:, k] for x in xs], status[k] == 1


def odeco_decompose(
    t: DenseTensor,
    *,
    symmetric: bool = False,
    rank: int | None = None,
    max_iters: int = 500,
    tol: float = 1e-10,
    seed: int = 0,
    starts: int = 8,
) -> OdecoResult:
    """Recover an orthogonal CP decomposition by power iteration with deflation.

    Each round runs multi-start power iteration on the deflated remainder
    (symmetric map when ``symmetric``, alternating per-mode otherwise), keeps
    the largest-magnitude component found, subtracts it, and repeats until the
    remainder drops below ``tol`` (at least 0) times the input norm or
    ``rank`` components are extracted (default: the smallest mode size).  On
    input that is not orthogonally decomposable the factor Gram check
    (entries within ``_ORTH_TOL`` of the identity) or, without a ``rank``
    cap, the reconstruction check fails and the result carries the "not_orthogonal"
    status.
    """
    _check_run_opts(tol, rank=1 if rank is None else rank, starts=starts, max_iters=max_iters)
    data = arr = _as_array(t)
    if symmetric and len(set(arr.shape)) != 1:
        raise ValueError("symmetric recovery needs a cubical tensor")
    order = arr.ndim
    rank_capped = rank is not None
    if rank is None:
        rank = min(arr.shape)
    norm0 = float(np.linalg.norm(arr))
    weights: list[float] = []
    vectors: list[list[np.ndarray]] = [[] for _ in range(order)]
    status = "ok"
    component = 0
    while component < rank and np.linalg.norm(arr) > tol * max(norm0, 1e-300):
        seeds = [seed + 101 * component + k for k in range(starts)]
        value, xs, conv = _odeco_round(arr, symmetric, seeds, max_iters, tol)
        if not conv or value == 0.0:
            status = "not_converged"
            break
        weights.append(value)
        for o in range(order):
            vectors[o].append(xs[o])
        arr = arr - value * outer(*xs).to_array()
        component += 1

    if not weights:
        cp = CpDecomposition(np.zeros(1), [np.eye(d, 1) for d in data.shape])
        return OdecoResult(cp, 1.0 if norm0 > 0 else 0.0, 0.0, "not_converged")

    factors = [np.column_stack(vectors[o]) for o in range(order)]
    cp = CpDecomposition(np.array(weights), factors)
    recon_err = frobenius_norm(cp_eval(cp).to_array() - data) / max(norm0, 1e-300)
    defect = 0.0
    for f in factors:
        gram = f.T @ f
        defect = max(defect, float(np.max(np.abs(gram - np.eye(gram.shape[0])))))
    if status == "ok" and defect > _ORTH_TOL:
        status = "not_orthogonal"
    if status == "ok" and not rank_capped and recon_err > max(_ORTH_TOL, tol):
        status = "not_orthogonal"
    return OdecoResult(cp, recon_err, defect, status)
