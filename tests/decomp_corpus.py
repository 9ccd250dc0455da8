"""Digest of a seeded decomposition corpus, to compare two trees bit for bit.

    PYTHONPATH=src python tests/decomp_corpus.py

makes 536 calls over 4 seeds, each input at x1 and x1e8:

* `odeco_decompose`, symmetric on 3^3, 4^3, 5^3 and 3^4 and general on
  3^3, 4x5x6 and 3x4x3x2, on exact planted, noisy planted (1e-3 and 1e-2 of
  the norm) and Gaussian random input;
* `cp_als` on 4^3 at rank 2, 5x6x7 at rank 3 and 3^4 at rank 2, on exact
  planted input with orthonormal and with Gaussian factors, and on Gaussian
  random input;
* `hosvd` at full ranks and at ranks one less, and `multilinear_rank`, on
  every `cp_als` input and on planted Tucker 6^3 of multilinear rank (2, 3, 4).

It prints the call count and one SHA-256 over every result: weights, factor
and core bytes, errors, reconstruction error, orthogonality defect, status,
winning start, converged flag and ranks, in the order returned.  Run it with
another tree's ``src`` on the path and compare the lines; the digest depends
on the BLAS build, so compare two trees on one machine only.
"""

import hashlib
import itertools
import warnings

import numpy as np

from tensorspec.decomp import CpDecomposition, cp_als, cp_eval, hosvd, multilinear_rank, odeco_decompose
from tensorspec.tensor import DenseTensor


def orthonormal(g, m, r):
    return np.linalg.qr(g.normal(size=(m, m)))[0][:, :r]


def odeco_inputs(shape, symmetric, seed):
    """Exact planted, two noisy planted and one random input of one shape and seed."""
    g = np.random.default_rng([seed, symmetric, *shape])
    r = min(shape)
    weights = (np.arange(1, r + 1) + g.uniform(0.1, 0.9, size=r)) * g.choice([-1.0, 1.0], size=r)
    factors = [orthonormal(g, shape[0], r)] * len(shape) if symmetric else [orthonormal(g, m, r) for m in shape]
    exact = cp_eval(CpDecomposition(weights, factors)).to_array()
    yield exact
    for noise in (1e-3, 1e-2):
        direction = g.normal(size=shape)
        if symmetric:
            direction = sum(np.transpose(direction, q) for q in itertools.permutations(range(len(shape))))
        yield exact + noise * np.linalg.norm(exact) * direction / np.linalg.norm(direction)
    random = g.normal(size=shape)
    if symmetric:
        random = sum(np.transpose(random, q) for q in itertools.permutations(range(len(shape))))
    yield random


def cp_inputs(shape, rank, seed):
    """Exact planted input with orthonormal and with Gaussian factors, and one random input."""
    g = np.random.default_rng([seed, rank, *shape])
    weights = g.uniform(0.5, 2.0, size=rank)
    yield cp_eval(CpDecomposition(weights, [orthonormal(g, m, rank) for m in shape])).to_array()
    yield cp_eval(CpDecomposition(weights, [g.normal(size=(m, rank)) for m in shape])).to_array()
    yield g.normal(size=shape)


def tucker_input(seed):
    g = np.random.default_rng([seed, 6])
    arr = g.normal(size=(2, 3, 4))
    for o in range(3):
        arr = np.moveaxis(np.tensordot(orthonormal(g, 6, arr.shape[o]), arr, axes=(1, o)), 0, o)
    return arr


def cp_bytes(cp):
    return cp.weights.tobytes() + b"".join(f.tobytes() for f in cp.factors)


def ranks_results(t):
    """`hosvd` at full ranks and at ranks one less (at least 1), then `multilinear_rank`."""
    dims = t.to_array().shape
    for ranks in (dims, [max(m - 1, 1) for m in dims]):
        tk = hosvd(t, ranks)
        yield tk.core.to_array().tobytes() + b"".join(f.tobytes() for f in tk.factors)
    yield repr(multilinear_rank(t)).encode()


def results(seed):
    """The digest bytes of every call of one seed, one entry per call."""
    for scale in (1.0, 1e8):
        for shape, symmetric in [((3, 3, 3), True), ((4, 4, 4), True), ((5, 5, 5), True), ((3, 3, 3, 3), True),
                                 ((3, 3, 3), False), ((4, 5, 6), False), ((3, 4, 3, 2), False)]:
            for arr in odeco_inputs(shape, symmetric, seed):
                res = odeco_decompose(DenseTensor(arr * scale), symmetric=symmetric)
                yield cp_bytes(res.cp) + np.array([res.reconstruction_error, res.orthogonality_defect]).tobytes() + res.status.encode()
        for shape, rank in [((4, 4, 4), 2), ((5, 6, 7), 3), ((3, 3, 3, 3), 2)]:
            for arr in cp_inputs(shape, rank, seed):
                t = DenseTensor(arr * scale)
                res = cp_als(t, rank)
                yield cp_bytes(res.cp) + np.array(res.errors).tobytes() + bytes([res.start, res.converged])
                yield from ranks_results(t)
        yield from ranks_results(DenseTensor(tucker_input(seed) * scale))


def main():
    digest, calls = hashlib.sha256(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(4):
            for entry in results(seed):
                calls += 1
                digest.update(b"|" + entry)
    print(f"{calls} calls, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
