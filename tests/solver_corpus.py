"""Digest of a seeded iterative-solver corpus, to compare two trees bit for bit.

    PYTHONPATH=src python tests/solver_corpus.py

makes 624 calls: 4 seeds; general, symmetric, nonnegative and sparse 3^3,
4^3 and 3^4 tensors, each `find_eigenpairs` on modes 1 and O (z and h) and
`find_singular_tuples` (p = 2 and p = O); general, nonnegative and sparse
5x6x7 tensors, `find_singular_tuples` only; all at x1 and x1e8.  It prints
the call and record counts and one SHA-256 over every record's scalar,
vector bytes, residual and ``converged`` flag, in the order returned.  Run it
with another tree's ``src`` on the path and compare the lines; the digest
depends on the BLAS build, so compare two trees on one machine only.
"""

import hashlib
import itertools
import warnings

import numpy as np

from tensorspec.spectra import find_eigenpairs, find_singular_tuples
from tensorspec.tensor import DenseTensor


def inputs(shape, seed):
    """The general, symmetric (cubical shapes only), nonnegative and sparse inputs of one shape and seed."""
    g = np.random.default_rng([seed, *shape])
    yield g.normal(size=shape)
    if len(set(shape)) == 1:
        a = g.normal(size=shape)
        perms = list(itertools.permutations(range(len(shape))))
        yield sum(a.transpose(p) for p in perms) / len(perms)
    yield np.abs(g.normal(size=shape))
    yield np.where(g.random(shape) < 0.4, g.normal(size=shape), 0.0)


def solves(t, cubical):
    order = t.order
    if cubical:
        for mode, variant in itertools.product((1, order), "zh"):
            yield [(p.value, [p.vector], p.residual, p.converged) for p in find_eigenpairs(t, mode, variant)]
    for p in (2, order):
        yield [(s.sigma, s.vectors, s.residual, s.converged) for s in find_singular_tuples(t, p)]


def main():
    digest, calls, records = hashlib.sha256(), 0, 0
    for seed in range(4):
        for shape in ((3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (5, 6, 7)):
            for arr in inputs(shape, seed):
                for scale in (1.0, 1e8):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        for recs in solves(DenseTensor(arr * scale), len(set(shape)) == 1):
                            calls += 1
                            records += len(recs)
                            digest.update(b"|")
                            for value, vectors, residual, converged in recs:
                                digest.update(np.float64(value).tobytes() + b"".join(v.tobytes() for v in vectors))
                                digest.update(np.float64(residual).tobytes() + bytes([converged]))
    print(f"{calls} calls, {records} records, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
