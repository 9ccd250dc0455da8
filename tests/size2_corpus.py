"""Digest of a seeded size-2 `find_eigenpairs` corpus, to compare two trees bit for bit.

    PYTHONPATH=src python tests/size2_corpus.py

makes 8,400 calls: 20 seeds; orders 2-5; Gaussian, integer, nonnegative,
sparse and rank-one 2^O tensors at x1, x1e-8 and x1e150; every mode; z and
h.  It prints the call and record counts and one SHA-256 over every record's
value, vector bytes, residual and ``converged`` flag, in the order returned.
Run it with another tree's ``src`` on the path and compare the lines.
"""

import hashlib
import warnings

import numpy as np

from tensorspec.spectra import find_eigenpairs
from tensorspec.tensor import DenseTensor, outer


def inputs(order, seed):
    g = np.random.default_rng(10_000 * order + seed)
    shape = (2,) * order
    yield g.normal(size=shape)
    yield g.integers(-3, 4, size=shape).astype(float)
    yield np.abs(g.normal(size=shape))
    yield np.where(g.random(shape) < 0.4, g.normal(size=shape), 0.0)
    yield outer(*[g.normal(size=2) for _ in range(order)]).to_array()


def main():
    digest, calls, records = hashlib.sha256(), 0, 0
    for seed in range(20):
        for order in range(2, 6):
            for arr in inputs(order, seed):
                for scale in (1.0, 1e-8, 1e150):
                    t = DenseTensor(arr * scale)
                    for mode in range(1, order + 1):
                        for variant in "zh":
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                pairs = find_eigenpairs(t, mode, variant)
                            calls += 1
                            records += len(pairs)
                            digest.update(b"|")
                            for p in pairs:
                                digest.update(np.float64(p.value).tobytes() + p.vector.tobytes())
                                digest.update(np.float64(p.residual).tobytes() + bytes([p.converged]))
    print(f"{calls} calls, {records} records, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
