"""Digest of a CLI corpus, to compare two trees byte for byte.

    PYTHONPATH=src python tests/cli_corpus.py

runs `tensorspec.cli.main` in process on the 9 golden fixtures and on seeded
Gaussian 3^3, 2x3x4, 4x3 and 4-vector files at x1e-8 and x1e8: every
subcommand (info, mlrank, hosvd at full and unit ranks, cp, odeco, svd with
p = 2 and p = O, eig z and h on every mode, contract with itself), and tucker
on each hosvd output, each in json and table form.  Runs that the CLI rejects
(eig on a non-cubical tensor, an order-1 solve) count too.  It prints the
run count and one SHA-256 over every run's argv, stdout, stderr and exit
code.  Files are named relative to a temporary working directory, so no
path enters the digest.  Run it with another tree's ``src`` on the path and
compare the lines; the digest depends on the BLAS build, so compare two
trees on one machine only.
"""

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from tensorspec import cli
from tensorspec.serialize import save_tensor
from tensorspec.tensor import DenseTensor

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
SHAPES = {"cube": (3, 3, 3), "box": (2, 3, 4), "mat": (4, 3), "vec": (4,)}


def write_inputs():
    """The input files in the working directory: the fixtures, then the seeded tensors; name -> order."""
    orders = {}
    for path in FIXTURES:
        shutil.copy(path, path.name)
        orders[path.name] = 3
    for name, shape in SHAPES.items():
        arr = np.random.default_rng(list(shape)).normal(size=shape)
        for scale in (1e-8, 1e8):
            orders[f"{name}_{scale:g}.json"] = len(shape)
            save_tensor(DenseTensor(arr * scale), f"{name}_{scale:g}.json")
    return orders


def argvs(name, order):
    """Every subcommand on one input file; the hosvd runs are each followed by tucker on their output."""
    yield ["info", name]
    yield ["mlrank", name]
    for ranks in (None, ",".join(["1"] * order)):
        yield ["hosvd", name] + (["--ranks", ranks] if ranks else [])
        yield ["tucker", "tk.json"]
    yield ["cp", name, "--rank", "2"]
    yield ["odeco", name]
    yield ["svd", name]
    yield ["svd", name, "--p", "O"]
    for mode in range(1, order + 1):
        for variant in "zh":
            yield ["eig", name, "--variant", variant, "--mode", str(mode)]
    yield ["contract", name, name, "--mode", "1"]


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    digest, runs = hashlib.sha256(), 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, order in write_inputs().items():
                for argv in argvs(name, order):
                    for fmt in ("json", "table"):
                        code, out, err = run(argv + ["--format", fmt])
                        if argv[0] == "hosvd" and fmt == "json":
                            Path("tk.json").write_text(out)
                        runs += 1
                        digest.update("\0".join([*argv, fmt, out, err, str(code)]).encode() + b"\n")
        finally:
            os.chdir(cwd)
    print(f"{runs} runs, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
