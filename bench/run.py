"""Layered benchmark of `tensorspec`.

Run from the repository root:

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --out BENCH_x.json
    python3 bench/run.py --compare BENCH_base.json BENCH_x.json
    python3 -m pytest bench/tests

Workloads (see `workloads.py` for the case lists):

* ``spectral``: iterative Z/H eigenpair and l2/lO singular-tuple solvers,
  planted odeco tensors and scaled copies;
* ``size2``: the exhaustive size-2 eigen solver on the golden fixtures and
  seeded 2^O tensors;
* ``decomp``: CP-ALS, HOSVD, multilinear rank and odeco recovery on planted
  inputs;
* ``cli-io``: ``tensorspec.cli.main`` in process, JSON reads and writes.

One run sets up its inputs from ``--seed`` several times (``setup_s`` is the
median), then repeats untraced passes over the workload's fixed case list
for about ``--seconds`` seconds, checking every output against the oracles
in `oracles.py`.  Then each defect probe of the workload (a case that
reproduces a known defect, see `workloads.py`) is called once, and whether
it still reproduces its defect is printed; probes are not timed and are
outside ``attempted`` and ``failed``.  With ``--trace 1`` half the time
goes to untraced passes and one traced pass follows; it reports the
per-layer metrics of `layers.py`.  Everything runs in one process and one thread, with BLAS
pinned to one thread before numpy is imported.  Reported times are scaled
to a nominal machine speed measured during the run (`ReferenceClock`); the
unscaled wall times are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
``correct`` is false when a timed case fails that does not name a known
defect.
``--out FILE`` also merges the full result (environment, every metric,
per-case times) into FILE under the workload's name, and ``--compare BASE
NEW`` prints, one row per workload, each end-to-end metric of NEW as a
ratio to BASE.

Measure a claimed gain on the seeds used while writing it, then confirm it
on ``HELD_OUT_SEED``, which is kept out of development.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("spectral", "size2", "decomp", "cli-io")
HELD_OUT_SEED = 7
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set-up repeats at each end of the run, so that a burst of load on the
# machine does not cover all of them
SETUP_REPEATS = 5
# Shared machines run the same code up to twice as slowly for seconds to
# minutes at a time.  A fixed numpy kernel is timed between calls, at most
# every REFERENCE_INTERVAL_S, and each call's time is scaled by
# REFERENCE_NOMINAL_S over the latest kernel time: reported times are
# seconds at the speed where the kernel takes REFERENCE_NOMINAL_S.
REFERENCE_INTERVAL_S = 0.2
REFERENCE_NOMINAL_S = 0.0017
END_TO_END = {
    "total_s": "s",
    "case_geomean_ms": "ms",
    "ok_frac": "frac",
    "oracle_recall": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and saved but not in BENCHMARK.json.  On spectral and decomp the
# case at a given percentile changes with the seed, so the percentiles
# spread by 15-40%; the wall times are the unscaled ones.
REPORTED = {
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "failed_frac": "frac",
    "defects_reproduced": "count",
    "wall_total_s": "s",
    "wall_setup_s": "s",
    "reference_ms": "ms",
}


def _import_tensorspec():
    """The package from this checkout's ``src``, freshly imported."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "tensorspec" or n.startswith("tensorspec.")]:
        del sys.modules[name]
    ts = importlib.import_module("tensorspec")
    importlib.import_module("tensorspec.cli")
    importlib.import_module("tensorspec.golden")
    return ts


def setup(workload: str, seed: int, workdir: Path, repeats: int, clock):
    """Import, generate inputs and write files ``repeats`` times; keep the last.

    Returns the cases and (scaled, wall) seconds of each repeat.
    """
    import numpy as np

    from workloads import CASE_LISTS

    times = []
    for _ in range(repeats):
        scale = clock.scale()
        t0 = time.perf_counter()
        ts = _import_tensorspec()
        cases = CASE_LISTS[workload](ts, np.random.default_rng(seed), str(workdir))
        dt = time.perf_counter() - t0
        times.append((dt * scale, dt))
    return cases, times


class ReferenceClock:
    """Times a fixed numpy kernel now and then to track the machine's speed."""

    def __init__(self):
        import numpy as np

        # bound now, so that the traced pass's wrappers do not slow the kernel
        self._tensordot, self._norm = np.tensordot, np.linalg.norm
        self._a = np.linspace(-1.0, 1.0, 27).reshape(3, 3, 3)
        self._x = np.full(3, 0.5)
        self._last = -math.inf
        self._scale = 1.0
        self.samples: list[float] = []

    def _kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(100):
            y = self._tensordot(self._tensordot(self._a, self._x, axes=(2, 0)), self._x, axes=(1, 0))
            float(self._norm(y))
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor from wall to nominal-speed seconds for the next call."""
        if time.perf_counter() - self._last >= REFERENCE_INTERVAL_S:
            sample = self._kernel_s()
            self.samples.append(sample)
            self._scale = REFERENCE_NOMINAL_S / sample
            self._last = time.perf_counter()
        return self._scale


def run_pass(cases, clock, tracer=None):
    """Time each call, then check it; returns per-case (scaled s, wall s, verdict)."""
    from oracles import fail

    out = []
    for case in cases:
        scale = clock.scale()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result, error = case.call(), None
        except Exception as exc:  # a raising call is a failed case; the pass goes on
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        verdict = fail(f"raised {type(error).__name__}: {error}") if error else case.check(result)
        out.append((dt * scale, dt, verdict))
    return out


def run_passes(cases, budget: float, clock):
    """Untraced passes until the next one would end past ``budget`` seconds (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, clock))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def split_probes(cases):
    """(timed cases, defect probes)."""
    return [c for c in cases if not c.known_defect], [c for c in cases if c.known_defect]


def summarize(cases, passes, probe_results, setup_times, clock):
    """Every end-to-end and reported metric, plus per-case median times."""
    per_case_ms = [1e3 * statistics.median(p[i][0] for p in passes) for i in range(len(cases))]
    verdicts = [v for p in passes for _, _, v in p]
    failed = sum(not v.ok for v in verdicts)
    expected = sum(v.expected for v in verdicts)
    metrics = {
        "total_s": statistics.median(sum(t for t, _, _ in p) for p in passes),
        "case_geomean_ms": math.exp(statistics.fmean(math.log(max(t, 1e-6)) for t in per_case_ms)),
        "ok_frac": 1.0 - failed / len(verdicts),
        "oracle_recall": sum(v.recovered for v in verdicts) / expected if expected else 1.0,
        "setup_s": statistics.median(t for t, _ in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_p50_ms": statistics.median(per_case_ms),
        "call_p90_ms": statistics.quantiles(per_case_ms, n=10, method="inclusive")[-1],
        "failed_frac": failed / len(verdicts),
        "defects_reproduced": sum(not v.ok for _, _, v in probe_results),
        "wall_total_s": statistics.median(sum(t for _, t, _ in p) for p in passes),
        "wall_setup_s": statistics.median(t for _, t in setup_times),
        "reference_ms": 1e3 * statistics.median(clock.samples),
    }
    return metrics, per_case_ms, len(verdicts), failed


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(args) -> int:
    if not (SRC / "tensorspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no tensorspec sources under {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clock = ReferenceClock()
            cases, setup_times = setup(args.workload, args.seed, workdir, SETUP_REPEATS, clock)
            cases, probes = split_probes(cases)
            passes = run_passes(cases, args.seconds / 2 if args.trace else args.seconds, clock)
            # after the passes: a scaled-input probe compares with its timed case's output
            probe_results = run_pass(probes, clock)
            # the traced pass needs the cases bound to the modules imported last
            fresh, more_times = setup(args.workload, args.seed, workdir, SETUP_REPEATS, clock)
            metrics, per_case_ms, attempted, failed = summarize(
                cases, passes, probe_results, setup_times + more_times, clock)
            per_layer = traced_pass(split_probes(fresh)[0], metrics["total_s"], clock) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    # a failure is acceptable only where it reproduces a known defect
    unexpected = {c.name for p in passes for c, (_, _, v) in zip(cases, p) if not v.ok and not v.known}
    env = environment(args.seed)
    units = {**END_TO_END, **REPORTED}
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(cases)} cases x {len(passes)} passes, {len(probes)} defect probes")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:>14.6g} {units[name]}")
    for case, (_, _, v) in zip(cases, passes[0]):
        if not v.ok:
            tag = f"known: {v.known}" if v.known else "UNEXPECTED"
            print(f"  FAILED {case.name}: {v.reason} [{tag}]")
    for case, (_, _, v) in zip(probes, probe_results):
        state = f"reproduced: {v.reason}" if not v.ok else "not reproduced"
        print(f"  DEFECT {case.name}: {state} [{case.known_defect}]")
    if per_layer is not None:
        for name, value in per_layer.items():
            print(f"  {name:<40} {value:>14.6g} {layer_unit(name)}")
    if args.out:
        save_result(args, env, metrics, cases, per_case_ms, passes, probes, probe_results, per_layer)
    if args.trace:
        shown = {n: (v, layer_unit(n)) for n, v in per_layer.items()}
    else:
        shown = {n: (metrics[n], u) for n, u in END_TO_END.items()}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
    }))
    return 0


def traced_pass(cases, untraced_total_s, clock):
    import layers

    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        results = run_pass(cases, clock, tracer)
    finally:
        layers.uninstall(patches)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = sum(t for t, _, _ in results) / untraced_total_s - 1.0
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("flops_per_call"):
        return "flop"
    if name.endswith(("_frac", "per_start")):
        return "frac"
    return "count"


def save_result(args, env, metrics, cases, per_case_ms, passes, probes, probe_results, per_layer):
    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    data["env"] = env
    data["workloads"][args.workload] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "metrics": metrics,
        "cases": {c.name: {"ms": ms, "ok": v.ok, "known_defect": v.known}
                  for c, ms, (_, _, v) in zip(cases, per_case_ms, passes[0])},
        "defect_probes": {c.name: {"reproduced": not v.ok, "reason": v.reason, "defect": c.known_defect}
                          for c, (_, _, v) in zip(probes, probe_results)},
        "per_layer": per_layer,
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    for workload in [w for w in WORKLOADS if w in base and w in new]:
        cells = []
        for name, unit in END_TO_END.items():
            b, n = base[workload]["metrics"][name], new[workload]["metrics"][name]
            ratio = f"{n / b:.3f}x" if b else "n/a"
            cells.append(f"{name} {ratio} (base {b:.6g} {unit})")
        print(f"{workload:<9} " + "  ".join(cells))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of tensorspec.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="merge the full result into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    # numpy is imported only after this, so BLAS starts single-threaded
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
