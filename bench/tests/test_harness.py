"""Self-tests of the benchmark's metric names and boundary tracing."""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tensorspec  # noqa: E402
import tensorspec.cli  # noqa: E402,F401
from tensorspec import spectra  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_per_layer_names_match_the_tracer():
    names = list(layers.layer_metrics(layers.Tracer())) + ["trace.overhead_frac"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])


def test_untraced_metrics_read_zero():
    assert not any(layers.layer_metrics(layers.Tracer()).values())


def test_traced_call_counts_boundaries_and_restores_bindings():
    before = spectra._contract_all_but_array
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        tracer.active = True
        t = tensorspec.DenseTensor(np.random.default_rng(0).normal(size=(2, 2, 2)))
        tensorspec.find_eigenpairs(t, 1, "z")
        tensorspec.find_eigenpairs(tensorspec.DenseTensor(np.ones((3, 3, 3))), 1, "h", starts=4)
        tracer.active = False
    finally:
        layers.uninstall(patches)
    assert spectra._contract_all_but_array is before
    metrics = layers.layer_metrics(tracer)
    assert metrics["spectra.find_eigenpairs.size2.ms"] > 0
    assert metrics["spectra.find_eigenpairs.iterative.ms"] > 0
    assert metrics["contract.calls"] > 0 and metrics["numpy.tensordot.calls"] > 0
    assert 0 < metrics["spectra.records_per_start"] <= 1
    # each start of the iterative solve is a spectra span inside the decomp runner
    spans = tracer.by_name()
    assert spans["spectra.start"][0] == 4 and spans["decomp._run_starts"][0] == 1
    # self time excludes children, so no layer's self time exceeds the total
    assert sum(rec[2] for rec in spans.values()) <= spans["spectra.find_eigenpairs.size2"][1] + spans[
        "spectra.find_eigenpairs.iterative"][1] + 1e-6
