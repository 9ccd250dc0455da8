"""Spans and counts at the module boundaries of `tensorspec`, recorded from outside.

`install` rebinds, for the duration of a traced pass, every function that one
`tensorspec` module binds from another (``from .contract import
_contract_all_but_array`` in ``spectra``, the package's re-exports, and the
functions of a module bound whole, such as ``serialize`` in ``cli``), plus
the numpy and json kernels underneath: ``numpy.tensordot``, ``numpy.einsum``,
``numpy.matmul``, every ``numpy.linalg`` function, and ``json.load(s)`` and
``json.dump(s)``.  Classes and methods are not wrapped; their time counts
toward the calling span.  A name that does not exist at a given commit is
simply not wrapped and reads as zero calls.

Spans are aggregated in memory by (parent, name): calls, total and self time,
where self time is the span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "tensorspec"
LAYERS = ("cli", "serialize", "spectra", "decomp", "contract", "tensor", "shape", "numpy", "json")
CLI_SUBCOMMANDS = ("info", "contract", "eig", "cp", "tucker", "hosvd", "mlrank")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total_s, self_s
        self.counters = defaultdict(float)
        self._stack: list[list] = []  # [name, child_s]

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            rec = self.spans[(parent, name)]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def by_name(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.spans.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out


# -- per-function hooks: span naming and counts read off arguments and results --


def _dims(args):
    t = args[0] if args else None
    dims = getattr(t, "dims", None)
    return tuple(dims) if dims is not None else np.shape(t)


def _default(fn, name):
    try:
        return inspect.signature(fn).parameters[name].default
    except (KeyError, TypeError, ValueError):
        return None


def _eig_name(args, kwargs):
    return "size2" if _dims(args)[:1] == (2,) else "iterative"


def _count_records(tracer, fn, args, kwargs, result):
    if fn.__name__ == "find_eigenpairs" and _eig_name(args, kwargs) == "size2":
        return
    starts = kwargs.get("starts", _default(fn, "starts"))
    if isinstance(starts, int):
        tracer.counters["spectra.records"] += len(result)
        tracer.counters["spectra.starts"] += starts


def _count_sweeps(tracer, fn, args, kwargs, result):
    tracer.counters["decomp.cp_als.sweeps"] += len(getattr(result, "errors", ()))


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


def _trace_tasks(tracer, args, kwargs):
    """Give each start handed to ``_run_starts`` a span in the layer that wrote it.

    Without this the callers' closures count as the runner's self time.
    """
    tasks = args[0] if args else kwargs.pop("tasks")
    traced = [functools.partial(tracer.call, f"{_layer_of(t) or 'bench'}.start", t, (), {}) for t in tasks]
    return (traced,) + tuple(args[1:]), kwargs


# function __name__ -> rewrite of the arguments before the call
ARG_HOOKS = {"_run_starts": _trace_tasks}
# function __name__ -> (suffix from arguments, counter update after the call)
HOOKS = {
    "find_eigenpairs": (_eig_name, _count_records),
    "find_singular_tuples": (None, _count_records),
    "cp_als": (None, _count_sweeps),
    "main": (_cli_name, None),
}


def _flops_tensordot(args, kwargs):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    axes = args[2] if len(args) > 2 else kwargs.get("axes", 2)
    if isinstance(axes, int):
        contracted = math.prod(a.shape[a.ndim - axes:]) if axes else 1
    else:
        ax = axes[0] if isinstance(axes[0], (list, tuple)) else [axes[0]]
        contracted = math.prod(a.shape[i] for i in ax)
    return 2 * (a.size // max(contracted, 1)) * b.size


def _flops_einsum(args, kwargs):
    if not args or not isinstance(args[0], str) or "..." in args[0]:
        return 0
    inputs = args[0].split("->")[0].split(",")
    sizes = {}
    for sub, op in zip(inputs, args[1:]):
        for c, d in zip(sub, np.shape(op)):
            sizes[c] = d
    # naive evaluation: one multiply per extra operand plus one add, per index tuple
    return len(inputs) * math.prod(sizes.values())


def _flops_matmul(args, kwargs):
    a, b = np.shape(args[0]), np.shape(args[1])
    if len(a) < 2 or len(b) < 1:
        return 0
    n = b[-1] if len(b) >= 2 else 1
    return 2 * math.prod(a) * n


def _json_bytes(name, args, result, before):
    if name == "loads":
        return len(args[0])
    if name == "dumps":
        return len(result)
    if name == "dump" and len(args) > 1 and before is not None:
        return args[1].tell() - before
    return 0


def _wrap(tracer, layer, fn, flops=None, name=None):
    base = f"{layer}.{name or fn.__name__}"
    kernel = layer in ("numpy", "json")
    suffix, after = (None, None) if kernel else HOOKS.get(fn.__name__, (None, None))
    prepare = None if kernel else ARG_HOOKS.get(fn.__name__)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        name = f"{base}.{suffix(args, kwargs)}" if suffix else base
        if flops is not None:
            tracer.counters["numpy.flops"] += flops(args, kwargs)
            tracer.counters["numpy.flop_calls"] += 1
        if layer == "json":
            before = args[1].tell() if fn.__name__ == "dump" and len(args) > 1 else None
            result = tracer.call(name, fn, args, kwargs)
            tracer.counters["serialize.bytes"] += _json_bytes(fn.__name__, args, result, before)
            return result
        if prepare is not None:
            args, kwargs = prepare(tracer, args, kwargs)
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result

    wrapper.__bench_wrapped__ = fn
    return wrapper


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if mod.startswith(PACKAGE + "."):
        return mod.split(".")[-1]
    return None


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Rebind the boundary functions; returns what `uninstall` needs to undo it."""
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        if hasattr(getattr(owner, attr), "__bench_wrapped__"):
            return
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj):
                layer = _layer_of(obj)
                if layer and obj.__module__ != mod.__name__:
                    patch(mod, attr, _wrap(tracer, layer, obj))
            elif inspect.ismodule(obj) and mod.__name__ != PACKAGE and obj.__name__.startswith(PACKAGE + "."):
                # a module bound whole (``from . import serialize``): wrap its public functions
                for name in getattr(obj, "__all__", ()):
                    fn = getattr(obj, name, None)
                    if inspect.isfunction(fn) and fn.__module__ == obj.__name__:
                        patch(obj, name, _wrap(tracer, _layer_of(fn), fn))
    cli = sys.modules.get(PACKAGE + ".cli")
    if cli is not None and inspect.isfunction(getattr(cli, "main", None)):
        patch(cli, "main", _wrap(tracer, "cli", cli.main))

    for attr, flops in (("tensordot", _flops_tensordot), ("einsum", _flops_einsum), ("matmul", _flops_matmul)):
        patch(np, attr, _wrap(tracer, "numpy", getattr(np, attr), flops))
    for attr in np.linalg.__all__:
        fn = getattr(np.linalg, attr, None)
        if callable(fn) and not inspect.isclass(fn):
            patch(np.linalg, attr, _wrap(tracer, "numpy", fn, name=f"linalg.{attr}"))
    for attr in ("load", "loads", "dump", "dumps"):
        patch(json, attr, _wrap(tracer, "json", getattr(json, attr)))
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls and self time, plus the named spans and counters."""
    names = tracer.by_name()
    out: dict[str, float] = {}
    for layer in LAYERS:
        recs = [rec for name, rec in names.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(r[0] for r in recs)
        out[f"{layer}.self_ms"] = 1e3 * sum(r[2] for r in recs)

    def calls(prefix):
        return sum(rec[0] for name, rec in names.items() if name.startswith(prefix))

    def total_ms(name):
        return 1e3 * names[name][1] if name in names else 0.0

    out["numpy.tensordot.calls"] = calls("numpy.tensordot")
    out["numpy.einsum.calls"] = calls("numpy.einsum")
    out["numpy.matmul.calls"] = calls("numpy.matmul")
    out["numpy.linalg.calls"] = calls("numpy.linalg.")
    c = tracer.counters
    out["numpy.flops_per_call"] = c["numpy.flops"] / c["numpy.flop_calls"] if c["numpy.flop_calls"] else 0.0
    for name in (
        "spectra.find_eigenpairs.size2",
        "spectra.find_eigenpairs.iterative",
        "spectra.find_singular_tuples",
        "spectra.best_rank_one",
        "decomp.cp_als",
        "decomp.odeco_decompose",
        "decomp.multilinear_rank",
        "decomp.hosvd",
    ):
        out[f"{name}.ms"] = total_ms(name)
    out["spectra.records_per_start"] = c["spectra.records"] / c["spectra.starts"] if c["spectra.starts"] else 0.0
    out["decomp.cp_als.sweeps"] = c["decomp.cp_als.sweeps"]
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.ms"] = total_ms(f"cli.main.{sub}")
    out["serialize.bytes"] = c["serialize.bytes"]
    return out
