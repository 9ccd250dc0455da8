"""JSON serialization for tensors, decompositions, and solver results.

The tensor file format is a bit-exact contract:

    {"shape": [M1, ..., MO], "layout": "colex", "data": [ ... floats ... ]}

with integer dims ``M_i >= 1`` and exactly ``M1 * ... * MO`` finite numbers in
colex (column-major) order.  The entries must be JSON numbers, read as
Python ``int`` or ``float``: the reader rejects wrong-length, nested, string,
boolean (even one ``true`` among numbers) and non-finite data, non-integer or
non-positive dims, and unknown layouts.

CP and Tucker decompositions serialize as

    {"weights": [...], "factors": [[[row], ...], ...]}
    {"core": <tensor object>, "factors": [[[row], ...], ...]}

with factor matrices as nested row lists.  Eigenpairs and singular tuples
serialize as ``{"variant", "mode", "lambda", "vector", "residual"}`` and
``{"p", "sigma", "vectors", "residual"}`` records.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .decomp import CpDecomposition, TuckerDecomposition
from .spectra import EigenPair, SingularTuple
from .tensor import DenseTensor

__all__ = [
    "tensor_to_dict",
    "tensor_from_dict",
    "load_tensor",
    "save_tensor",
    "cp_to_dict",
    "cp_from_dict",
    "tucker_to_dict",
    "tucker_from_dict",
    "eigenpair_to_dict",
    "eigenpair_from_dict",
    "singular_tuple_to_dict",
    "singular_tuple_from_dict",
]


def tensor_to_dict(t: DenseTensor) -> dict[str, Any]:
    return {
        "shape": list(t.dims),
        "layout": "colex",
        "data": t.to_buffer().tolist(),
    }


def tensor_from_dict(obj: dict[str, Any]) -> DenseTensor:
    if not isinstance(obj, dict):
        raise ValueError("tensor file must hold a JSON object")
    missing = {"shape", "layout", "data"} - set(obj)
    if missing:
        raise ValueError(f"tensor object missing keys: {sorted(missing)}")
    layout = obj["layout"]
    if layout != "colex":
        raise ValueError(f"unknown layout {layout!r} (only 'colex' is defined)")
    dims = obj["shape"]
    if not isinstance(dims, list) or not all(type(d) is int and d >= 1 for d in dims):
        raise ValueError(f"shape must be a list of integers >= 1, got {dims!r}")
    data = obj["data"]
    # one scan of the entry types: JSON numbers load as int or float; bool,
    # str, None and nested lists are rejected
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError("data must be a flat list of numbers")
    if len(data) != math.prod(dims):
        raise ValueError(
            f"data has {len(data)} entries, shape {dims} needs {math.prod(dims)}"
        )
    try:
        buf = np.asarray(data, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("tensor data must be finite") from None
    if not np.all(np.isfinite(buf)):
        raise ValueError("tensor data must be finite")
    return DenseTensor(buf, dims=dims)


def load_tensor(path) -> DenseTensor:
    with open(path, "r", encoding="utf-8") as fh:
        return tensor_from_dict(json.load(fh))


def save_tensor(t: DenseTensor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(tensor_to_dict(t)) + "\n")


def cp_to_dict(cp: CpDecomposition) -> dict[str, Any]:
    return {
        "weights": [float(w) for w in cp.weights],
        "factors": [f.tolist() for f in cp.factors],
    }


def cp_from_dict(obj: dict[str, Any]) -> CpDecomposition:
    return CpDecomposition(obj["weights"], [np.asarray(f, dtype=float) for f in obj["factors"]])


def tucker_to_dict(tk: TuckerDecomposition) -> dict[str, Any]:
    return {
        "core": tensor_to_dict(tk.core),
        "factors": [f.tolist() for f in tk.factors],
    }


def tucker_from_dict(obj: dict[str, Any]) -> TuckerDecomposition:
    return TuckerDecomposition(
        tensor_from_dict(obj["core"]),
        [np.asarray(f, dtype=float) for f in obj["factors"]],
    )


def eigenpair_to_dict(p: EigenPair) -> dict[str, Any]:
    return {
        "variant": p.variant,
        "mode": p.mode,
        "lambda": float(p.value),
        "vector": [float(x) for x in p.vector],
        "residual": float(p.residual),
        "converged": bool(p.converged),
    }


def eigenpair_from_dict(obj: dict[str, Any]) -> EigenPair:
    return EigenPair(
        variant=obj["variant"],
        mode=int(obj["mode"]),
        value=float(obj["lambda"]),
        vector=np.asarray(obj["vector"], dtype=float),
        residual=float(obj["residual"]),
        converged=bool(obj.get("converged", True)),
    )


def singular_tuple_to_dict(s: SingularTuple) -> dict[str, Any]:
    return {
        "p": s.p,
        "sigma": float(s.sigma),
        "vectors": [[float(x) for x in v] for v in s.vectors],
        "residual": float(s.residual),
        "converged": bool(s.converged),
    }


def singular_tuple_from_dict(obj: dict[str, Any]) -> SingularTuple:
    return SingularTuple(
        p=int(obj["p"]),
        sigma=float(obj["sigma"]),
        vectors=tuple(np.asarray(v, dtype=float) for v in obj["vectors"]),
        residual=float(obj["residual"]),
        converged=bool(obj.get("converged", True)),
    )
