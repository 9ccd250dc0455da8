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

with factor matrices as nested row lists.  The weights, and every factor as
a nonempty list of equal-length row lists, follow the tensor data's rule:
exact ``int`` or ``float`` entries, all finite.  Eigenpairs and singular tuples
serialize as ``{"variant", "mode", "lambda", "vector", "residual"}`` and
``{"p", "sigma", "vectors", "residual"}`` records, with an optional boolean
``"converged"``.  Their readers apply the same rule: every number an exact,
finite ``int`` or ``float``, every vector a nonempty flat list of them,
``mode`` an ``int >= 1``, and ``p`` 2 or the number of vectors, of which
there are at least two.
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


def _is_number_list(values) -> bool:
    """True for a flat list of JSON numbers, which load as int or float.

    One scan of the entry types; bool, str, None and nested lists fail it.
    """
    return isinstance(values, list) and set(map(type, values)) <= {int, float}


def _finite(values, what: str) -> np.ndarray:
    """The float array of a number list (or list of them), rejecting non-finite entries."""
    try:
        buf = np.asarray(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite") from None
    if not np.all(np.isfinite(buf)):
        raise ValueError(f"{what} must be finite")
    return buf


def _matrix_from_lists(rows) -> np.ndarray:
    """A factor matrix from a nonempty list of equal-length lists of finite numbers."""
    if (
        not isinstance(rows, list)
        or not rows
        or not all(_is_number_list(r) for r in rows)
        or len({len(r) for r in rows}) != 1
    ):
        raise ValueError("each factor must be a nonempty list of equal-length lists of numbers")
    return _finite(rows, "factor entries")


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
    if not _is_number_list(data):
        raise ValueError("data must be a flat list of numbers")
    if len(data) != math.prod(dims):
        raise ValueError(
            f"data has {len(data)} entries, shape {dims} needs {math.prod(dims)}"
        )
    return DenseTensor(_finite(data, "tensor data"), dims=dims)


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


def _factor_list(obj: dict[str, Any]) -> list[np.ndarray]:
    factors = obj["factors"]
    if not isinstance(factors, list):
        raise ValueError("factors must be a list of matrices")
    return [_matrix_from_lists(f) for f in factors]


def cp_from_dict(obj: dict[str, Any]) -> CpDecomposition:
    weights = obj["weights"]
    if not _is_number_list(weights):
        raise ValueError("weights must be a flat list of numbers")
    return CpDecomposition(_finite(weights, "weights"), _factor_list(obj))


def tucker_to_dict(tk: TuckerDecomposition) -> dict[str, Any]:
    return {
        "core": tensor_to_dict(tk.core),
        "factors": [f.tolist() for f in tk.factors],
    }


def tucker_from_dict(obj: dict[str, Any]) -> TuckerDecomposition:
    return TuckerDecomposition(tensor_from_dict(obj["core"]), _factor_list(obj))


def eigenpair_to_dict(p: EigenPair) -> dict[str, Any]:
    return {
        "variant": p.variant,
        "mode": p.mode,
        "lambda": float(p.value),
        "vector": [float(x) for x in p.vector],
        "residual": float(p.residual),
        "converged": bool(p.converged),
    }


def _record(obj, keys: set[str]) -> bool:
    """Check a record object's keys; return its ``converged`` flag (default true)."""
    if not isinstance(obj, dict):
        raise ValueError("a record must be a JSON object")
    missing = keys - set(obj)
    if missing:
        raise ValueError(f"record missing keys: {sorted(missing)}")
    converged = obj.get("converged", True)
    if type(converged) is not bool:
        raise ValueError("converged must be true or false")
    return converged


def _number(value, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number")
    return float(_finite(value, what))


def _vector(values, what: str) -> np.ndarray:
    if not _is_number_list(values) or not values:
        raise ValueError(f"{what} must be a nonempty flat list of numbers")
    return _finite(values, what)


def eigenpair_from_dict(obj: dict[str, Any]) -> EigenPair:
    converged = _record(obj, {"variant", "mode", "lambda", "vector", "residual"})
    mode = obj["mode"]
    if type(mode) is not int or mode < 1:
        raise ValueError(f"mode must be an integer >= 1, got {mode!r}")
    return EigenPair(
        variant=obj["variant"],
        mode=mode,
        value=_number(obj["lambda"], "lambda"),
        vector=_vector(obj["vector"], "vector"),
        residual=_number(obj["residual"], "residual"),
        converged=converged,
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
    converged = _record(obj, {"p", "sigma", "vectors", "residual"})
    vectors = obj["vectors"]
    if not isinstance(vectors, list):
        raise ValueError("vectors must be a list of vectors")
    p = obj["p"]
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    return SingularTuple(
        p=p,
        sigma=_number(obj["sigma"], "sigma"),
        vectors=tuple(_vector(v, "each vector") for v in vectors),
        residual=_number(obj["residual"], "residual"),
        converged=converged,
    )
