"""Reference kernels that the tests hold the library to.

`contract_all_but_loop` is ``F_o`` written as a plain loop: one
`np.tensordot` per contracted mode, for one set of vectors.  The library
evaluates ``F_o`` only through the batched kernel
`contract._contract_all_but_batch`, which the tests compare against this loop.

`cli_json` is the CLI's JSON byte contract written with the standard encoder:
round every float to 12 significant digits, then ``json.dumps(indent=2)``.
The CLI writes the same bytes in one pass with `cli._to_json`.
"""

import json

import numpy as np


def contract_all_but_loop(arr, o, xs):
    """Contract ``xs`` (increasing mode order, skipping ``o``) onto every mode of ``arr`` except ``o``."""
    modes = [m for m in range(1, arr.ndim + 1) if m != o]
    out = arr
    # contract from the highest mode down; axis numbers below stay valid
    for m, x in sorted(zip(modes, xs), key=lambda p: -p[0]):
        out = np.tensordot(out, x, axes=(m - 1, 0))
    return out


def round12(obj):
    """Every float in nested dicts and lists rounded to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [round12(v) for v in obj]
    return obj


def cli_json(obj):
    return json.dumps(round12(obj), indent=2)
