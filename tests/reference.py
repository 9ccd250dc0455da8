"""Reference kernels that the tests hold the library to.

`contract_all_but_loop` is ``F_o`` written as a plain loop: one
`np.tensordot` per contracted mode, for one set of vectors.  The library
evaluates ``F_o`` only through the batched kernel
`contract._contract_all_but_batch`, which the tests compare against this loop.
"""

import numpy as np


def contract_all_but_loop(arr, o, xs):
    """Contract ``xs`` (increasing mode order, skipping ``o``) onto every mode of ``arr`` except ``o``."""
    modes = [m for m in range(1, arr.ndim + 1) if m != o]
    out = arr
    # contract from the highest mode down; axis numbers below stay valid
    for m, x in sorted(zip(modes, xs), key=lambda p: -p[0]):
        out = np.tensordot(out, x, axes=(m - 1, 0))
    return out
