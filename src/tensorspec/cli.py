"""Command-line front end.

Subcommands: info, contract, eig, svd, cp, tucker, hosvd, odeco, mlrank.
Input tensors come from the JSON tensor file format; results go to stdout or
``--output`` as JSON (round-trippable through the library's deserializers,
except where a result past the float maximum was written as ``null``: such a
record does not read back) or as a plain table.  All numbers are printed to 12 significant digits and runs
with the same seed and inputs produce byte-identical output.  The JSON bytes
are ``json.dumps(obj, indent=2)`` of the result with every float rounded to 12
significant digits, plus a newline; `_to_json` writes them in one pass.  A
non-finite float, a result past the float maximum, is written as ``null``
with one warning line per run.  numpy's overflow warnings are not shown.

Every subcommand takes ``--output`` and ``--format``.  Only the iterative
solvers (eig, svd, cp, odeco) take ``--tol`` and ``--max-iters``, and only
the multi-start ones (eig, svd, cp) take ``--seed`` and ``--starts``: odeco
draws no starts, as its result depends on the tensor alone.  mlrank takes
``--tol`` as its rank cutoff.  Any other flag is a usage error.

info's ``symmetric``, which also picks odeco's symmetric map, is the
library's one symmetry test of solver input (`tensor._symmetric_input`): the
tensor is cubical and `is_symmetric` within 1e-12 times max|T|, so scaling
the tensor does not change it.

Exit codes: 0 success, 2 input parse error, 3 solver non-convergence (partial
results are still emitted, flagged), 4 invalid flags (a count too large for
memory included), an unwritable ``--output`` or a tensor result past the
float maximum.  Errors and the library's warnings go to stderr as one
``error: <message>`` or ``warning: <message>`` line each.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from typing import Any, Callable

import numpy as np

from . import serialize
from .contract import contract
from .decomp import cp_als, hosvd, multilinear_rank, odeco_decompose, tucker_eval
from .spectra import find_eigenpairs, find_singular_tuples
from .tensor import DenseTensor, _symmetric_input, frobenius_norm

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOCONVERGE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _token(s: str) -> str:
    """JSON token of the float that the ``.12g`` string ``s`` rounds to.

    A token with a point and no exponent is already that float's repr; the
    rest (integral values, exponents, zeros, subnormals) take ``repr(float(s))``;
    a non-finite float, which JSON cannot spell, is ``null`` with a warning.
    """
    if "." in s and "e" not in s:
        return s
    x = float(s)
    if math.isfinite(x):
        return repr(x)
    warnings.warn("a result exceeds the float maximum; it is written as null")
    return "null"


def _floats_json(xs: list[float], sep: str) -> str:
    """The `_token` strings of ``xs`` joined by ``sep``.

    The list is formatted in one ``%`` pass.  A ``.12g`` string is its own
    token unless the float is not finite, at least 1e11 in magnitude
    (``.12g`` may write an exponent), below 1e-300 (zero, subnormal) or
    within ``1e-11 |x|`` of an integer (no point); only those entries go
    through `_token`, and enter the pass as ``%s``.
    """
    a = np.array(xs)
    with np.errstate(invalid="ignore"):  # inf - inf, and signalling NaNs
        mag = np.abs(a)
        a -= np.rint(a)
        np.abs(a, out=a)
        flagged = ~(mag < 1e11) | (mag < 1e-300)
        flagged |= a <= np.multiply(mag, 1e-11, out=mag)
    idx = np.flatnonzero(flagged).tolist()
    fmts = ["%.12g"] * len(xs)
    args = list(xs) if idx else xs
    for i in idx:
        fmts[i] = "%s"
        args[i] = _token("%.12g" % xs[i])
    return sep.join(fmts) % tuple(args)


def _to_json(obj: Any, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, every float in dicts and lists rounded to 12 digits.

    Dict keys are strings, as in every CLI result.  A list of plain floats is
    written by `_floats_json`; every float goes through `_token`.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.dumps(k) + ": " + _to_json(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            return "[" + inner + _floats_json(obj, "," + inner) + indent + "]"
        items = (_to_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, float):
        return _token(f"{obj:.12g}")
    return json.dumps(obj)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _load(path: str, from_dict: Callable[[Any], Any] | None = None, what: str = "tensor") -> Any:
    """The JSON file ``path`` read through ``from_dict`` (default `serialize.tensor_from_dict`).

    A file that cannot be opened, parsed (nesting too deep for the parser
    included) or validated exits 2 with one ``error: cannot read`` line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return (from_dict or serialize.tensor_from_dict)(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"error: cannot read {what} from {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _emit(obj: dict[str, Any], table_lines: Callable[[], list[str]], args) -> None:
    """Write ``obj`` as JSON, or the lines ``table_lines()`` builds for ``--format table``."""
    if args.format == "json":
        text = _to_json(obj) + "\n"
    else:
        text = "\n".join(table_lines()) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _vec_str(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _tensor_lines(t: DenseTensor) -> list[str]:
    return [f"shape: {list(t.dims)}", f"data: {[_fmt(x) for x in t.to_buffer()]}"]


def _add_output(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes."""
    p.add_argument("--output", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=["json", "table"], default="json")


def _add_solver(p: argparse.ArgumentParser, seeded: bool = True) -> None:
    """The flags the iterative solvers read (eig, svd, cp, odeco); ``--seed`` and ``--starts`` only where ``seeded``."""
    p.add_argument("--tol", type=float, default=None, help="solver tolerance")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap")
    if seeded:
        p.add_argument("--seed", type=int, default=0, help="base seed (runs are deterministic)")
        p.add_argument("--starts", type=int, default=None, help="multi-start count")


def _solver_opts(args) -> dict[str, Any]:
    """The solver keywords of the flags `_add_solver` declared for the subcommand, where set."""
    return {k: getattr(args, k) for k in ("tol", "max_iters", "seed", "starts") if getattr(args, k, None) is not None}


def build_parser() -> _Parser:
    parser = _Parser(prog="tensorspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="shape, symmetry, norm, and multilinear rank")
    p.add_argument("input")
    _add_output(p)

    p = sub.add_parser("contract", help="contract a mode of one tensor against mode 1 of another")
    p.add_argument("input")
    p.add_argument("other")
    p.add_argument("--mode", type=int, default=None, help="mode of the first tensor (default: its last)")
    _add_output(p)

    p = sub.add_parser("eig", help="mode-o eigenpairs of a cubical tensor")
    p.add_argument("input")
    p.add_argument("--variant", choices=["z", "h"], default="z")
    p.add_argument("--mode", type=int, default=1)
    _add_output(p)
    _add_solver(p)

    p = sub.add_parser("svd", help="singular value tuples")
    p.add_argument("input")
    p.add_argument("--p", choices=["2", "o", "O"], default="2", help="2 for l2, O for the lO variant")
    _add_output(p)
    _add_solver(p)

    p = sub.add_parser("cp", help="CP decomposition by alternating least squares")
    p.add_argument("input")
    p.add_argument("--rank", type=int, required=True)
    _add_output(p)
    _add_solver(p)

    p = sub.add_parser("tucker", help="evaluate a Tucker decomposition file to a dense tensor")
    p.add_argument("input")
    _add_output(p)

    p = sub.add_parser("hosvd", help="truncated higher-order SVD")
    p.add_argument("input")
    p.add_argument("--ranks", default=None, help="comma-separated target ranks, default full")
    _add_output(p)

    p = sub.add_parser("odeco", help="orthogonal decomposition by GEVD and one power iteration")
    p.add_argument("input")
    p.add_argument("--rank", type=int, default=None, help="component cap (default: smallest mode)")
    _add_output(p)
    _add_solver(p, seeded=False)

    p = sub.add_parser("mlrank", help="multilinear rank")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-8, help="singular value cutoff, relative to the largest")
    _add_output(p)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """`build_parser`, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _cmd_info(args) -> int:
    t = _load(args.input)
    symmetric = _symmetric_input(t.to_array())
    mlr = multilinear_rank(t)
    norm = frobenius_norm(t)
    obj = {
        "order": t.order,
        "shape": list(t.dims),
        "symmetric": symmetric,
        "frobenius_norm": norm,
        "multilinear_rank": list(mlr),
    }
    _emit(obj, lambda: [
        f"order: {t.order}",
        f"shape: {list(t.dims)}",
        f"symmetric: {str(symmetric).lower()}",
        f"frobenius_norm: {_fmt(norm)}",
        f"multilinear_rank: {list(mlr)}",
    ], args)
    return EXIT_OK


def _cmd_contract(args) -> int:
    a = _load(args.input)
    b = _load(args.other)
    mode = args.mode if args.mode is not None else a.order
    out = contract(a, mode, b, 1)
    if isinstance(out, DenseTensor):
        _emit(serialize.tensor_to_dict(out), lambda: _tensor_lines(out), args)
    else:
        _emit({"scalar": out}, lambda: [f"scalar: {_fmt(out)}"], args)
    return EXIT_OK


def _cmd_eig(args) -> int:
    t = _load(args.input)
    pairs = find_eigenpairs(t, args.mode, args.variant, **_solver_opts(args))
    obj = {"pairs": [serialize.eigenpair_to_dict(p) for p in pairs]}
    _emit(obj, lambda: [f"{'variant':<8}{'mode':<6}{'lambda':<22}{'vector':<40}residual"] + [
        f"{p.variant:<8}{p.mode:<6}{_fmt(p.value):<22}{_vec_str(p.vector):<40}{_fmt(p.residual)}"
        for p in pairs
    ], args)
    return EXIT_OK if all(p.converged for p in pairs) else EXIT_NOCONVERGE


def _cmd_svd(args) -> int:
    t = _load(args.input)
    p_val = 2 if args.p == "2" else t.order
    tuples = find_singular_tuples(t, p_val, **_solver_opts(args))
    obj = {"tuples": [serialize.singular_tuple_to_dict(s) for s in tuples]}
    _emit(obj, lambda: [f"{'p':<4}{'sigma':<22}{'residual':<14}vectors"] + [
        f"{s.p:<4}{_fmt(s.sigma):<22}{_fmt(s.residual):<14}{' '.join(map(_vec_str, s.vectors))}"
        for s in tuples
    ], args)
    return EXIT_OK if all(s.converged for s in tuples) else EXIT_NOCONVERGE


def _cmd_cp(args) -> int:
    t = _load(args.input)
    res = cp_als(t, args.rank, **_solver_opts(args))
    obj = serialize.cp_to_dict(res.cp)
    obj["relative_error"] = res.error
    obj["sweeps"] = len(res.errors)
    obj["converged"] = res.converged
    _emit(obj, lambda: [
        f"rank: {res.cp.rank}",
        f"relative_error: {_fmt(res.error)}",
        f"weights: {[_fmt(w) for w in res.cp.weights]}",
    ], args)
    return EXIT_OK if res.converged else EXIT_NOCONVERGE


def _cmd_tucker(args) -> int:
    tk = _load(args.input, serialize.tucker_from_dict, "Tucker decomposition")
    out = tucker_eval(tk)
    _emit(serialize.tensor_to_dict(out), lambda: _tensor_lines(out), args)
    return EXIT_OK


def _cmd_hosvd(args) -> int:
    t = _load(args.input)
    if args.ranks is None:
        ranks = list(t.dims)
    else:
        try:
            ranks = [int(r) for r in args.ranks.split(",")]
        except ValueError:
            raise ValueError(f"--ranks must be comma-separated integers, got {args.ranks!r}") from None
    tk = hosvd(t, ranks)
    err = frobenius_norm(tucker_eval(tk) - t)
    obj = serialize.tucker_to_dict(tk)
    obj["reconstruction_error"] = err
    _emit(obj, lambda: [
        f"core_shape: {list(tk.core.dims)}",
        f"reconstruction_error: {_fmt(err)}",
    ], args)
    return EXIT_OK


def _cmd_odeco(args) -> int:
    t = _load(args.input)
    res = odeco_decompose(t, symmetric=_symmetric_input(t.to_array()), rank=args.rank, **_solver_opts(args))
    obj = serialize.cp_to_dict(res.cp)
    obj["reconstruction_error"] = res.reconstruction_error
    obj["orthogonality_defect"] = res.orthogonality_defect
    obj["status"] = res.status
    _emit(obj, lambda: [
        f"status: {res.status}",
        f"reconstruction_error: {_fmt(res.reconstruction_error)}",
        f"orthogonality_defect: {_fmt(res.orthogonality_defect)}",
        f"weights: {[_fmt(w) for w in res.cp.weights]}",
    ], args)
    return EXIT_OK if res.ok else EXIT_NOCONVERGE


def _cmd_mlrank(args) -> int:
    t = _load(args.input)
    mlr = multilinear_rank(t, tol=args.tol)
    _emit({"multilinear_rank": list(mlr)}, lambda: [f"multilinear_rank: {list(mlr)}"], args)
    return EXIT_OK


_COMMANDS = {
    "info": _cmd_info,
    "contract": _cmd_contract,
    "eig": _cmd_eig,
    "svd": _cmd_svd,
    "cp": _cmd_cp,
    "tucker": _cmd_tucker,
    "hosvd": _cmd_hosvd,
    "odeco": _cmd_odeco,
    "mlrank": _cmd_mlrank,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        # the warning filters still decide which warnings show; an overflow
        # reaches the output as a non-finite float, which `_token` reports
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command](args)
        except (ValueError, IndexError) as exc:
            # the library rejects bad flag values (counts, modes, ranks) this way
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:
            # a count flag such as --starts can ask for more memory than there is
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
