"""Command line front end.

Exit codes: 0 for success or a passing verdict, 1 for a well-formed input
whose check fails (weil failure, rigidity != 2 under --expect-rigid, table
mismatch, mc of rank 0) or for an internal error, 2 for malformed input.

One output path: each subcommand's handler returns (document, text, code),
the JSON-ready result, a zero-argument renderer of its text form and the
exit code.  text is None for the tuple-producing mc, twist and hypergeom,
which always emit the canonical tuple JSON.  Only main writes to stdout:
under --format text it prints text() when there is a renderer, otherwise the
canonical JSON document, so text is rendered only when it is printed.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import serialization as ser
from .convolution import RankOneData, katz_reduce, middle_convolution, tensor_rank_one
from .errors import RigidCalcError, SchemaError, ZeroRank
from .hypergeometric import from_multiplicity_function, hypergeometric_tuple
from .monodromy import certify_regular, is_absolutely_irreducible, rigidity_index
from .purity import WeilPolynomial, WeilVerdict, weil_check
from .table1 import run_table1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared: parse_args keeps no state in it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    tuple_input = argparse.ArgumentParser(add_help=False, parents=[common])
    tuple_input.add_argument("input", help="tuple JSON file, or - for stdin")

    parser = argparse.ArgumentParser(
        prog="rigidcalc",
        description="exact computations with rigid local systems on the punctured line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", parents=[tuple_input], help="Jordan type at a puncture")
    p.add_argument("--point", required=True, help='puncture label, e.g. 0, 1, 5/2, inf')

    p = sub.add_parser("rigidity", parents=[tuple_input], help="rigidity index of a tuple")
    p.add_argument(
        "--expect-rigid",
        action="store_true",
        help="exit 1 unless the rigidity index equals 2",
    )

    sub.add_parser("irreducible", parents=[tuple_input], help="Burnside irreducibility test")
    sub.add_parser("regular", parents=[tuple_input], help="regularity certificate")

    p = sub.add_parser("mc", parents=[tuple_input], help="middle convolution")
    p.add_argument("--lambda", dest="lam", required=True, help='scalar, e.g. -1 or zeta3')

    p = sub.add_parser("twist", parents=[tuple_input], help="tensor with rank-one data")
    p.add_argument(
        "--scalars", required=True, help='comma list, one per finite puncture, e.g. "1,-1"'
    )

    p = sub.add_parser("table1", parents=[common], help="golden table of the recursive family")
    p.add_argument("--max-i", type=int, default=8, help="largest family index (0..12)")

    p = sub.add_parser("hypergeom", parents=[common], help="hypergeometric tuple")
    p.add_argument("--a", help='comma list of roots of unity, e.g. "1,1"')
    p.add_argument("--b", help='comma list of roots of unity, e.g. "zeta3,zeta3^2"')
    p.add_argument("--multiplicity", help="multiplicity function JSON (inline or path)")
    p.add_argument("--order", type=int, help="cyclotomic order N (default: inferred)")

    sub.add_parser("katz-reduce", parents=[tuple_input], help="reduce a rigid tuple to rank 1")

    p = sub.add_parser("weil", parents=[common], help="Weil-number check")
    p.add_argument("--poly", required=True, help='polynomial: JSON, file, or e.g. "X^2-3X+2"')
    p.add_argument("--q", type=int, required=True, help="residue field size (prime power)")
    p.add_argument("--w", type=int, required=True, help="weight")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-20,
        help="relative tolerance of the numeric stage, which runs only on impure "
        "input and does not change the exact verdict",
    )

    return parser


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _json_argument(text: str):
    """An inline JSON object, or the path of one (- for stdin)."""
    return _load_json(text if text.lstrip().startswith("{") else _read_source(text))


def _load_tuple(source: str):
    return ser.tuple_from_json(_load_json(_read_source(source)))


def _cmd_jordan(args):
    jt = _load_tuple(args.input).jordan_at(args.point)
    return ser.jordan_to_json(jt), jt.notation, 0


def _cmd_rigidity(args):
    index = rigidity_index(_load_tuple(args.input))
    return {"rigidity_index": index}, lambda: str(index), int(args.expect_rigid and index != 2)


def _cmd_irreducible(args):
    verdict = is_absolutely_irreducible(_load_tuple(args.input))
    return {"absolutely_irreducible": verdict}, lambda: "true" if verdict else "false", 0


def _cmd_regular(args):
    certificate = certify_regular(_load_tuple(args.input))
    document = {
        "verdict": "RegularViaLemma" if certificate.is_regular_via_lemma else "Unknown",
        "witness": str(certificate.witness) if certificate.witness is not None else None,
    }
    return document, lambda: str(certificate), 0


def _cmd_mc(args):
    t = _load_tuple(args.input)
    return ser.tuple_to_json(middle_convolution(t, ser.parse_scalar(args.lam))), None, 0


def _cmd_twist(args):
    t = _load_tuple(args.input)
    scalars = [ser.parse_scalar(s) for s in args.scalars.split(",") if s.strip()]
    return ser.tuple_to_json(tensor_rank_one(t, RankOneData.of(scalars))), None, 0


def _cmd_table1(args):
    report = run_table1(args.max_i)
    document = {
        "rows": [
            {
                "i": row.i,
                "rank": row.rank,
                "jordan_at_0": ser.jordan_to_json(row.jordan_at_0),
                "jordan_at_1": ser.jordan_to_json(row.jordan_at_1),
                "jordan_at_inf": ser.jordan_to_json(row.jordan_at_inf),
                "rigidity_index": row.rigidity_index,
                "irreducible": row.irreducible,
                "regular": str(row.regular_certificate),
                "matches_table": row.matches_table,
            }
            for row in report.rows
        ],
        "all_match": report.all_match,
    }

    def text() -> str:
        header = ("i", "rank", "at 0", "at 1", "at inf", "index", "irred", "regular", "match")
        cells = [header]
        for row in report.rows:
            cells.append(
                (
                    str(row.i),
                    str(row.rank),
                    row.jordan_at_0.notation(),
                    row.jordan_at_1.notation(),
                    row.jordan_at_inf.notation(),
                    str(row.rigidity_index),
                    "yes" if row.irreducible else "no",
                    str(row.regular_certificate),
                    "yes" if row.matches_table else "NO",
                )
            )
        widths = [max(len(line[k]) for line in cells) for k in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            for line in cells
        )

    return document, text, 0 if report.all_match else 1


def _roots(text: str) -> list:
    # The list length is the rank, so it has the bound of the --multiplicity form.
    items = [s for s in text.split(",") if s.strip()]
    if len(items) > ser.MAX_MULTIPLICITY:
        raise SchemaError(
            f"{len(items)} parameters are above the supported maximum {ser.MAX_MULTIPLICITY}"
        )
    return [ser.parse_root_of_unity(s) for s in items]


def _cmd_hypergeom(args):
    if args.multiplicity is not None:
        m, order = ser.multiplicity_from_json(_json_argument(args.multiplicity))
        result = from_multiplicity_function(m, order if args.order is None else args.order)
    elif args.a and args.b:
        order = 1 if args.order is None else args.order  # raised to the parameters' lcm
        result = hypergeometric_tuple(_roots(args.a), _roots(args.b), order)
    else:
        raise SchemaError("hypergeom needs either --multiplicity or both --a and --b")
    return ser.tuple_to_json(result), None, 0


def _cmd_katz_reduce(args):
    trace = katz_reduce(_load_tuple(args.input))

    def text() -> str:
        lines = [
            f"step {k}: twist=({','.join(str(s) for s in step.twist.scalars)}) "
            f"lambda={step.lam} rank={step.rank}"
            for k, step in enumerate(trace.steps, start=1)
        ]
        return "\n".join(lines) or "already rank 1"

    return ser.trace_to_json(trace), text, 0


def _parse_weil_poly(args) -> WeilPolynomial:
    text = args.poly.strip()
    if text.startswith("{") or text == "-" or os.path.exists(text):
        coeffs = ser.weil_coeffs_from_json(_json_argument(text))
    else:
        coeffs = ser.parse_integer_polynomial(text)
    try:
        return WeilPolynomial(coeffs, args.q, args.w)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _cmd_weil(args):
    if args.tol <= 0:
        raise SchemaError("tolerance must be positive")
    verdict = weil_check(_parse_weil_poly(args), args.tol)
    return {"verdict": str(verdict)}, lambda: str(verdict), 0 if verdict is WeilVerdict.PASS else 1


_HANDLERS = {
    "jordan": _cmd_jordan,
    "rigidity": _cmd_rigidity,
    "irreducible": _cmd_irreducible,
    "regular": _cmd_regular,
    "mc": _cmd_mc,
    "twist": _cmd_twist,
    "table1": _cmd_table1,
    "hypergeom": _cmd_hypergeom,
    "katz-reduce": _cmd_katz_reduce,
    "weil": _cmd_weil,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document, text, code = _HANDLERS[args.command](args)
        if text is not None and args.format == "text":
            print(text())
        else:
            print(ser.canonical_dumps(document))
        return code
    except (SchemaError, RigidCalcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ZeroRank) else 2  # rank 0 is no bad input
    except (RuntimeError, ZeroDivisionError) as exc:
        # a fault of rigidcalc itself, not of the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
