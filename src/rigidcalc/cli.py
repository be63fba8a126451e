"""Command line front end.

Exit codes: 0 for success or a passing verdict, 1 for a well-formed input
whose check fails (weil failure, rigidity != 2 under --expect-rigid, table
mismatch) or for an internal error, 2 for malformed input.

Tuple-producing commands (mc, twist, hypergeom) always emit one canonical
tuple JSON document; report commands honor --format text|json.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import serialization as ser
from .convolution import RankOneData, katz_reduce, middle_convolution, tensor_rank_one
from .errors import RigidCalcError, SchemaError
from .hypergeometric import from_multiplicity_function, hypergeometric_tuple
from .monodromy import (
    certify_regular,
    is_absolutely_irreducible,
    rigidity_index,
)
from .purity import WeilPolynomial, WeilVerdict, weil_check
from .table1 import run_table1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared: parse_args keeps no state in it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="rigidcalc",
        description="exact computations with rigid local systems on the punctured line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jordan", parents=[common], help="Jordan type at a puncture")
    p.add_argument("input", help="tuple JSON file, or - for stdin")
    p.add_argument("--point", required=True, help='puncture label, e.g. 0, 1, 5/2, inf')

    p = sub.add_parser("rigidity", parents=[common], help="rigidity index of a tuple")
    p.add_argument("input", help="tuple JSON file, or - for stdin")
    p.add_argument(
        "--expect-rigid",
        action="store_true",
        help="exit 1 unless the rigidity index equals 2",
    )

    p = sub.add_parser("irreducible", parents=[common], help="Burnside irreducibility test")
    p.add_argument("input", help="tuple JSON file, or - for stdin")

    p = sub.add_parser("regular", parents=[common], help="regularity certificate")
    p.add_argument("input", help="tuple JSON file, or - for stdin")

    p = sub.add_parser("mc", parents=[common], help="middle convolution")
    p.add_argument("input", help="tuple JSON file, or - for stdin")
    p.add_argument("--lambda", dest="lam", required=True, help='scalar, e.g. -1 or zeta3')

    p = sub.add_parser("twist", parents=[common], help="tensor with rank-one data")
    p.add_argument("input", help="tuple JSON file, or - for stdin")
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

    p = sub.add_parser("katz-reduce", parents=[common], help="reduce a rigid tuple to rank 1")
    p.add_argument("input", help="tuple JSON file, or - for stdin")

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


def _load_tuple(source: str):
    return ser.tuple_from_json(_load_json(_read_source(source)))


def _emit(document, args) -> None:
    print(ser.canonical_dumps(document))


def _cmd_jordan(args) -> int:
    t = _load_tuple(args.input)
    jt = t.jordan_at(args.point)
    if args.format == "json":
        _emit(ser.jordan_to_json(jt), args)
    else:
        print(jt.notation())
    return 0


def _cmd_rigidity(args) -> int:
    t = _load_tuple(args.input)
    index = rigidity_index(t)
    if args.format == "json":
        _emit({"rigidity_index": index}, args)
    else:
        print(index)
    if args.expect_rigid and index != 2:
        return 1
    return 0


def _cmd_irreducible(args) -> int:
    t = _load_tuple(args.input)
    verdict = is_absolutely_irreducible(t)
    if args.format == "json":
        _emit({"absolutely_irreducible": verdict}, args)
    else:
        print("true" if verdict else "false")
    return 0


def _cmd_regular(args) -> int:
    t = _load_tuple(args.input)
    certificate = certify_regular(t)
    if args.format == "json":
        witness = str(certificate.witness) if certificate.witness is not None else None
        _emit(
            {
                "verdict": "RegularViaLemma" if certificate.is_regular_via_lemma else "Unknown",
                "witness": witness,
            },
            args,
        )
    else:
        print(str(certificate))
    return 0


def _cmd_mc(args) -> int:
    t = _load_tuple(args.input)
    lam = ser.parse_scalar(args.lam)
    result = middle_convolution(t, lam)
    _emit(ser.tuple_to_json(result), args)
    return 0


def _cmd_twist(args) -> int:
    t = _load_tuple(args.input)
    scalars = [ser.parse_scalar(s) for s in args.scalars.split(",") if s.strip()]
    result = tensor_rank_one(t, RankOneData.of(scalars))
    _emit(ser.tuple_to_json(result), args)
    return 0


def _cmd_table1(args) -> int:
    report = run_table1(args.max_i)
    if args.format == "json":
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
        _emit(document, args)
    else:
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
        for line in cells:
            print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return 0 if report.all_match else 1


def _cmd_hypergeom(args) -> int:
    if args.multiplicity is not None:
        text = args.multiplicity
        if not text.lstrip().startswith("{"):
            text = _read_source(text)
        m, order = ser.multiplicity_from_json(_load_json(text))
        result = from_multiplicity_function(m, args.order or order)
    else:
        if not args.a or not args.b:
            raise SchemaError("hypergeom needs either --multiplicity or both --a and --b")
        a_params = [ser.parse_root_of_unity(s) for s in args.a.split(",") if s.strip()]
        b_params = [ser.parse_root_of_unity(s) for s in args.b.split(",") if s.strip()]
        order = args.order
        if order is None:
            order = 1
            for value in a_params + b_params:
                order = math.lcm(order, value.order)
        result = hypergeometric_tuple(a_params, b_params, order)
    _emit(ser.tuple_to_json(result), args)
    return 0


def _cmd_katz_reduce(args) -> int:
    t = _load_tuple(args.input)
    trace = katz_reduce(t)
    if args.format == "json":
        _emit(ser.trace_to_json(trace), args)
    else:
        if not trace.steps:
            print("already rank 1")
        for k, step in enumerate(trace.steps, start=1):
            twist = ",".join(str(s) for s in step.twist.scalars)
            print(f"step {k}: twist=({twist}) lambda={step.lam} rank={step.rank}")
    return 0


def _parse_weil_poly(args) -> WeilPolynomial:
    text = args.poly.strip()
    if text.startswith("{"):
        coeffs = ser.weil_coeffs_from_json(_load_json(text))
    elif text == "-" or os.path.exists(text):
        coeffs = ser.weil_coeffs_from_json(_load_json(_read_source(text)))
    else:
        coeffs = ser.parse_integer_polynomial(text)
    try:
        return WeilPolynomial(coeffs, args.q, args.w)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _cmd_weil(args) -> int:
    if args.tol <= 0:
        raise SchemaError("tolerance must be positive")
    poly = _parse_weil_poly(args)
    verdict = weil_check(poly, args.tol)
    if args.format == "json":
        _emit({"verdict": str(verdict)}, args)
    else:
        print(str(verdict))
    return 0 if verdict is WeilVerdict.PASS else 1


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
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (SchemaError, RigidCalcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ZeroDivisionError) as exc:
        # a fault of rigidcalc itself, not of the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
