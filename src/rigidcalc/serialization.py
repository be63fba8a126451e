"""Canonical JSON wire formats and the small root-of-unity text grammar.

Every emitter is deterministic (sorted keys, compact separators, canonical
reduced rationals as decimal strings), so parse -> emit round-trips are
byte-identical.  Parsers raise SchemaError on malformed documents.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .convolution import ReductionTrace
from .cyclotomic import CycNumber
from .errors import RigidCalcError, SchemaError
from .hypergeometric import MultiplicityFunction
from .linalg import ExactMatrix
from .monodromy import JordanType, MonodromyTuple

#: largest total multiplicity of a multiplicity function: its tuple has that
#: rank, and a few bytes of input could otherwise ask for any size of matrix
MAX_MULTIPLICITY = 64

#: largest degree of a text polynomial, which lists every coefficient up to
#: its degree, so "X^1000000000" could otherwise ask for 10^9 of them
MAX_DEGREE = 1024


def canonical_dumps(document) -> str:
    """One canonical JSON document per call."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# -- roots of unity as text ---------------------------------------------------

_ZETA_RE = re.compile(r"^(-)?(1|zeta(\d+)(\^(\d+))?)$")


def parse_root_of_unity(text: str) -> CycNumber:
    """Parse "1", "-1", "zeta<N>", "zeta<N>^<k>", optionally negated."""
    match = _ZETA_RE.match(text.strip())
    if not match:
        raise SchemaError(f"cannot parse root of unity {text!r}")
    negate, body, order, _, power = match.groups()
    if body == "1":
        value = CycNumber.one()
    else:
        order = int(order)
        if order < 1:
            raise SchemaError(f"bad cyclotomic order in {text!r}")
        value = CycNumber.zeta(order, int(power) if power else 1)
    return -value if negate else value


def format_root_of_unity(value: CycNumber) -> str:
    """Inverse of parse_root_of_unity on roots of unity."""
    if value.root_of_unity_exponent() is None:
        raise ValueError(f"{value} is not a root of unity")
    return str(value)


def parse_scalar(text: str) -> CycNumber:
    """A rational like "2/3" or a root-of-unity token."""
    text = text.strip()
    try:
        return CycNumber.from_rational(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return parse_root_of_unity(text)


# -- CycNumber ----------------------------------------------------------------

def cyc_to_json(value: CycNumber) -> dict:
    # Each pair is nums[i] / den in lowest terms, as Fraction would give it:
    # den > 0, and gcd(0, den) = den makes a zero "0" over "1".
    den = value.den
    coeffs = []
    for num in value.nums:
        g = math.gcd(num, den)
        coeffs.append([str(num // g), str(den // g)])
    return {"N": value.order, "coeffs": coeffs}


def _require(condition: bool, message: str, *args):
    # message is a str.format template, filled in only when the check fails.
    if not condition:
        raise SchemaError(message.format(*args))


def _is_integer(value) -> bool:
    # A JSON integer; json.loads gives bool for true/false, and bool is an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value, pair) -> int:
    # The emitter writes decimal strings, -?[0-9]+ in ASCII; int() alone
    # would also read other Unicode digits, "_", spaces and a "+".  Bare
    # ints are accepted too.  A float or a bool is refused: int() would
    # truncate it or read it as 0/1.
    if isinstance(value, str):
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii():
            try:
                return int(value)
            except ValueError:  # more digits than int() converts from a string
                raise SchemaError(f"too many digits in a rational component: {len(digits)}") from None
    elif _is_integer(value):
        return int(value)
    raise SchemaError(f"non-integer rational component in {pair!r}")


def cyc_from_json(document) -> CycNumber:
    _require(isinstance(document, dict), "cyclotomic number must be an object")
    _require("N" in document and "coeffs" in document, "cyclotomic number needs N and coeffs")
    order = document["N"]
    coeffs = document["coeffs"]
    _require(_is_integer(order) and order >= 1, "bad cyclotomic order {!r}", order)
    _require(isinstance(coeffs, list) and coeffs, "coeffs must be a nonempty list")
    nums, dens = [], []
    for pair in coeffs:
        _require(
            isinstance(pair, list) and len(pair) == 2,
            "coefficient must be a [numerator, denominator] pair, got {!r}", pair,
        )
        nums.append(_json_int(pair[0], pair))
        den = _json_int(pair[1], pair)
        _require(den > 0, "denominator must be positive in {!r}", pair)
        dens.append(den)
    # Integer numerators over the lcm of the denominators; CycNumber reduces
    # the whole vector once, so unreduced pairs like ["2","4"] parse too.
    common = math.lcm(*dens)
    if common != 1:
        nums = [num * (common // den) for num, den in zip(nums, dens)]
    try:
        return CycNumber(order, nums, common)
    except (RigidCalcError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


# -- ExactMatrix ----------------------------------------------------------------

def matrix_to_json(matrix: ExactMatrix) -> dict:
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [cyc_to_json(e) for e in matrix.entries],
    }


def matrix_from_json(document) -> ExactMatrix:
    _require(isinstance(document, dict), "matrix must be an object")
    for key in ("rows", "cols", "entries"):
        _require(key in document, "matrix needs {}", key)
    rows, cols, entries = document["rows"], document["cols"], document["entries"]
    _require(_is_integer(rows) and _is_integer(cols), "matrix dimensions must be integers")
    _require(rows >= 0 and cols >= 0, "bad matrix dimensions {}x{}", rows, cols)
    _require(isinstance(entries, list), "matrix entries must be a list")
    _require(len(entries) == rows * cols, "expected {} entries, got {}", rows * cols, len(entries))
    values = [cyc_from_json(e) for e in entries]
    try:
        return ExactMatrix(rows, cols, values)
    except RigidCalcError as exc:
        raise SchemaError(str(exc)) from None


# -- MonodromyTuple --------------------------------------------------------------

def tuple_to_json(t: MonodromyTuple) -> dict:
    return {
        "N": t.order,
        "n": t.rank,
        "punctures": [str(p) for p in t.punctures],
        "matrices": [matrix_to_json(m) for m in t.matrices],
    }


def tuple_from_json(document) -> MonodromyTuple:
    _require(isinstance(document, dict), "tuple must be an object")
    for key in ("N", "n", "punctures", "matrices"):
        _require(key in document, "tuple needs {}", key)
    order, rank = document["N"], document["n"]
    _require(_is_integer(order) and order >= 1, "bad order {!r}", order)
    _require(_is_integer(rank) and rank >= 1, "bad rank {!r}", rank)
    punctures = document["punctures"]
    matrices = document["matrices"]
    _require(isinstance(punctures, list) and punctures, "punctures must be a nonempty list")
    _require(isinstance(matrices, list), "matrices must be a list")
    _require(len(punctures) == len(matrices), "one matrix per puncture required")
    try:
        labels = [Fraction(str(p)) for p in punctures]
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"bad puncture labels {punctures!r}") from None
    mats = [matrix_from_json(m) for m in matrices]
    try:
        result = MonodromyTuple(order, labels, mats)
    except RigidCalcError as exc:
        raise SchemaError(str(exc)) from None
    _require(result.rank == rank, "declared rank {0} but matrices are {1}x{1}", rank, result.rank)
    return result


# -- JordanType -------------------------------------------------------------------

def jordan_to_json(jt: JordanType) -> list:
    return [
        {"eigenvalue": cyc_to_json(eig), "size": size, "mult": mult}
        for eig, size, mult in jt.with_multiplicities()
    ]


# -- ReductionTrace ------------------------------------------------------------------

def trace_to_json(trace: ReductionTrace) -> dict:
    return {
        "steps": [
            {
                "twist": [cyc_to_json(s) for s in step.twist.scalars],
                "lambda": cyc_to_json(step.lam),
                "rank": step.rank,
            }
            for step in trace.steps
        ]
    }


# -- Weil polynomial -------------------------------------------------------------------

def weil_coeffs_from_json(document) -> list[CycNumber]:
    _require(isinstance(document, dict), "polynomial must be an object")
    _require("coeffs" in document, "polynomial needs coeffs")
    coeffs = document["coeffs"]
    _require(isinstance(coeffs, list) and len(coeffs) >= 2, "need at least two coefficients")
    return [cyc_from_json(c) for c in coeffs]


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<var>[Xx](?:\^(?P<power>\d+))?)?"
)


def parse_integer_polynomial(text: str) -> list[Fraction]:
    """Parse a human-friendly integer polynomial in X, constant term first.

    >>> parse_integer_polynomial("X^2-3X+2")
    [Fraction(2, 1), Fraction(-3, 1), Fraction(1, 1)]
    """
    coeffs: dict[int, Fraction] = {}
    position = 0
    text = text.strip()
    if not text:
        raise SchemaError("empty polynomial")
    first = True
    while position < len(text):
        match = _TERM_RE.match(text, position)
        if not match or match.end() == position:
            raise SchemaError(f"cannot parse polynomial near {text[position:]!r}")
        sign, coeff, var, power = match.group("sign", "coeff", "var", "power")
        if coeff is None and var is None:
            raise SchemaError(f"cannot parse polynomial near {text[position:]!r}")
        if sign is None and not first:
            raise SchemaError(f"missing sign before {text[match.start():]!r}")
        value = Fraction(int(coeff)) if coeff is not None else Fraction(1)
        if sign == "-":
            value = -value
        degree = 0
        if var is not None:
            degree = int(power) if power is not None else 1
            _require(degree <= MAX_DEGREE,
                     "degree {} is above the supported maximum {}", degree, MAX_DEGREE)
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + value
        position = match.end()
        first = False
    top = max(coeffs)
    return [coeffs.get(k, Fraction(0)) for k in range(top + 1)]


# -- MultiplicityFunction ------------------------------------------------------------

def multiplicity_from_json(document) -> tuple[MultiplicityFunction, int]:
    """Parse {"N": ..., "m": [{"zeta": ..., "mult": ...}, ...]}."""
    _require(isinstance(document, dict), "multiplicity function must be an object")
    _require("N" in document and "m" in document, "multiplicity function needs N and m")
    order = document["N"]
    _require(_is_integer(order) and order >= 1, "bad order {!r}", order)
    entries = document["m"]
    _require(isinstance(entries, list), "m must be a list")
    pairs = []
    total = 0
    for item in entries:
        _require(
            isinstance(item, dict) and "zeta" in item and "mult" in item,
            "multiplicity entries need zeta and mult, got {!r}", item,
        )
        key = parse_root_of_unity(str(item["zeta"]))
        mult = item["mult"]
        _require(_is_integer(mult) and mult > 0, "bad multiplicity {!r}", mult)
        total += mult
        _require(
            total <= MAX_MULTIPLICITY,
            "total multiplicity is above the supported maximum {}", MAX_MULTIPLICITY,
        )
        pairs.append((key, mult))
    try:
        return MultiplicityFunction.of(pairs), order
    except (RigidCalcError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


def multiplicity_to_json(m: MultiplicityFunction, order: int) -> dict:
    return {
        "N": order,
        "m": [
            {"zeta": format_root_of_unity(key), "mult": mult} for key, mult in m.items()
        ],
    }
