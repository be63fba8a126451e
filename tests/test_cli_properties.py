"""Robustness properties of the command line, driven through ``main`` in process.

Generated argv and stdin JSON (tuple, matrix, multiplicity and Weil
documents, valid, mutated or malformed, and ``weil --w`` up to 10^9 in
absolute value) must end in exit 0, 1 or 2, never in a traceback.  A handler
error leaves stdout empty and writes exactly one stderr line; a run that
prints leaves stderr empty, and every JSON it prints is canonical.  Canonical
tuple documents of random small tuples round-trip byte for byte.

Sizes stay small: orders <= 24, ranks <= 3, ``table1 --max-i`` <= 3 and
multiplicities <= 4.  ``multiplicity_from_json`` accepts any positive
multiplicity and builds a companion matrix of the total, so larger ones
would measure that cost instead of robustness.  Hypothesis runs
derandomized and without an example database, so every run draws the same
examples; no thread or process is started.
"""
import contextlib
import copy
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from rigidcalc import CycNumber, ExactMatrix, euler_phi, make_tuple  # noqa: E402
from rigidcalc import serialization as ser  # noqa: E402
from rigidcalc.cli import build_parser, main  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

ORDERS = (1, 2, 3, 4, 6, 8, 12, 24)  # divisors of 24, so every lcm stays <= 24
LABELS = ("0", "1", "2", "-1", "1/2")
FORMATS = ("text", "json")
TUPLE_COMMANDS = (
    ["jordan", "--point", "0"],
    ["jordan", "--point", "1"],
    ["jordan", "--point", "inf"],
    ["jordan", "--point", "7"],
    ["jordan", "--point", "1/0"],
    ["rigidity"],
    ["rigidity", "--expect-rigid"],
    ["irreducible"],
    ["regular"],
    ["katz-reduce"],
    ["mc", "--lambda", "-1"],
    ["mc", "--lambda", "zeta3"],
    ["mc", "--lambda", "0"],
    ["mc", "--lambda", "x"],
    ["twist", "--scalars", "1,-1"],
    ["twist", "--scalars", "0"],
)


# -- running main ----------------------------------------------------------------

def _run(argv, stdin=""):
    """(code, stdout, stderr, parsed); parsed is False when argparse exited."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return main(argv), out.getvalue(), err.getvalue(), True
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue(), False
    finally:
        sys.stdin = saved


def _check(argv, stdin=""):
    code, out, err, parsed = _run(argv, stdin)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if not parsed:
        return code, out
    if out:
        assert err == "" and out.endswith("\n"), argv
        args = build_parser().parse_args(argv)
        if args.format == "json" or args.command in ("mc", "twist", "hypergeom"):
            assert ser.canonical_dumps(json.loads(out)) + "\n" == out, argv
    else:
        assert code != 0, argv
        prefix = "error: " if code == 2 else "internal error: "
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    return code, out


# -- documents ------------------------------------------------------------------------

@st.composite
def cyc(draw, order):
    phi = euler_phi(order)
    return CycNumber(order, draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi)))


@st.composite
def unimodular(draw, n, order):
    """L * U with unit diagonals: determinant 1, so always invertible."""
    one, zero = CycNumber.one(order), CycNumber.zero(order)
    lower = [[one if i == j else draw(cyc(order)) if j < i else zero for j in range(n)]
             for i in range(n)]
    upper = [[one if i == j else draw(cyc(order)) if j > i else zero for j in range(n)]
             for i in range(n)]
    return ExactMatrix.from_rows(lower, order=order) * ExactMatrix.from_rows(upper, order=order)


@st.composite
def small_tuples(draw):
    order = draw(st.sampled_from(ORDERS))
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2, unique=True))
    return make_tuple(order, labels, [draw(unimodular(n, order)) for _ in labels])


def _root_token(order, k):
    return "1" if k % order == 0 else f"zeta{order}^{k % order}"


@st.composite
def multiplicity_documents(draw):
    order = draw(st.sampled_from(ORDERS[1:]))
    ks = draw(st.lists(st.integers(1, order - 1), min_size=1, max_size=2, unique=True))
    mults = draw(st.lists(st.integers(1, 2), min_size=len(ks), max_size=len(ks)))
    entries = [{"zeta": _root_token(order, k), "mult": m} for k, m in zip(ks, mults)]
    return {"N": order, "m": entries}


@st.composite
def weil_documents(draw):
    order = draw(st.sampled_from(ORDERS))
    degree = draw(st.integers(1, 4))
    coeffs = [draw(cyc(order)) for _ in range(degree)] + [CycNumber.one(order)]
    return {"coeffs": [ser.cyc_to_json(c) for c in coeffs]}


# Degrees stay <= 24: parse_integer_polynomial lists every coefficient up to
# the degree, so a short text like X^99999999 costs its degree in time.
TERMS = st.tuples(
    st.sampled_from(["+", "-", ""]),
    st.sampled_from(["", "1", "2", "3", "9", "27"]),
    st.sampled_from(["", "X", "x", "X^2", "X^3", "X^4", "X^24", "X^"]),
)
polynomial_texts = st.one_of(
    st.lists(TERMS, min_size=1, max_size=4).map(lambda ts: "".join("".join(t) for t in ts)),
    st.text(alphabet="Xx^+-*0123 ", max_size=4),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(-4, 4, allow_nan=False, width=16),
    st.text(alphabet="0123456789-/^zetaNinf{[", max_size=6),
    st.just([]),
    st.just({}),
)
ORDER_LEAVES = st.sampled_from([-1, 0, 1, 2, 3, 12, 24, "3", 3.0, True, None])


@st.composite
def mutated(draw, document):
    """The document with one node replaced, removed or duplicated."""
    document = copy.deepcopy(document)
    path = draw(st.sampled_from(list(_paths(document))))
    if not path:
        return draw(LEAVES)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "remove", "duplicate"]))
    if action == "remove":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = draw(ORDER_LEAVES if key in ("N", "n") else LEAVES)
    return document


_dumps = ser.canonical_dumps


# -- properties -------------------------------------------------------------------------

@SETTINGS
@given(small_tuples())
def test_canonical_tuple_documents_round_trip(t):
    text = _dumps(ser.tuple_to_json(t))
    assert _dumps(ser.tuple_to_json(ser.tuple_from_json(json.loads(text)))) == text
    ones = ",".join("1" for _ in t.punctures)
    assert _check(["twist", "-", "--scalars", ones], text) == (0, text + "\n")


@SETTINGS
@given(st.data(), small_tuples(), st.sampled_from(TUPLE_COMMANDS), st.sampled_from(FORMATS))
def test_tuple_documents_end_in_an_exit_code(data, t, command, fmt):
    document = ser.tuple_to_json(t)
    source = data.draw(st.sampled_from(["valid", "mutated", "matrix", "truncated"]))
    if source == "mutated":
        text = _dumps(data.draw(mutated(document)))
    elif source == "matrix":
        text = _dumps(data.draw(mutated(document["matrices"][0])))
    elif source == "truncated":
        text = _dumps(document)[: data.draw(st.integers(0, 40))]
    else:
        text = _dumps(document)
    _check([command[0], "-", *command[1:], "--format", fmt], text)


@SETTINGS
@given(st.data(), multiplicity_documents(), st.sampled_from(FORMATS))
def test_hypergeom_inputs_end_in_an_exit_code(data, document, fmt):
    order = data.draw(st.sampled_from([None, -1, 0, 1, 2, 3, 12, 24]))
    tail = ["--format", fmt] + ([] if order is None else ["--order", str(order)])
    if data.draw(st.booleans()):
        if data.draw(st.booleans()):
            document = data.draw(mutated(document))
        if data.draw(st.booleans()):
            _check(["hypergeom", "--multiplicity", _dumps(document), *tail])
        else:
            _check(["hypergeom", "--multiplicity", "-", *tail], _dumps(document))
    else:
        n = data.draw(st.integers(1, 3))
        tokens = st.one_of(
            st.builds(_root_token, st.sampled_from(ORDERS), st.integers(0, 23)),
            st.sampled_from(["-1", "zeta0", "zeta1001", "2", "x", ""]),
        )
        a = data.draw(st.lists(tokens, min_size=n, max_size=n))
        b = data.draw(st.lists(tokens, min_size=1, max_size=3))
        _check(["hypergeom", "--a", ",".join(a), "--b", ",".join(b), *tail])


@SETTINGS
@given(
    st.data(),
    weil_documents(),
    st.sampled_from([2, 3, 4, 5, 7, 9, 6, 1, 0, -3, 10**25]),
    st.one_of(st.integers(-3, 3), st.sampled_from([10**9, -10**9]), st.integers(-10**9, 10**9)),
    st.sampled_from(FORMATS),
)
def test_weil_inputs_end_in_an_exit_code(data, document, q, w, fmt):
    tail = ["--q", str(q), "--w", str(w), "--format", fmt]
    if data.draw(st.booleans()):
        tail += ["--tol", data.draw(st.sampled_from(["1e-20", "0", "-1", "1e-3"]))]
    source = data.draw(st.sampled_from(["valid", "mutated", "stdin", "text"]))
    if source == "text":
        _check(["weil", "--poly", data.draw(polynomial_texts), *tail])
    elif source == "stdin":
        _check(["weil", "--poly", "-", *tail], _dumps(data.draw(mutated(document))))
    else:
        if source == "mutated":
            document = data.draw(mutated(document))
        _check(["weil", "--poly", _dumps(document), *tail])


ARGV_TOKENS = st.sampled_from([
    "jordan", "rigidity", "irreducible", "regular", "mc", "twist", "hypergeom",
    "katz-reduce", "weil", "-", "missing.json", "--format", "json", "text", "xml",
    "--point", "--lambda", "--scalars", "--expect-rigid", "--a", "--b", "--order",
    "--multiplicity", "--poly", "--q", "--w", "--tol", "--max-i", "0", "1", "3", "-1",
    "13", "zeta3", "X^2+2", "1/0", "inf", "{}", "--help", "",
])


@SETTINGS
@given(
    st.sampled_from(["jordan", "rigidity", "irreducible", "regular", "mc", "twist",
                     "hypergeom", "katz-reduce", "weil", "frobnicate"]),
    st.lists(ARGV_TOKENS, max_size=6),
    st.sampled_from(["", "{", '{"N": 1}', "[]"]),
)
def test_generated_argv_ends_in_an_exit_code(command, rest, stdin):
    _check([command, *rest], stdin)


@SETTINGS
@given(st.sampled_from(["-1", "0", "1", "2", "3", "13", "x"]), st.sampled_from(FORMATS))
def test_table1_ends_in_an_exit_code(max_i, fmt):
    code, out = _check(["table1", "--max-i", max_i, "--format", fmt])
    assert code == (0 if max_i in ("0", "1", "2", "3") else 2)
