import json
from fractions import Fraction

import pytest

from rigidcalc import CycNumber, ExactMatrix, MultiplicityFunction, build_F, euler_phi, katz_reduce
from rigidcalc import serialization as ser
from rigidcalc.cli import main
from rigidcalc.errors import SchemaError


class TestCycJson:
    def test_round_trip(self):
        x = CycNumber(12, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)])
        doc = ser.cyc_to_json(x)
        assert ser.cyc_from_json(doc) == x
        assert ser.canonical_dumps(doc) == ser.canonical_dumps(ser.cyc_to_json(ser.cyc_from_json(doc)))

    def test_emitted_pairs_match_fractions(self, rng):
        # Each emitted pair is the reduced Fraction nums[i] / den, also where
        # a coefficient shares a factor with den (or is 0, emitted as 0/1).
        for _ in range(200):
            order = rng.choice([1, 3, 4, 5, 8, 12])
            den = rng.choice([1, 2, 6, 12, 35, 360])
            nums = [rng.choice([0, 1, -2, 3, 6, -12, 35, 180, rng.randint(-10**6, 10**6)])
                    for _ in range(euler_phi(order))]
            x = CycNumber(order, nums, den)
            expected = [[str(c.numerator), str(c.denominator)] for c in x.coeffs]
            assert ser.cyc_to_json(x) == {"N": order, "coeffs": expected}

    def test_string_integers(self):
        doc = {"N": 1, "coeffs": [["-7", "2"]]}
        assert ser.cyc_from_json(doc).as_rational() == Fraction(-7, 2)

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 0, "coeffs": [["1", "1"]]})
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 4, "coeffs": [["1", "1"]]})  # wrong length
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 1, "coeffs": [["1", "0"]]})  # bad denominator
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 1, "coeffs": [["x", "1"]]})
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 1})
        with pytest.raises(SchemaError):
            ser.cyc_from_json([1, 2])

    def test_floats_and_booleans_rejected(self):
        # int() would read [1.5, 2] and [true, 2] as 1/2
        for pair in ([1.5, 2], [True, 2], [1, 2.0], [1, False], ["1.5", "2"], [" 1", "2"]):
            with pytest.raises(SchemaError):
                ser.cyc_from_json({"N": 1, "coeffs": [pair]})
        assert ser.cyc_from_json({"N": 1, "coeffs": [[-1, "2"]]}) == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ["\u0663", "1_000", " 1", "1 ", "+1", "--1", "-", "", "1\n", "\u00b2"])
    def test_integer_strings_outside_ascii_decimal_rejected(self, text):
        # Exactly -?[0-9]+ parses; int() alone would read "\u0663" (Arabic-Indic
        # three), "1_000", " 1" and "+1".
        for pair in ([text, "1"], ["1", text]):
            with pytest.raises(SchemaError):
                ser.cyc_from_json({"N": 1, "coeffs": [pair]})

    def test_ascii_decimal_strings_parse(self):
        for text, value in (("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("9" * 40, int("9" * 40))):
            assert ser.cyc_from_json({"N": 1, "coeffs": [[text, "1"]]}) == value

    def test_unreduced_pairs_parse_to_reduced_forms(self):
        assert ser.cyc_from_json({"N": 1, "coeffs": [["2", "4"]]}) == Fraction(1, 2)
        assert ser.cyc_from_json({"N": 1, "coeffs": [["-3", "6"]]}) == Fraction(-1, 2)
        unreduced = {"N": 4, "coeffs": [["2", "4"], ["-3", "6"]]}
        reduced = {"N": 4, "coeffs": [["1", "2"], ["-1", "2"]]}
        x = ser.cyc_from_json(unreduced)
        assert x == ser.cyc_from_json(reduced) == CycNumber(4, [Fraction(1, 2), Fraction(-1, 2)])
        assert ser.cyc_to_json(x) == reduced
        # over unequal denominators, and a zero with any positive denominator
        y = ser.cyc_from_json({"N": 3, "coeffs": [["4", "6"], ["0", "9"]]})
        assert (y.nums, y.den) == ((2, 0), 3)
        assert ser.cyc_to_json(y) == {"N": 3, "coeffs": [["2", "3"], ["0", "1"]]}

    def test_order_above_cap(self):
        coeffs = [["1", "1"]] + [["0", "1"]] * 719  # phi(1001) = 720
        with pytest.raises(SchemaError):
            ser.cyc_from_json({"N": 1001, "coeffs": coeffs})


class TestMatrixJson:
    def test_round_trip(self):
        m = ExactMatrix.from_rows([[CycNumber.zeta(3), 1], [0, Fraction(5, 2)]])
        doc = ser.matrix_to_json(m)
        assert ser.matrix_from_json(doc) == m

    def test_entry_count_checked(self):
        doc = ser.matrix_to_json(ExactMatrix.identity(2))
        doc["entries"] = doc["entries"][:3]
        with pytest.raises(SchemaError):
            ser.matrix_from_json(doc)

    def test_negative_dimensions_rejected_before_entry_count(self):
        for rows, cols in ((-1, -1), (-1, 2), (2, -1)):
            with pytest.raises(SchemaError, match="dimensions"):
                ser.matrix_from_json({"rows": rows, "cols": cols, "entries": []})
        empty = ser.matrix_from_json({"rows": 0, "cols": 3, "entries": []})
        assert (empty.rows, empty.cols) == (0, 3)


class TestTupleJson:
    def test_round_trip_byte_identical(self):
        for i in (0, 1, 3):
            t = build_F(i)
            text = ser.canonical_dumps(ser.tuple_to_json(t))
            reparsed = ser.tuple_from_json(json.loads(text))
            assert ser.canonical_dumps(ser.tuple_to_json(reparsed)) == text

    def test_declared_rank_checked(self):
        doc = ser.tuple_to_json(build_F(1))
        doc["n"] = 5
        with pytest.raises(SchemaError):
            ser.tuple_from_json(doc)

    def test_rank_zero_rejected(self):
        empty = {"rows": 0, "cols": 0, "entries": []}
        for declared in (0, -1, 1):
            doc = {"N": 1, "n": declared, "punctures": ["0"], "matrices": [empty]}
            with pytest.raises(SchemaError):
                ser.tuple_from_json(doc)

    def test_duplicate_punctures_rejected(self):
        doc = ser.tuple_to_json(build_F(0))
        doc["punctures"] = ["0", "0"]
        with pytest.raises(SchemaError):
            ser.tuple_from_json(doc)

    def test_singular_matrix_rejected(self):
        doc = ser.tuple_to_json(build_F(0))
        doc["matrices"][0]["entries"][0]["coeffs"] = [["0", "1"]]
        with pytest.raises(SchemaError):
            ser.tuple_from_json(doc)

    def test_fractional_punctures(self):
        t = build_F(0)
        doc = ser.tuple_to_json(t)
        doc["punctures"] = ["1/2", "-3"]
        parsed = ser.tuple_from_json(doc)
        assert [str(p) for p in parsed.punctures] == ["1/2", "-3"]


class TestJordanTraceJson:
    def test_jordan_document(self):
        jt = build_F(6).jordan_at("0")
        doc = ser.jordan_to_json(jt)
        assert {entry["size"] for entry in doc} == {1}
        assert sorted(entry["mult"] for entry in doc) == [3, 4]

    def test_trace_document(self):
        trace = katz_reduce(build_F(2))
        doc = ser.trace_to_json(trace)
        assert [step["rank"] for step in doc["steps"]] == [2, 1]
        assert all(len(step["twist"]) == 2 for step in doc["steps"])


class TestZetaGrammar:
    def test_parse(self):
        assert ser.parse_root_of_unity("1").is_one()
        assert ser.parse_root_of_unity("-1") == -1
        assert ser.parse_root_of_unity("zeta3") == CycNumber.zeta(3)
        assert ser.parse_root_of_unity("zeta3^2") == CycNumber.zeta(3, 2)
        assert ser.parse_root_of_unity("-zeta4") == -CycNumber.zeta(4)

    def test_parse_rejects(self):
        for bad in ("", "zeta", "zeta0", "2", "zeta3^", "one"):
            with pytest.raises(SchemaError):
                ser.parse_root_of_unity(bad)

    def test_format_round_trip(self):
        for text in ("1", "-1", "zeta3", "zeta3^2", "zeta12^5"):
            assert ser.format_root_of_unity(ser.parse_root_of_unity(text)) == text

    def test_format_normalizes_sign(self):
        assert ser.format_root_of_unity(-CycNumber.zeta(3)) == "zeta6^5"

    def test_format_rejects_non_roots(self):
        with pytest.raises(ValueError):
            ser.format_root_of_unity(CycNumber.from_rational(2))

    def test_parse_scalar(self):
        assert ser.parse_scalar("2/3").as_rational() == Fraction(2, 3)
        assert ser.parse_scalar("zeta4") == CycNumber.zeta(4)


class TestPolynomialGrammar:
    def test_examples(self):
        assert ser.parse_integer_polynomial("X^2-3X+2") == [
            Fraction(2),
            Fraction(-3),
            Fraction(1),
        ]
        assert ser.parse_integer_polynomial("x+1") == [Fraction(1), Fraction(1)]
        assert ser.parse_integer_polynomial("2*X^3 - X") == [
            Fraction(0),
            Fraction(-1),
            Fraction(0),
            Fraction(2),
        ]
        assert ser.parse_integer_polynomial("-X^2+5") == [Fraction(5), Fraction(0), Fraction(-1)]

    def test_repeated_terms_accumulate(self):
        assert ser.parse_integer_polynomial("X+X") == [Fraction(0), Fraction(2)]

    def test_rejects_garbage(self):
        for bad in ("", "X^2 + + 3", "3/2X", "X^2 3X", "junk"):
            with pytest.raises(SchemaError):
                ser.parse_integer_polynomial(bad)

    def test_degree_cap(self):
        top = ser.MAX_DEGREE
        assert len(ser.parse_integer_polynomial(f"X^{top}+1")) == top + 1
        for bad in (f"X^{top + 1}+1", f"1+X^{top}-X^{top + 1}"):
            with pytest.raises(SchemaError, match="above the supported maximum"):
                ser.parse_integer_polynomial(bad)


class TestMultiplicityJson:
    def test_round_trip(self):
        doc = {"N": 6, "m": [{"zeta": "zeta3", "mult": 2}, {"zeta": "-1", "mult": 1}]}
        m, order = ser.multiplicity_from_json(doc)
        assert order == 6 and m.rank == 3
        emitted = ser.multiplicity_to_json(m, order)
        m2, order2 = ser.multiplicity_from_json(emitted)
        assert m2 == m and order2 == order

    def test_bad_documents(self):
        with pytest.raises(SchemaError):
            ser.multiplicity_from_json({"N": 6, "m": [{"zeta": "1", "mult": 2}]})
        with pytest.raises(SchemaError):
            ser.multiplicity_from_json({"N": 6, "m": [{"zeta": "zeta3", "mult": 0}]})
        with pytest.raises(SchemaError):
            ser.multiplicity_from_json({"N": 6})

    def test_total_multiplicity_cap(self):
        top = ser.MAX_MULTIPLICITY
        split = {"N": 3, "m": [{"zeta": "zeta3", "mult": top - 1}, {"zeta": "zeta3^2", "mult": 1}]}
        assert ser.multiplicity_from_json(split)[0].rank == top
        split["m"][1]["mult"] = 2
        with pytest.raises(SchemaError, match="above the supported maximum"):
            ser.multiplicity_from_json(split)


def _set(document, path, value):
    for key in path[:-1]:
        document = document[key]
    document[path[-1]] = value


# Each integer field, set to JSON true.  Every valid value in the tuple is 1,
# which is what a bool used to be read as.
_RANK_ONE_TUPLE = (
    '{"N": 1, "n": 1, "punctures": ["0"], "matrices": '
    '[{"rows": 1, "cols": 1, "entries": [{"N": 1, "coeffs": [["2", "1"]]}]}]}'
)
_MULTIPLICITY = '{"N": 2, "m": [{"zeta": "-1", "mult": 1}]}'


@pytest.mark.parametrize(
    "path",
    [("N",), ("n",), ("matrices", 0, "rows"), ("matrices", 0, "cols"),
     ("matrices", 0, "entries", 0, "N")],
    ids=["tuple-N", "n", "rows", "cols", "cyc-N"],
)
def test_boolean_tuple_fields_rejected(capsys, monkeypatch, path):
    import io

    document = json.loads(_RANK_ONE_TUPLE)
    assert ser.tuple_from_json(document).rank == 1
    _set(document, path, True)
    with pytest.raises(SchemaError):
        ser.tuple_from_json(document)
    if path[0] == "matrices":  # the inner parsers refuse it on their own too
        inner = document["matrices"][0]
        with pytest.raises(SchemaError):
            ser.matrix_from_json(inner)
        if len(path) > 3:
            with pytest.raises(SchemaError):
                ser.cyc_from_json(inner["entries"][0])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    assert main(["rigidity", "-"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("path", [("N",), ("m", 0, "mult")], ids=["N", "mult"])
def test_boolean_multiplicity_fields_rejected(capsys, path):
    document = json.loads(_MULTIPLICITY)
    assert ser.multiplicity_from_json(document)[0].rank == 1
    _set(document, path, True)
    with pytest.raises(SchemaError):
        ser.multiplicity_from_json(document)
    assert main(["hypergeom", "--multiplicity", json.dumps(document)]) == 2
    assert capsys.readouterr().out == ""


def _zeta(order, phi):
    return {"N": order, "coeffs": [["0", "1"], ["1", "1"]] + [["0", "1"]] * (phi - 2)}


_ZERO = {"N": 1, "coeffs": [["0", "1"]]}


@pytest.mark.parametrize(
    "path, value, message",
    [(("punctures", 0), "x", "bad puncture labels"),
     (("matrices", 0, "entries", 0, "coeffs", 0, 0), "7" * 5000, "too many digits in a rational component: 5000"),
     (("matrices", 0), {"rows": 2, "cols": 2, "entries": [_zeta(997, 996), _ZERO, _ZERO, _zeta(991, 990)]},
      "above the supported maximum")],
    ids=["puncture-label", "5000-digits", "order-lcm"],
)
def test_error_paths_give_schema_errors(capsys, monkeypatch, path, value, message):
    # A label Fraction cannot read; a numerator past int()'s digit limit
    # for strings (4300 by default), reported by its length and not
    # echoed; entries at orders 997 and 991, whose lcm 988027 exceeds
    # MAX_ORDER, refused by the matrix parser before any rank check.
    import io

    document = json.loads(_RANK_ONE_TUPLE)
    _set(document, path, value)
    with pytest.raises(SchemaError, match=message):
        ser.tuple_from_json(document)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
    assert main(["rigidity", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 200  # no input echoed
