import json
import runpy
import sys
import time

import pytest

from rigidcalc import (
    CycNumber, ExactMatrix, build_F, hypergeometric_tuple, make_tuple, rank_one_system, serialization as ser
)
from rigidcalc.cli import main

from helpers import hypergeometric_over_q


@pytest.fixture
def f0_path(tmp_path):
    path = tmp_path / "f0.json"
    path.write_text(ser.canonical_dumps(ser.tuple_to_json(build_F(0))) + "\n")
    return str(path)


@pytest.fixture
def f6_path(tmp_path):
    path = tmp_path / "f6.json"
    path.write_text(ser.canonical_dumps(ser.tuple_to_json(build_F(6))) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def f2_at_order_one_path(tmp_path):
    # build_F(2) with every "N" set to 1: its eigenvalue -1 is a root of
    # unity of Q(zeta_1) = Q outside mu_1
    path = tmp_path / "f2_n1.json"
    path.write_text(ser.canonical_dumps(ser.tuple_to_json(build_F(2))).replace('"N":2', '"N":1'))
    return str(path)


@pytest.fixture
def odd_order_hypergeom_path(capsys, tmp_path):
    # a = (1, -1), b = (zeta3, zeta3^2): no puncture has a single Jordan
    # block, so regular reads every one, and -1 is -zeta3^0 at N = 3
    code, out, _ = run(capsys, "hypergeom", "--a", "1,-1", "--b", "zeta3,zeta3^2", "--order", "3")
    assert code == 0 and json.loads(out)["N"] == 3
    path = tmp_path / "odd.json"
    path.write_text(out)
    return str(path)


#: every subcommand that reads a tuple file, with its own arguments
TUPLE_SUBCOMMANDS = [
    ["jordan", "--point", "0"], ["jordan", "--point", "inf"], ["rigidity", "--expect-rigid"],
    ["irreducible"], ["regular"], ["mc", "--lambda", "-1"], ["twist", "--scalars=-1,1"],
    ["katz-reduce"],
]


class TestJordan:
    def test_f6_at_infinity(self, capsys, f6_path):
        code, out, _ = run(capsys, "jordan", f6_path, "--point", "inf")
        assert code == 0 and out.strip() == "U(7)"

    def test_f6_at_zero(self, capsys, f6_path):
        code, out, _ = run(capsys, "jordan", f6_path, "--point", "0")
        assert code == 0 and out.strip() == "1^{+3} (+) (-1)^{+4}"

    def test_json_format(self, capsys, f6_path):
        code, out, _ = run(capsys, "jordan", f6_path, "--point", "inf", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == [{"eigenvalue": {"N": 2, "coeffs": [["1", "1"]]}, "size": 7, "mult": 1}]

    def test_unknown_point(self, capsys, f6_path):
        code, _, err = run(capsys, "jordan", f6_path, "--point", "9")
        assert code == 2 and "error" in err

    def test_roots_of_unity_of_the_field_outside_mu_n(self, capsys, f2_at_order_one_path):
        code, out, _ = run(capsys, "jordan", f2_at_order_one_path, "--point", "0")
        assert code == 0 and out.strip() == "1 (+) (-1)^{+2}"
        code, out, _ = run(capsys, "jordan", f2_at_order_one_path, "--point", "0", "--format", "json")
        assert code == 0 and [e["eigenvalue"]["N"] for e in json.loads(out)] == [1, 1]


@pytest.mark.parametrize("source", ["f2_at_order_one_path", "odd_order_hypergeom_path"])
@pytest.mark.parametrize("argv", TUPLE_SUBCOMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_tuple_subcommands_read_every_root_of_unity_of_the_field(capsys, request, source, argv):
    # Both tuples have an eigenvalue -zeta_N^k at odd N, a root of unity of
    # Q(zeta_N) outside mu_N.
    path = request.getfixturevalue(source)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, argv[0], path, *argv[1:], "--format", fmt)
        assert (code, err) == (0, "") and out
    if argv == ["regular"]:
        assert out.strip() == ('{"verdict":"RegularViaLemma","witness":"inf"}'
                               if source.startswith("f2") else '{"verdict":"Unknown","witness":null}')


class TestRigidity:
    def test_value(self, capsys, f6_path):
        code, out, _ = run(capsys, "rigidity", f6_path)
        assert code == 0 and out.strip() == "2"

    def test_expect_rigid_pass(self, capsys, f6_path):
        code, _, _ = run(capsys, "rigidity", f6_path, "--expect-rigid")
        assert code == 0

    def test_expect_rigid_fail(self, capsys, tmp_path):
        from rigidcalc import ExactMatrix, make_tuple

        t = make_tuple(
            2,
            ["0", "1", "2"],
            [
                ExactMatrix.diagonal([1, -1]),
                ExactMatrix.from_rows([[0, 1], [1, 0]]),
                ExactMatrix.from_rows([[1, -2], [0, -1]]),
            ],
        )
        path = tmp_path / "nonrigid.json"
        path.write_text(ser.canonical_dumps(ser.tuple_to_json(t)))
        code, out, _ = run(capsys, "rigidity", str(path), "--expect-rigid")
        assert code == 1 and out.strip() == "0"


class TestReports:
    def test_irreducible(self, capsys, f6_path):
        code, out, _ = run(capsys, "irreducible", f6_path)
        assert code == 0 and out.strip() == "true"

    def test_regular_text_and_json(self, capsys, f6_path):
        code, out, _ = run(capsys, "regular", f6_path)
        assert code == 0 and out.strip() == "RegularViaLemma(inf)"
        code, out, _ = run(capsys, "regular", f6_path, "--format", "json")
        assert json.loads(out) == {"verdict": "RegularViaLemma", "witness": "inf"}


class TestConstructors:
    def test_mc_emits_expected_tuple(self, capsys, f0_path):
        code, out, _ = run(capsys, "mc", f0_path, "--lambda", "-1")
        assert code == 0
        doc = json.loads(out)
        t = ser.tuple_from_json(doc)
        assert t.rank == 2
        from rigidcalc import ExactMatrix

        assert t.matrices[0] == ExactMatrix.from_rows([[1, 2], [0, 1]])
        assert t.matrices[1] == ExactMatrix.from_rows([[1, 0], [-2, 1]])

    def test_emitted_tuples_round_trip(self, capsys, f0_path):
        code, out, _ = run(capsys, "mc", f0_path, "--lambda", "-1")
        text = out.strip()
        assert ser.canonical_dumps(ser.tuple_to_json(ser.tuple_from_json(json.loads(text)))) == text

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    def test_mc_of_rank_zero_exits_one(self, capsys, monkeypatch, fmt):
        # The rank-one tuple with A_0 = -1 is well-formed and so is lambda =
        # -1, but MC_(-1) of it has rank 0: a failing answer, not bad input.
        import io

        code, tuple_text, _ = run(capsys, "hypergeom", "--a", "-1", "--b", "1")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(tuple_text))
        code, out, err = run(capsys, "mc", "-", "--lambda", "-1", *fmt)
        assert code == 1 and out == ""
        assert err == "error: middle convolution collapsed to rank 0\n"

    def test_twist(self, capsys, f0_path):
        code, out, _ = run(capsys, "twist", f0_path, "--scalars=-1,-1")
        assert code == 0
        t = ser.tuple_from_json(json.loads(out))
        assert all(m[0, 0].is_one() for m in t.matrices)

    def test_hypergeom_parameters(self, capsys):
        code, out, _ = run(capsys, "hypergeom", "--a", "1,1", "--b", "zeta3,zeta3^2")
        assert code == 0
        t = ser.tuple_from_json(json.loads(out))
        assert t.rank == 2 and t.order == 3

    def test_hypergeom_multiplicity_inline(self, capsys):
        doc = '{"N": 2, "m": [{"zeta": "-1", "mult": 3}]}'
        code, out, _ = run(capsys, "hypergeom", "--multiplicity", doc)
        assert code == 0
        t = ser.tuple_from_json(json.loads(out))
        assert t.rank == 3

    def test_hypergeom_multiplicity_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"N": 3, "m": [{"zeta": "zeta3", "mult": 1}, {"zeta": "zeta3^2", "mult": 1}]}')
        code, out, _ = run(capsys, "hypergeom", "--multiplicity", str(path))
        assert code == 0
        assert ser.tuple_from_json(json.loads(out)).rank == 2

    def test_hypergeom_missing_arguments(self, capsys):
        code, _, err = run(capsys, "hypergeom", "--a", "1,1")
        assert code == 2 and "error" in err

    def test_hypergeom_order_of_rational_minus_one(self, capsys, tmp_path):
        # -1 lies in Q = Q(zeta_1), so the inferred order stays 1; the local
        # data and verdicts are those of the same tuple written at order 2
        inferred = run(capsys, "hypergeom", "--a", "-1", "--b", "1")
        explicit = run(capsys, "hypergeom", "--a", "-1", "--b", "1", "--order", "2")
        assert inferred[0] == explicit[0] == 0
        assert json.loads(inferred[1])["N"] == 1 and json.loads(explicit[1])["N"] == 2
        verdicts = []
        for k, (_, out, _) in enumerate((inferred, explicit)):
            path = tmp_path / f"t{k}.json"
            path.write_text(out)
            code, at_infinity, _ = run(capsys, "jordan", str(path), "--point", "inf")
            assert code == 0 and at_infinity.strip() == "(-1)"
            verdicts.append([run(capsys, command, str(path))
                             for command in ("rigidity", "irreducible", "regular", "katz-reduce")])
        assert verdicts[0] == verdicts[1]

    def test_hypergeom_non_root_of_unity_exits_two(self, capsys):
        code, out, err = run(capsys, "hypergeom", "--a", "2", "--b", "1")
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("form", [
        ["--a", "-1", "--b", "1"],
        ["--multiplicity", '{"N": 2, "m": [{"zeta": "-1", "mult": 1}]}'],
    ], ids=["parameters", "multiplicity"])
    def test_hypergeom_order_zero_exits_two(self, capsys, form):
        # An explicit --order 0 is an error in both forms; the JSON's N
        # replaces only an absent --order.
        code, out, err = run(capsys, "hypergeom", *form, "--order", "0")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("form", [
        ["--a", "1,1", "--b", "zeta3,zeta3^2"],
        ["--multiplicity", '{"N": 3, "m": [{"zeta": "zeta3", "mult": 1}]}'],
    ], ids=["parameters", "multiplicity"])
    def test_hypergeom_negative_order_exits_two(self, capsys, form):
        # lcm(3, -3) = 3 once read a negative --order as a valid one
        code, out, err = run(capsys, "hypergeom", *form, "--order", "-3")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "-3" in err


class TestTable1:
    def test_exit_zero_and_text(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-i", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("i")
        assert len(lines) == 4

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-i", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert [row["i"] for row in doc["rows"]] == [0, 1]
        assert doc["rows"][0]["regular"] == "RegularViaLemma(inf)"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "table1", "--max-i", "13")
        assert code == 2 and "error" in err

    def test_max_eight_exits_zero(self, capsys):
        code, out, _ = run(capsys, "table1", "--max-i", "8")
        assert code == 0
        assert len(out.splitlines()) == 10


class TestKatzReduceCli:
    def test_text(self, capsys, tmp_path):
        path = tmp_path / "f2.json"
        path.write_text(ser.canonical_dumps(ser.tuple_to_json(build_F(2))))
        code, out, _ = run(capsys, "katz-reduce", str(path))
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("rank=1")

    def test_json(self, capsys, f0_path):
        code, out, _ = run(capsys, "katz-reduce", f0_path, "--format", "json")
        assert code == 0
        assert json.loads(out) == {"steps": []}

    def test_rational_tuple_declared_at_order_one(self, capsys, tmp_path):
        # Katz's eigenvalue -1 lies in Q(zeta_1) = Q, outside mu_1
        path = tmp_path / "f3.json"
        text = ser.canonical_dumps(ser.tuple_to_json(build_F(3)))
        path.write_text(text.replace('"N":2', '"N":1'))
        code, out, _ = run(capsys, "katz-reduce", str(path), "--format", "json")
        assert code == 0
        assert [step["rank"] for step in json.loads(out)["steps"]] == [3, 2, 1]

    def test_reducible_tuple_exits_two(self, capsys, tmp_path):
        z = CycNumber.zeta(3)
        path = tmp_path / "reducible.json"
        path.write_text(ser.canonical_dumps(ser.tuple_to_json(hypergeometric_tuple([1, z], [z ** 2, 1], 3))))
        code, out, err = run(capsys, "katz-reduce", str(path))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "irreducible" in err and "Traceback" not in err


class TestThreePuncturesCli:
    """The rank-one system at 0, 1, 2 over Q(zeta_12) with scalars zeta^10,
    zeta^5 and zeta^6 has rigidity index 2, and so has its MC with lambda =
    zeta^11, of rank 3 (Dettweiler-Reiter).  Their local data at infinity
    hold for (A_3 A_2 A_1)^-1: eigenvalues zeta, zeta and zeta^4."""

    @pytest.fixture
    def convolved_path(self, capsys, tmp_path):
        z = CycNumber.zeta(12)
        path = tmp_path / "rank_one.json"
        t = rank_one_system(["0", "1", "2"], [z ** 10, z ** 5, z ** 6], 12)
        path.write_text(ser.canonical_dumps(ser.tuple_to_json(t)))
        code, out, err = run(capsys, "mc", str(path), "--lambda", "zeta12^11")
        assert (code, err) == (0, "") and json.loads(out)["n"] == 3
        path = tmp_path / "convolved.json"
        path.write_text(out)
        return path

    def test_rigidity_is_two(self, capsys, convolved_path):
        assert run(capsys, "rigidity", str(convolved_path), "--expect-rigid") == (0, "2\n", "")

    def test_jordan_at_infinity(self, capsys, convolved_path):
        code, out, err = run(capsys, "jordan", str(convolved_path), "--point", "inf")
        assert (code, out, err) == (0, "(zeta3) (+) (zeta12)^{+2}\n", "")

    def test_katz_reduce_takes_one_step_to_rank_one(self, capsys, convolved_path):
        code, out, err = run(capsys, "katz-reduce", str(convolved_path), "--format", "json")
        assert (code, err) == (0, "")
        assert [step["rank"] for step in json.loads(out)["steps"]] == [1]

    def test_reversed_tuple_is_not_rigid(self, capsys, convolved_path):
        document = json.loads(convolved_path.read_text())
        document["matrices"].reverse()
        convolved_path.write_text(json.dumps(document))
        code, out, err = run(capsys, "katz-reduce", str(convolved_path))
        assert (code, out) == (2, "")
        assert err == "error: rigidity index is 0, not 2\n"


def rational_hypergeometric_path(tmp_path, a, b):
    path = tmp_path / "rational.json"
    path.write_text(ser.canonical_dumps(ser.tuple_to_json(hypergeometric_over_q(a, b))))
    return str(path)


class TestEigenvaluesOutsideTheField:
    def test_katz_reduce_with_the_eigenvalue_two(self, capsys, tmp_path):
        path = rational_hypergeometric_path(tmp_path, [2, -1, -1, -1, -1], [1, 1, 1, 1, 3])
        code, out, err = run(capsys, "katz-reduce", path, "--format", "json")
        assert (code, err) == (0, "")
        assert [step["rank"] for step in json.loads(out)["steps"]] == [4, 3, 2, 1]

    def test_katz_reduce_without_progress_exits_two(self, capsys, tmp_path):
        path = rational_hypergeometric_path(tmp_path, [2, 2, -1, -1], [1, 1, 3, 3])
        code, out, err = run(capsys, "katz-reduce", path)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "did not decrease rank" in err and "Traceback" not in err

    def test_regular_witness_after_golden_ratio_infinity(self, capsys, tmp_path):
        t = make_tuple(1, ["0", "1"], [ExactMatrix.from_rows([[0, 1], [1, 0]]),
                                       ExactMatrix.from_rows([[1, 1], [0, 1]])])
        path = tmp_path / "golden.json"
        path.write_text(ser.canonical_dumps(ser.tuple_to_json(t)))
        code, out, err = run(capsys, "regular", str(path))
        assert (code, out.strip(), err) == (0, "RegularViaLemma(1)", "")


class TestWeil:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X^2+5", "--q", "5", "--w", "1")
        assert code == 0 and out.strip() == "Pass"

    def test_fail_exit_one(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X^2-3X+2", "--q", "2", "--w", "1")
        assert code == 1 and out.strip() == "FailMagnitude"

    def test_functional_equation_failure(self, capsys):
        # X^3 + X + 8 fails past the constant term
        for poly, q, w in (("X-5", "5", "1"), ("X^3+X+8", "2", "2")):
            code, out, _ = run(capsys, "weil", "--poly", poly, "--q", q, "--w", w)
            assert code == 1 and out.strip() == "FailFunctionalEquation"

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X-5", "--q", "5", "--w", "2", "--format", "json")
        assert code == 0 and json.loads(out) == {"verdict": "Pass"}

    def test_json_polynomial_input(self, capsys):
        doc = json.dumps(
            {
                "N": 1,
                "coeffs": [
                    {"N": 1, "coeffs": [["5", "1"]]},
                    {"N": 1, "coeffs": [["0", "1"]]},
                    {"N": 1, "coeffs": [["1", "1"]]},
                ],
            }
        )
        code, out, _ = run(capsys, "weil", "--poly", doc, "--q", "5", "--w", "1")
        assert code == 0 and out.strip() == "Pass"

    def test_polynomial_file_input(self, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(
            json.dumps(
                {
                    "N": 1,
                    "coeffs": [
                        {"N": 1, "coeffs": [["2", "1"]]},
                        {"N": 1, "coeffs": [["-3", "1"]]},
                        {"N": 1, "coeffs": [["1", "1"]]},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "weil", "--poly", str(path), "--q", "2", "--w", "1")
        assert code == 1

    def test_invalid_inputs_exit_two(self, capsys):
        assert run(capsys, "weil", "--poly", "junk", "--q", "2", "--w", "1")[0] == 2
        assert run(capsys, "weil", "--poly", "X-5", "--q", "6", "--w", "1")[0] == 2
        assert run(capsys, "weil", "--poly", "X-5", "--q", "5", "--w", "1", "--tol", "-1")[0] == 2
        assert run(capsys, "weil", "--poly", "5", "--q", "5", "--w", "1")[0] == 2  # degree 0


class TestInputHandling:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "jordan", "/nonexistent/tuple.json", "--point", "0")
        assert code == 2 and "error" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "rigidity", str(path))
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(ser.canonical_dumps(ser.tuple_to_json(build_F(0)))))
        code, out, _ = run(capsys, "rigidity", "-")
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize("component", ["1.5", "true"])
    def test_non_integer_coefficients_exit_two(self, capsys, monkeypatch, component):
        import io

        entry = f'{{"N": 1, "coeffs": [[{component}, 2]]}}'
        doc = (
            '{"N": 1, "n": 1, "punctures": ["0"], '
            f'"matrices": [{{"rows": 1, "cols": 1, "entries": [{entry}]}}]}}'
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(capsys, "rigidity", "-")[0] == 2
        poly = f'{{"coeffs": [{entry}, {{"N": 1, "coeffs": [["1", "1"]]}}]}}'
        assert run(capsys, "weil", "--poly", poly, "--q", "2", "--w", "1")[0] == 2

    @pytest.mark.parametrize("declared", [0, 1])
    @pytest.mark.parametrize(
        "command",
        [["jordan", "-", "--point", "0"], ["jordan", "-", "--point", "inf"], ["rigidity", "-"],
         ["rigidity", "-", "--expect-rigid"], ["irreducible", "-"], ["regular", "-"],
         ["katz-reduce", "-"], ["mc", "-", "--lambda", "-1"], ["twist", "-", "--scalars", "1"]],
        ids=lambda argv: " ".join(argv[:1] + argv[2:]),
    )
    def test_rank_zero_tuple_exits_two(self, capsys, monkeypatch, command, declared):
        import io

        doc = (
            f'{{"N": 1, "n": {declared}, "punctures": ["0"], '
            '"matrices": [{"rows": 0, "cols": 0, "entries": []}]}'
        )
        for fmt in ([], ["--format", "json"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            code, out, err = run(capsys, *command, *fmt)
            assert code == 2 and out == "" and "error" in err

    def test_order_above_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "hypergeom", "--a", "1", "--b", "zeta1001")
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize("argv", [
        ["hypergeom", "--multiplicity", '{"N": 2, "m": [{"zeta": "-1", "mult": 100000}]}'],
        ["hypergeom", "--multiplicity",
         '{"N": 3, "m": [{"zeta": "zeta3", "mult": 40}, {"zeta": "zeta3^2", "mult": 40}]}'],
        ["weil", "--poly", "X^1000000000+2", "--q", "2", "--w", "1"],
        ["weil", "--poly", "X^1025+2", "--q", "2", "--w", "1"],
    ])
    def test_sizes_above_cap_exit_two_at_once(self, capsys, argv):
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "above the supported maximum" in err

    def test_hypergeom_list_length_capped_at_max_multiplicity(self, capsys, monkeypatch):
        # The list length is the rank: MAX_MULTIPLICITY bounds it as it
        # bounds the rank of the --multiplicity form.
        top = ser.MAX_MULTIPLICITY
        code, out, err = run(capsys, "hypergeom", "--a", ",".join(["1"] * top),
                             "--b", ",".join(["zeta3"] * top))
        assert code == 0 and err == ""
        assert ser.tuple_from_json(json.loads(out)).rank == top

        def no_matrix(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(ExactMatrix, "__init__", no_matrix)
        for a, b in ((top + 1, top + 1), (top + 1, top), (top, top + 1)):
            code, out, err = run(capsys, "hypergeom", "--a", ",".join(["1"] * a),
                                 "--b", ",".join(["zeta3"] * b))
            assert code == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("error:") and "above the supported maximum" in err

    @pytest.mark.parametrize("entry", ["--point", "--lambda", "--scalars", "label"])
    def test_exponent_above_cap_exits_two_at_once(self, capsys, monkeypatch, f0_path, entry):
        # Fraction would write out 10^1000000000 digit by digit
        import io

        big = "1e1000000000"
        argv = {
            "--point": ["jordan", f0_path, "--point", big],
            "--lambda": ["mc", f0_path, "--lambda", big],
            "--scalars": ["twist", f0_path, f"--scalars={big},1"],
            "label": ["rigidity", "-"],
        }[entry]
        with open(f0_path) as handle:
            labelled = handle.read().replace('"punctures":["0","1"]', f'"punctures":["0","{big}"]')
        assert big in labelled
        monkeypatch.setattr("sys.stdin", io.StringIO(labelled))
        start = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error:")
        assert big in err
        # a scalar past the cap is named as such, not as a bad root of unity
        assert ("bad puncture labels" if entry == "label" else "above the supported maximum 4300") in err

    @pytest.mark.parametrize("label", ["1e4300", "9" * 4300 + "e1", "1e-4300"])
    def test_label_past_the_digit_limit_exits_two(self, capsys, monkeypatch, f0_path, label):
        # int() writes at most 4300 digits as text, so mc could not write
        # such a label back: it is refused where the input is read
        import io

        with open(f0_path) as handle:
            labelled = handle.read().replace('"punctures":["0","1"]', f'"punctures":["0","{label}"]')
        monkeypatch.setattr("sys.stdin", io.StringIO(labelled))
        code, out, err = run(capsys, "mc", "-", "--lambda", "-1")
        assert code == 2 and out == "" and err.count("\n") == 1 and len(err) < 200
        assert err.startswith("error: bad puncture labels") and "Exceeds the limit" not in err
        code, out, err = run(capsys, "jordan", f0_path, "--point", label)
        assert code == 2 and out == "" and len(err) < 200
        assert "more digits than the supported maximum 4300" in err

    def test_label_at_the_digit_limit_is_written_back(self, capsys, monkeypatch, f0_path):
        import io

        label = "1e4299"  # 4300 digits
        with open(f0_path) as handle:
            labelled = handle.read().replace('"punctures":["0","1"]', f'"punctures":["0","{label}"]')
        monkeypatch.setattr("sys.stdin", io.StringIO(labelled))
        code, out, err = run(capsys, "mc", "-", "--lambda", "-1")
        assert code == 0 and err == ""
        assert json.loads(out)["punctures"] == ["0", "1" + "0" * 4299]

    def test_zero_denominator_point_exits_two(self, capsys, f6_path):
        code, out, err = run(capsys, "jordan", f6_path, "--point", "1/0")
        assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error:")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestInternalErrors:
    @pytest.mark.parametrize("callee, command, exc", [
        ("middle_convolution", ["mc", "--lambda", "-1"],
         RuntimeError("convolution subspace is not invariant")),
        ("rigidity_index", ["rigidity"], ZeroDivisionError("division by zero")),
    ])
    def test_one_line_and_exit_one(self, capsys, monkeypatch, f0_path, callee, command, exc):
        def fault(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"rigidcalc.cli.{callee}", fault)
        code, out, err = run(capsys, command[0], f0_path, *command[1:])
        assert code == 1 and out == ""
        assert err == f"internal error: {exc}\n"
        assert "Traceback" not in err


class TestModuleEntryPoint:
    def test_python_dash_m(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["rigidcalc", "hypergeom", "--a", "1,1", "--b", "zeta3,zeta3^2"])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("rigidcalc", run_name="__main__")
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert out == run(capsys, "hypergeom", "--a", "1,1", "--b", "zeta3,zeta3^2")[1]
