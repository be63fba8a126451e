import json

import pytest

from rigidcalc import build_F, serialization as ser
from rigidcalc.cli import main


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


class TestWeil:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X^2+5", "--q", "5", "--w", "1")
        assert code == 0 and out.strip() == "Pass"

    def test_fail_exit_one(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X^2-3X+2", "--q", "2", "--w", "1")
        assert code == 1 and out.strip() == "FailMagnitude"

    def test_functional_equation_failure(self, capsys):
        code, out, _ = run(capsys, "weil", "--poly", "X-5", "--q", "5", "--w", "1")
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
