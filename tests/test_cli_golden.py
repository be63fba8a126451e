"""Replay recorded CLI invocations; exit code and stdout must match byte for byte.

``tests/golden/cli.json`` holds the inputs (F0-F6, four tuples made by
``hypergeom``, a non-rigid tuple, a multiplicity function and a Weil
polynomial) and, for each invocation, its argv, exit code and stdout.  An
argv item ``@name`` stands for the path of input ``name``.  The file pins
the behaviour contract: a change that moves one byte of CLI output fails here.

Regenerate it only at a commit whose outputs are known to be right:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rigidcalc.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

HYPERGEOM = {
    "H3": ["--a", "1,1", "--b", "zeta3,zeta3^2"],  # the README example
    "H5": ["--a", "zeta5,zeta5^2", "--b", "1,zeta5^3"],
    "H8": ["--a", "zeta8,zeta8^5,-1", "--b", "1,zeta8^2,zeta8^3"],
    "H12": ["--a", "zeta12,zeta12^7", "--b", "zeta4,zeta3"],
}

TUPLE_COMMANDS = (
    ["jordan", "--point", "0"],
    ["jordan", "--point", "1"],
    ["jordan", "--point", "inf"],
    ["rigidity", "--expect-rigid"],
    ["irreducible"],
    ["regular"],
    ["katz-reduce"],
    ["mc", "--lambda", "-1"],
    ["mc", "--lambda", "zeta3"],
    ["twist", "--scalars=-1,-1"],
)

WEIL = (
    ["--poly", "X^2-3X+2", "--q", "2", "--w", "1"],  # the README example
    ["--poly", "X^2-2X+5", "--q", "5", "--w", "1"],
    ["--poly", "X^2+3", "--q", "3", "--w", "1"],
)

MULTIPLICITY = '{"N":3,"m":[{"zeta":"zeta3","mult":2},{"zeta":"zeta3^2","mult":1}]}'
WEIL_JSON = (
    '{"coeffs":[{"N":1,"coeffs":[["2","1"]]},{"N":1,"coeffs":[["-3","1"]]},'
    '{"N":1,"coeffs":[["1","1"]]}]}'
)

# Recorded after the runs above, each under --format text and json, so the
# older entries stay a prefix of the file.
EXTRA = (
    ["rigidity", "@F3"],
    ["rigidity", "@H8"],
    ["rigidity", "@NR"],
    ["rigidity", "@NR", "--expect-rigid"],  # irreducible, index 0: exit 1
    ["hypergeom", *HYPERGEOM["H3"]],
    ["hypergeom", *HYPERGEOM["H12"]],
    ["hypergeom", *HYPERGEOM["H3"], "--order", "6"],
    ["hypergeom", *HYPERGEOM["H3"], "--order", "0"],
    ["hypergeom", "--a", "1,1"],
    ["hypergeom", "--multiplicity", MULTIPLICITY],
    ["hypergeom", "--multiplicity", MULTIPLICITY, "--order", "6"],
    ["hypergeom", "--multiplicity", "@M3"],
    ["hypergeom", "--multiplicity", "@M3", "--order", "12"],
    ["weil", "--poly", WEIL_JSON, "--q", "2", "--w", "1"],
    ["weil", "--poly", "@W2", "--q", "2", "--w", "1"],
    ["jordan", "@F0", "--point", "9"],
    ["jordan", "@F0", "--point", "1/0"],
    ["hypergeom", "--a", "1", "--b", "zeta1001"],
    ["weil", "--poly", "X^2-3X+2", "--q", "6", "--w", "1"],
    ["weil", "--poly", "X^2-3X+2", "--q", "2", "--w", "1", "--tol", "0"],
    ["table1", "--max-i", "13"],
)


def _invoke(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _resolve(argv: list[str], paths: dict[str, str]) -> list[str]:
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def _non_rigid_input() -> str:
    from rigidcalc import ExactMatrix, make_tuple, serialization as ser

    rows = ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[-1, 0], [1, -1]])
    t = make_tuple(1, ["0", "1", "2"], [ExactMatrix.from_rows(r) for r in rows])
    return ser.canonical_dumps(ser.tuple_to_json(t)) + "\n"


def _record() -> dict:
    from rigidcalc import build_F, serialization as ser

    inputs = {f"F{i}": ser.canonical_dumps(ser.tuple_to_json(build_F(i))) + "\n" for i in range(7)}
    runs = []

    def run(argv, paths=None):
        code, stdout = _invoke(_resolve(argv, paths or {}))
        runs.append({"argv": argv, "code": code, "stdout": stdout})
        return code, stdout

    for fmt in ("text", "json"):
        run(["table1", "--max-i", "8", "--format", fmt])
    for name, params in HYPERGEOM.items():
        code, stdout = run(["hypergeom", *params])
        assert code == 0, name
        inputs[name] = stdout
    tuples = list(inputs)
    inputs.update(NR=_non_rigid_input(), M3=MULTIPLICITY + "\n", W2=WEIL_JSON + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in inputs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text, encoding="utf-8")
        for name in tuples:
            for command in TUPLE_COMMANDS:
                for fmt in ("text", "json"):
                    run([command[0], f"@{name}", *command[1:], "--format", fmt], paths)
        for params in WEIL:
            for fmt in ("text", "json"):
                run(["weil", *params, "--format", fmt])
        for argv in EXTRA:
            for fmt in ("text", "json"):
                run([*argv, "--format", fmt], paths)
    return {"inputs": inputs, "runs": runs}


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    document = _load()
    tmp = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, text in document["inputs"].items():
        paths[name] = str(tmp / f"{name}.json")
        Path(paths[name]).write_text(text, encoding="utf-8")
    return document, paths


def test_replay_matches_byte_for_byte(golden):
    document, paths = golden
    mismatches = []
    for entry in document["runs"]:
        code, stdout = _invoke(_resolve(entry["argv"], paths))
        if (code, stdout) != (entry["code"], entry["stdout"]):
            mismatches.append(" ".join(entry["argv"]))
    assert not mismatches, f"{len(mismatches)} invocations differ: {mismatches[:5]}"


def test_hypergeom_inputs_are_reproduced(golden):
    document, _ = golden
    made = {
        " ".join(e["argv"][1:]): e["stdout"] for e in document["runs"] if e["argv"][0] == "hypergeom"
    }
    for name, params in HYPERGEOM.items():
        assert made[" ".join(params)] == document["inputs"][name]


def test_golden_covers_every_tuple_and_command():
    document = _load()
    argvs = [e["argv"] for e in document["runs"]]
    tuples = 7 + len(HYPERGEOM)
    assert len(argvs) == (
        2 + len(HYPERGEOM) + tuples * len(TUPLE_COMMANDS) * 2 + 2 * len(WEIL) + 2 * len(EXTRA)
    )
    assert {a[1:] for argv in argvs for a in argv if a.startswith("@")} == set(document["inputs"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
