"""The import graph of the package, read from the source with ``ast``.

Only top-level imports count: those a module runs when it is loaded.  An
import inside a function body runs at call time and cannot form a load-time
cycle, so it is not an edge here; ``cyclotomic._compute_canonical`` imports
``linalg`` that way, and this check does not see it.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rigidcalc"


def top_level_imports(path: Path) -> set[str]:
    """Absolute names imported by the module body (relative ones resolved)."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("rigidcalc." if node.level else "") + (node.module or "")
            if node.module is None:  # from . import a, b
                names.update(module + alias.name for alias in node.names)
            else:
                names.add(module)
    return names


def package_graph() -> dict[str, set[str]]:
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        imported = top_level_imports(path)
        graph[name] = {m.split(".")[1] for m in imported
                       if m.startswith("rigidcalc.") and m.split(".")[1] in modules}
    return graph


def test_the_package_is_found():
    graph = package_graph()
    assert {"modp", "monodromy", "purity", "cyclotomic", "linalg"} <= graph.keys()
    assert "modp" in graph["monodromy"] and "modp" in graph["purity"]


def test_no_import_cycle():
    graph = package_graph()
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, " -> ".join(path + [name])
        if name not in done:
            for child in sorted(graph[name]):
                visit(child, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_modp_imports_only_poly_from_the_package():
    assert package_graph()["modp"] <= {"poly"}


def test_nothing_imports_the_benchmark():
    for path in PACKAGE.glob("*.py"):
        assert not any(name.split(".")[0] == "perfbench" for name in top_level_imports(path)), path
