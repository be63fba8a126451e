"""The import graph of the package, read from the source with ``ast``.

Every ``import`` statement counts, wherever it stands.  One at the top of a
module, or in a class body, runs when the module is loaded; those edges
must form no cycle.  No module of the package imports another inside a
function, where a call-time import could hide a cycle.  The Weil decision
takes its pseudo-divisions in one place, so a second remainder loop cannot
return unnoticed; only dot convolves numerators; only monodromy keys the
rank-sequence memo; and a tuple's generators are reduced mod p where it is
built, so Norton's test and the F_p closure cannot reduce them again.  The
JSON parsers format an error message only when a check fails, so no valid
document pays for one.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rigidcalc"


def imported_names(node: ast.AST) -> set[str]:
    """Absolute names an import statement imports (relative ones resolved)."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        module = ("rigidcalc." if node.level else "") + (node.module or "")
        if node.module is None:  # from . import a, b
            return {module + alias.name for alias in node.names}
        return {module}
    return set()


def imports(tree: ast.AST) -> set[tuple[str, str | None]]:
    """(name, function) for every import in a parsed module; function is
    None for an import that runs at load time."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found.update((name, scope) for name in imported_names(child))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(tree, None)
    return found


def references(tree: ast.AST, name: str) -> list[str | None]:
    """The innermost function around each use of ``name``, bare or as an
    attribute, in source order; None outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "attr", None) == name or getattr(child, "id", None) == name:
                found.append(scope)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(tree, None)
    return found


def attribute_uses(tree: ast.AST, owner: str, name: str) -> list[str | None]:
    """The qualified name (Class.method) of the innermost function or class
    around each use of ``owner.name``, in source order; None at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "attr", None) == name and getattr(child.value, "id", None) == owner:
                found.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, None)
    return found


def module_imports(path: Path) -> set[tuple[str, str | None]]:
    return imports(ast.parse(path.read_text()))


def package_edges() -> set[tuple[str, str, str | None]]:
    """(importer, imported, function) for each import of a package module."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    edges = set()
    for name, path in modules.items():
        for imported, scope in module_imports(path):
            parts = imported.split(".")
            if parts[0] == "rigidcalc" and len(parts) > 1 and parts[1] in modules:
                edges.add((name, parts[1], scope))
    return edges


def package_graph() -> dict[str, set[str]]:
    """The load-time edges, module by module."""
    graph = {path.stem: set() for path in PACKAGE.glob("*.py")}
    for importer, imported, scope in package_edges():
        if scope is None:
            graph[importer].add(imported)
    return graph


def test_the_package_is_found():
    graph = package_graph()
    assert {"modp", "monodromy", "purity", "cyclotomic", "linalg"} <= graph.keys()
    assert "modp" in graph["monodromy"] and "modp" in graph["purity"]


def test_imports_inside_functions_are_seen():
    tree = ast.parse("import a\nclass C:\n    import b\n    def f(self):\n        from . import c\n")
    assert imports(tree) == {("a", None), ("b", None), ("rigidcalc.c", "f")}


def test_no_function_level_package_import():
    assert {edge for edge in package_edges() if edge[2] is not None} == set()


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
    assert {imported for importer, imported, _ in package_edges() if importer == "modp"} <= {"poly"}


def test_cyclotomic_imports_only_poly_and_errors_from_the_package():
    imported = {edge[1] for edge in package_edges() if edge[0] == "cyclotomic"}
    assert imported == {"poly", "errors"}


def test_nothing_imports_the_benchmark():
    for path in PACKAGE.glob("*.py"):
        assert not any(name.split(".")[0] == "perfbench" for name, _ in module_imports(path)), path


def test_one_pseudo_division_in_purity():
    nested = ast.parse("def f():\n    poly.pseudo_divmod(a, b)\n    def g():\n        pseudo_divmod(a, b)\n")
    assert references(nested, "pseudo_divmod") == ["f", "g"]
    purity = ast.parse((PACKAGE / "purity.py").read_text())
    assert references(purity, "pseudo_divmod") == ["_remainder_sequence"]


def test_only_dot_convolves_numerators():
    for path in PACKAGE.glob("*.py"):
        uses = references(ast.parse(path.read_text()), "_convolve_into")
        assert uses == (["dot"] if path.stem == "cyclotomic" else []), path


def eager_require_messages(tree: ast.AST) -> list[tuple[int, bool]]:
    """(line, eager) for each ``_require`` call; eager when its message, the
    second argument, contains an f-string, built even when the check holds."""
    return [
        (node.lineno, any(isinstance(part, ast.JoinedStr) for part in ast.walk(node.args[1])))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"
    ]


def test_require_messages_are_formatted_only_on_failure():
    sample = ast.parse('_require(a, f"bad {x!r}")\n_require(a, "bad {!r}", x)\n_require(a, "n" + f"{x}")\n')
    assert eager_require_messages(sample) == [(1, True), (2, False), (3, True)]
    calls = eager_require_messages(ast.parse((PACKAGE / "serialization.py").read_text()))
    assert calls and [line for line, eager in calls if eager] == []


def test_only_monodromy_touches_the_rank_sequence_memo():
    # The memo key of the rank sequences is monodromy's policy alone;
    # linalg only creates the empty slot.
    for path in PACKAGE.glob("*.py"):
        uses = references(ast.parse(path.read_text()), "_sequences")
        if path.stem == "linalg":
            assert uses == ["__init__"]
        elif path.stem != "monodromy":
            assert uses == [], path
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert set(references(monodromy, "_sequences")) == {"_rank_sequences"}


def test_generators_are_reduced_once_per_tuple():
    sample = ast.parse("class C:\n    def f(self):\n        modp.rows(m)\n        m.rows\ndef g():\n    h = modp.rows\n")
    assert attribute_uses(sample, "modp", "rows") == ["C.f", "g"]
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert attribute_uses(monodromy, "modp", "rows") == ["MonodromyTuple.__init__", "_rank_sequences"]
    for path in PACKAGE.glob("*.py"):
        if path.stem != "monodromy":
            assert references(ast.parse(path.read_text()), "_reduction") == [], path
    assert set(references(monodromy, "_reduction")) == {
        "__init__", "_spans_all_matrices_mod_p", "_norton_mod_p"
    }
