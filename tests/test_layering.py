"""The import graph of the package, read from the source with ``ast``.

Every ``import`` statement counts, wherever it stands.  One at the top of a
module, or in a class body, runs when the module is loaded; those edges
must form no cycle.  No module of the package imports another inside a
function, where a call-time import could hide a cycle.  The Weil decision
takes its pseudo-divisions in one place, so a second remainder loop cannot
return unnoticed; only dot convolves numerators; only monodromy keys the
rank-sequence memo; a tuple's generators are reduced mod p where it is
built, so Norton's test and the F_p closure cannot reduce them again;
only cyclotomic forms lcm(2, N), the order of the roots of unity of
Q(zeta_N), so every reader of a tuple's local data sees one set; and only
cyclotomic._lift_to_common takes an lcm of values' orders, so every site
that brings values of several orders into one field refuses an order
below 1 alike.  The JSON parsers format an error message only when a check
fails, so no valid document pays for one.  The rank sequences are ranked at the matrix's own
order and called with the matrix alone, so no caller can key them by a
second order again; and every private helper is used somewhere in the
package besides its own body, so dead helpers cannot pile up.  One
helper, monodromy._blocks, turns a matrix's rank sequences into Jordan
blocks; besides it only is_quasi_unipotent and centralizer_dim read the
sequences, and convolution reads none of them, so Katz reduction and
jordan_type see the same blocks.  katz_reduce builds tuples only through
the exact katz_reduce_step, so every later step stays a plan on those
blocks.
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
    # The one rank-sequence table of a matrix is monodromy's alone; linalg
    # only creates the empty slot.
    for path in PACKAGE.glob("*.py"):
        uses = references(ast.parse(path.read_text()), "_sequences")
        if path.stem == "linalg":
            assert uses == ["__init__"]
        elif path.stem != "monodromy":
            assert uses == [], path
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert set(references(monodromy, "_sequences")) == {"_rank_sequences"}


def test_only_monodromy_touches_the_residue_memo():
    # A matrix's residue rows and charpoly mod p are filled and read by
    # monodromy._reduced alone; linalg only creates the empty slot.
    for path in PACKAGE.glob("*.py"):
        uses = references(ast.parse(path.read_text()), "_residues")
        if path.stem == "linalg":
            assert uses == ["__init__"]
        elif path.stem != "monodromy":
            assert uses == [], path
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert set(references(monodromy, "_residues")) == {"_reduced"}


def test_only_monodromy_touches_the_irreducibility_memo():
    for path in PACKAGE.glob("*.py"):
        if path.stem != "monodromy":
            assert references(ast.parse(path.read_text()), "_irreducible") == [], path
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert set(references(monodromy, "_irreducible")) == {"__init__", "is_absolutely_irreducible"}


def test_generators_are_reduced_once_per_tuple():
    sample = ast.parse("class C:\n    def f(self):\n        modp.rows(m)\n        m.rows\ndef g():\n    h = modp.rows\n")
    assert attribute_uses(sample, "modp", "rows") == ["C.f", "g"]
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert attribute_uses(monodromy, "modp", "rows") == ["_reduced"]
    # the one other charpoly mod p is that of Norton's product A_r ... A_1
    assert attribute_uses(monodromy, "modp", "charpoly") == ["_reduced", "_norton_mod_p"]
    for path in PACKAGE.glob("*.py"):
        if path.stem != "monodromy":
            assert references(ast.parse(path.read_text()), "_reduction") == [], path
    assert set(references(monodromy, "_reduction")) == {"_spans_all_matrices_mod_p", "_norton_mod_p"}


def lcm_calls(tree: ast.AST, matches) -> list[str | None]:
    """The innermost function around each call of ``lcm``, bare or as an
    attribute, with an argument for which ``matches`` holds; None outside
    any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", getattr(child.func, "id", None)) == "lcm"
                and any(matches(arg) for arg in child.args)
            ):
                found.append(scope)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(tree, None)
    return found


def lcm_with_two(tree: ast.AST) -> list[str | None]:
    """lcm_calls with a literal 2 among the arguments."""
    return lcm_calls(tree, lambda arg: isinstance(arg, ast.Constant) and arg.value == 2)


def lcm_of_orders(tree: ast.AST) -> list[str | None]:
    """lcm_calls with an ``.order`` attribute anywhere in an argument."""
    return lcm_calls(tree, lambda arg: any(getattr(node, "attr", None) == "order" for node in ast.walk(arg)))


def test_only_cyclotomic_forms_the_order_of_its_roots_of_unity():
    sample = ast.parse("def f():\n    math.lcm(2, n)\n    lcm(n, 2)\n    math.lcm(4, n)\nm = lcm(2, k, n)\n")
    assert lcm_with_two(sample) == ["f", "f", None]
    for path in PACKAGE.glob("*.py"):
        uses = lcm_with_two(ast.parse(path.read_text()))
        assert uses == (["_unity_order"] if path.stem == "cyclotomic" else []), path


def test_only_cyclotomic_takes_the_lcm_of_orders():
    sample = ast.parse(
        "def f():\n    math.lcm(a.order, b.order)\n    lcm(n, *(v.order for v in vs))\n"
        "    math.lcm(*dens)\n    lcm(2, n)\n    x.order * y.order\nm = lcm(order, x.order)\n"
    )
    assert lcm_of_orders(sample) == ["f", "f", None]
    for path in PACKAGE.glob("*.py"):
        uses = lcm_of_orders(ast.parse(path.read_text()))
        assert uses == (["_lift_to_common"] if path.stem == "cyclotomic" else []), path


def call_arities(tree: ast.AST, name: str) -> list[int]:
    """The number of arguments, positional and keyword, of each call of
    ``name``, bare or as an attribute, in walk order."""
    return [
        len(node.args) + len(node.keywords)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_rank_sequences_take_the_matrix_alone():
    sample = ast.parse("f(m)\nmonodromy.f(m, 4)\nf(m, order=2)\ng(m, 2)\n")
    assert call_arities(sample, "f") == [1, 2, 2]
    arities = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        arities += call_arities(tree, "_rank_sequences")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_rank_sequences":
                assert len(node.args.args) == 1 and not node.args.kwonlyargs, path
    assert arities and set(arities) == {1}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree: ast.Module) -> list[ast.AST]:
    """Each private module-level function or class, and each private method
    of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and is_private(node.name):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [
                child for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and is_private(child.name)
            ]
    return found


def uses_outside(trees: list[ast.AST], definition: ast.AST) -> int:
    """Uses of the defined name, bare or as an attribute, anywhere in the
    trees except inside the definition itself."""
    count = 0
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if definition.name in (getattr(node, "id", None), getattr(node, "attr", None)):
            count += 1
        stack.extend(ast.iter_child_nodes(node))
    return count


def test_every_private_helper_is_used():
    sample = ast.parse(
        "def _used(): pass\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Kept:\n    def _method(self): return self._method()\n    def __init__(self): pass\n"
        "def public(): return _used(), _Kept()\n"
    )
    unused = [d.name for d in private_definitions(sample) if not uses_outside([sample], d)]
    assert unused == ["_recursive", "_method"]
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    definitions = [d for tree in trees for d in private_definitions(tree)]
    assert len(definitions) > 50
    assert [d.name for d in definitions if not uses_outside(trees, d)] == []


def reachable(tree: ast.Module, start: str, avoid: str | None = None) -> set[str]:
    """The module-level functions that ``start`` calls or names, bare or as
    an attribute, directly or through others, never entering ``avoid``."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found, stack = set(), [start]
    while stack:
        name = stack.pop()
        if name in found or name == avoid:
            continue
        found.add(name)
        for node in ast.walk(functions[name]):
            used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used in functions:
                stack.append(used)
    return found


def test_katz_reduce_convolves_only_through_the_exact_step():
    sample = ast.parse("def a():\n    b()\n    x.d\ndef b():\n    e()\ndef d():\n    a()\ndef e(): pass\n")
    assert reachable(sample, "a") == {"a", "b", "d", "e"}
    assert reachable(sample, "a", avoid="b") == {"a", "d"}
    convolution = ast.parse((PACKAGE / "convolution.py").read_text())
    assert references(convolution, "_rank_sequences") == []
    assert references(convolution, "_blocks_at_least") == []
    monodromy = ast.parse((PACKAGE / "monodromy.py").read_text())
    assert set(references(monodromy, "_rank_sequences")) == {"_blocks", "is_quasi_unipotent", "centralizer_dim"}
    built = {"middle_convolution", "tensor_rank_one"}
    assert built <= reachable(convolution, "katz_reduce")
    assert not built & reachable(convolution, "katz_reduce", avoid="katz_reduce_step")
