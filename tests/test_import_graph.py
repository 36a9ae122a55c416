"""The package's import graph, read from its source: imports at module level only, and no cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import fourierknot

PACKAGE = Path(fourierknot.__file__).parent
SOURCES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def function_local_imports(tree):
    """(function name, line) of every import inside a function or method body."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(fn.name, node.lineno) for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


def package_imports(tree):
    """The sibling modules a module imports (all at module level: test_no_function_body_imports)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fourierknot."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("fourierknot."))
    return out & SOURCES.keys()


def test_no_function_body_imports():
    found = {name: spots for name, tree in SOURCES.items() if (spots := function_local_imports(tree))}
    assert found == {}


def test_package_imports_form_an_acyclic_graph():
    graph = {name: package_imports(tree) for name, tree in SOURCES.items()}
    assert "phases" in graph and "phases" not in graph["render"]  # phases imports render, not the reverse
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        raise AssertionError(f"import cycle: {err.args[1]}") from None
