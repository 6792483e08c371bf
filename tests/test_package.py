"""Package hygiene: no module-level function or class goes unused, no
function grows past a screenful, and the package does not grow past its
recorded size."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import uman

SRC = Path(__file__).resolve().parents[1] / "src" / "uman"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def names_in(node) -> Counter:
    """Every identifier ``node`` reads, looks up as an attribute or imports."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_definition_is_named_elsewhere_or_exported():
    named = sum((names_in(tree) for tree in MODULES.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # a definition's mentions of itself, recursion included, do not count
        and named[node.name] == names_in(node)[node.name]
        and node.name not in exported(tree)
    ]
    assert unused == []


def test_each_public_module_is_the_package_attribute_of_its_name():
    # a name the package re-exports from a submodule must not shadow a submodule
    public = [name for name in MODULES if not name.startswith("_")]
    modules = {name: importlib.import_module(f"uman.{name}") for name in public}
    assert [name for name in public if getattr(uman, name) is not modules[name]] == []


# a function longer than this is split into named steps
MAX_FUNCTION_LINES = 80


def test_no_function_exceeds_the_line_budget():
    long = [
        f"{module}.{node.name}: {node.end_lineno - node.lineno} lines"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno > MAX_FUNCTION_LINES
    ]
    assert long == []


# lines of src/uman when the budget was set; a change that grows the package
# raises this figure and says why
MAX_PACKAGE_LINES = 2989


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= MAX_PACKAGE_LINES, f"src/uman holds {lines} lines, over its budget of {MAX_PACKAGE_LINES}"
