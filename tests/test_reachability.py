"""No code in `src/fedsched` is reachable only from tests.

Every top-level function or class, every method and every class-level
field of a module must be referenced by name somewhere in the package: as
a name or attribute that is read, as a keyword argument, or in an import.
`__init__.py` only re-exports, so an export does not count as a use.
Dunder methods are left out: Python calls them without naming them.

The check is by bare name, so it can miss dead code that shares a name with
live code; what it reports is certainly unreferenced.
"""

import ast
import os

import pytest

import fedsched

PACKAGE = os.path.dirname(fedsched.__file__)

# Unreferenced on purpose: each waits for the ROADMAP item that uses it.
ALLOWED = {
    # "Explainable decisions and run counters": each election records the
    # staleness of every reserved target's aggregates.
    "federation.VirtualNode.staleness",
    # Item 4, "Memory that tracks live pods, not history": `fedsched report
    # --log events.jsonl` recomputes the metrics from a written log.
    "metrics.read_event_log",
}


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                yield name[:-3], ast.parse(handle.read(), filename=name)


def _definitions(module, tree):
    """(qualified name, bare name) of each top-level def and class, each
    method, and each class-level field."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{module}.{node.name}.{name}", name


def _references(tree):
    """Every name the module reads, passes as a keyword or imports. A name
    or attribute that is only assigned to is written, not referenced."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name


def unreferenced():
    modules = list(_modules())
    referenced = {name for _, tree in modules for name in _references(tree)}
    return sorted(
        qualified
        for module, tree in modules
        for qualified, name in _definitions(module, tree)
        if name not in referenced
    )


def test_every_definition_is_referenced_in_the_package():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_holds_only_unreferenced_names(name):
    # An allowlisted name that gains a caller leaves the list.
    assert name in unreferenced()


def test_a_write_only_field_is_unreferenced():
    source = (
        "class Box:\n"
        "    kept: int = 0\n"
        "    written: int = 0\n"
        "def fill(box):\n"
        "    box.written = box.kept\n"
        "fill(Box())\n"
    )
    tree = ast.parse(source)
    referenced = set(_references(tree))
    unused = [q for q, name in _definitions("m", tree) if name not in referenced]
    assert unused == ["m.Box.written"]
