"""No code in `src/fedsched` is reachable only from tests.

Every top-level function or class, every method and every class-level
field of a module must be referenced by name somewhere in the package: as
a name or attribute that is read, or in an import. A field set only by a
constructor keyword is written, not read.
A method (other than a property) counts as referenced only where it is
called, as `x.name(...)`, or named in a class body, as a handler table
names its handlers; so a field or local of the same name does not keep a
dead method alive. `__init__.py` only re-exports, so an export does not
count as a use. Dunder methods are left out: Python calls them without
naming them.

The check is by bare name, so it can miss dead code that shares a name with
live code of the same sort; what it reports is certainly unreferenced.
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
    # Item 6, "The benchmark change: complete the ladder and fix the tracer":
    # `perfbench/tracer.py` patches it to count calls until the tracer stops
    # reading it.
    "cluster.ClusterState.allocatable",
    # Item 6 too: `perfbench/child.py` builds its check records with it
    # until the checks read the log back as Events.
    "metrics.record_of",
}


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                yield name[:-3], ast.parse(handle.read(), filename=name)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_property(function):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in function.decorator_list)


def _definitions(module, tree):
    """(qualified name, bare name, is a method) of each top-level def and
    class, each method, and each class-level field. A property is a field."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", node.name, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            method = isinstance(item, _FUNCTIONS) and not _is_property(item)
            if isinstance(item, _FUNCTIONS):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names = [item.target.id]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{module}.{node.name}.{name}", name, method


def _references(tree):
    """Every name the module reads or imports. A name or attribute that is
    only assigned to, or passed as a keyword, is written, not referenced."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _method_references(tree):
    """Every attribute the module calls, and every name read in a class
    body outside its methods."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, _FUNCTIONS):
                    for inner in ast.walk(item):
                        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                            yield inner.id


def _unused(modules):
    referenced = {name for _, tree in modules for name in _references(tree)}
    called = {name for _, tree in modules for name in _method_references(tree)}
    return sorted(
        qualified
        for module, tree in modules
        for qualified, name, method in _definitions(module, tree)
        if name not in (called if method else referenced)
    )


def unreferenced():
    return _unused(list(_modules()))


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
        "    made: int = 0\n"
        "def fill(box):\n"
        "    box.written = box.kept\n"
        "fill(Box(made=1))\n"
    )
    assert _unused([("m", ast.parse(source))]) == ["m.Box.made", "m.Box.written"]


def test_a_method_named_like_another_class_field_is_unreferenced():
    source = (
        "class State:\n"
        "    def free(self):\n"
        "        return 0\n"
        "    def used(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "class Snapshot:\n"
        "    free: int = 0\n"
        "    def on_tick(self):\n"
        "        return 3\n"
        "    HANDLERS = {'tick': on_tick}\n"
        "def read(state, snapshot):\n"
        "    return snapshot.free + state.used() + state.size + snapshot.HANDLERS\n"
        "read(State(), Snapshot())\n"
    )
    assert _unused([("m", ast.parse(source))]) == ["m.State.free"]
