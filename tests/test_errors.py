import ast
import inspect
from pathlib import Path

import nadyn
import nadyn.errors
from nadyn.errors import NadynError

SRC = Path(nadyn.__file__).parent

UNRAISED_ON_PURPOSE = {"NadynError"}


def _raised_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_has_a_raise_site():
    types = {
        name
        for name, obj in vars(nadyn.errors).items()
        if inspect.isclass(obj) and issubclass(obj, NadynError)
    }
    assert UNRAISED_ON_PURPOSE <= types
    assert sorted(types - UNRAISED_ON_PURPOSE - _raised_names()) == []


def _private_definitions(tree: ast.Module):
    """(name, node) of each private top-level function or class and each
    private method of a top-level class; dunder methods are public hooks."""
    for node in tree.body:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += node.body
        for d in defs:
            if (
                isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and d.name.startswith("_")
                and not d.name.endswith("__")
            ):
                yield d.name, d


def _references(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(kind, name, node id) of every bare name, attribute and imported name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(("name", node.id, id(node)))
        elif isinstance(node, ast.Attribute):
            out.append(("attr", node.attr, id(node)))
        elif isinstance(node, ast.ImportFrom):
            # "from .polys import _primitive" refers to a name of polys
            module = (node.module or "").split(".")[-1]
            out += [(f"import {module}", alias.name, id(node)) for alias in node.names]
    return out


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node


def _public_methods(tree: ast.Module):
    """(Class.name, node) of each public method or property of a public
    top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and not d.name.startswith("_"):
                    yield f"{node.name}.{d.name}", d


def _unreferenced(definitions) -> list[str]:
    """module.name of each definition that nothing in src/nadyn references;
    a reference from inside the definition's own body does not count, and an
    import into nadyn/__init__ does.  A method (Class.name) is referenced by
    attribute only."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    unused = []
    for stem, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            inside = {id(n) for n in ast.walk(node)}
            method = name != qualname
            kinds = {"attr"} if method else {"attr", f"import {stem}"}
            if not any(
                ref_name == name
                and ref_id not in inside
                and (kind in kinds or (kind == "name" and other == stem and not method))
                for other, found in refs.items()
                for kind, ref_name, ref_id in found
            ):
                unused.append(f"{stem}.{qualname}")
    return sorted(unused)


def test_every_private_helper_is_used_in_the_package():
    # a private helper that only tests reach is dead code with a test
    assert _unreferenced(_private_definitions) == []


# bench/tracer.py wraps these by name as parts of its layers, so they stay
# in the package until the tracer stops naming them; the set must stay exact
TRACED_ONLY = {"redux.make_map", "redux.sylvester_resultant", "redux.precompose", "redux.postcompose"}


def test_every_public_helper_is_used_or_exported():
    # a public function or class that neither the package nor nadyn/__init__
    # uses is a helper for tests; it belongs in tests/conftest.py
    assert _unreferenced(_public_definitions) == sorted(TRACED_ONLY)


def test_every_public_method_is_used_in_the_package():
    # a public method or property that nothing in the package calls outside
    # its own body is a helper for tests; it belongs in tests/conftest.py
    assert _unreferenced(_public_methods) == []


# ROADMAP aim 2 holds src/nadyn to a line budget; this is the one place the
# number lives, so a change that outgrows it has to make room first
LINE_BUDGET = 4053


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/nadyn/*.py has {lines} lines; the budget is {LINE_BUDGET}"
