import ast
import inspect
from pathlib import Path

import nadyn
import nadyn.errors
from nadyn.errors import NadynError

SRC = Path(nadyn.__file__).parent

# NeedsExtension is kept for callers that name it; its docstring says why.
UNRAISED_ON_PURPOSE = {"NadynError", "NeedsExtension"}


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
