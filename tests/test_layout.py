"""Modules under ``src/procmat`` share only public names: none imports a
single-underscore name from a sibling module through a relative import
(dunders such as ``__version__`` are allowed)."""

import ast
from pathlib import Path

import procmat


def private_relative_imports(source: str) -> list[tuple[str | None, str]]:
    """(module, name) of every relative import of a single-underscore name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder:
                    found.append((node.module, name))
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(procmat.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) >= 8
    offending = {path.name: private_relative_imports(path.read_text()) for path in sources}
    assert {name: names for name, names in offending.items() if names} == {}


def test_the_rule_flags_private_names_and_allows_dunders():
    source = (
        "from . import __version__, _private_module\n"
        "from .process import SepParams, _helper\n"
        "from numpy import _private_of_another_package\n"
        "import os\n"
    )
    assert private_relative_imports(source) == [(None, "_private_module"), ("process", "_helper")]
