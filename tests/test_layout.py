"""The package's layout.

- Modules under ``src/procmat`` share only public names: none imports a
  single-underscore name from a sibling module through a relative import
  (dunders such as ``__version__`` are allowed).
- Every package name the benchmark in ``bench/`` reads exists, and every call
  it makes binds to the function's signature; read with ``ast``, without
  importing the benchmark.
- Importing the package and its CLI loads no process pool.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procmat
import procmat.optimizer as optimizer


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


# ---------------------------------------------------------------------------
# The benchmark's contract: what bench/ reads of the package
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: the package modules the benchmark imports
BENCH_MODULES = ("cli", "instruments", "operators", "optimizer", "process", "stats")
needs_bench = pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")


def attribute_chain(node: ast.AST) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``; None for any other."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not names:
        return None
    return [node.id, *reversed(names)]


def package_uses(source: str) -> tuple[list[str], list[tuple[str, int, tuple[str, ...]]]]:
    """The package attributes a source file reads, as dotted paths from
    ``procmat``, and its calls of them as (path, positional count, keyword
    names); calls with ``*`` or ``**`` arguments are left out of the calls.

    A module is reached through ``import procmat.<module> as <alias>`` or
    through the dotted name ``procmat.<module>``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name.split(".")[1]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname and alias.name.startswith("procmat.")
    }

    def path(node: ast.AST) -> str | None:
        chain = attribute_chain(node)
        if chain is None:
            return None
        if chain[0] in aliases:
            chain = [aliases[chain[0]], *chain[1:]]
        elif chain[0] == "procmat" and len(chain) > 2 and chain[1] in BENCH_MODULES:
            chain = chain[1:]
        else:
            return None
        return ".".join(chain) if chain[0] in BENCH_MODULES else None

    attributes = sorted({p for node in ast.walk(tree) if (p := path(node)) is not None})
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (p := path(node.func)) is not None:
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            if not starred and all(kw.arg is not None for kw in node.keywords):
                calls.append((p, len(node.args), tuple(kw.arg for kw in node.keywords)))
    return attributes, calls


def resolve(path: str):
    obj = importlib.import_module("procmat." + path.split(".")[0])
    for name in path.split(".")[1:]:
        obj = getattr(obj, name)
    return obj


def resolves(path: str) -> bool:
    try:
        resolve(path)
    except AttributeError:
        return False
    return True


@needs_bench
def test_every_package_name_the_benchmark_uses_exists_and_binds():
    attributes, calls = [], []
    for name in ("workloads.py", "test_bench.py"):
        found, made = package_uses((BENCH / name).read_text())
        attributes += found
        calls += made
    assert len(calls) >= 40
    missing = [p for p in attributes if not resolves(p)]
    assert missing == []
    for p, positional, keywords in calls:
        signature = inspect.signature(resolve(p))
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@needs_bench
def test_every_span_target_and_the_engine_constructor_exist():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]
    ]
    assert len(targets) >= 10
    for module, name, _ in targets:
        assert callable(getattr(importlib.import_module(module), name))
    assert "__init__" in vars(optimizer._Engine)


def test_the_rules_read_aliases_dotted_names_and_calls():
    source = (
        "import procmat.process as process\n"
        "import procmat.cli\n"
        "process.separable_from_params(p, 1e-10).mixture\n"
        "procmat.cli.main(argv)\n"
        "process.SepParams.from_flat_map(data)\n"
        "state.process.f(x)\n"
        "process.f(*args)\n"
    )
    attributes, calls = package_uses(source)
    assert attributes == [
        "cli.main", "process.SepParams", "process.SepParams.from_flat_map", "process.f",
        "process.separable_from_params",
    ]
    assert sorted(calls) == [
        ("cli.main", 1, ()), ("process.SepParams.from_flat_map", 1, ()),
        ("process.separable_from_params", 2, ()),
    ]


# ---------------------------------------------------------------------------
# Import cost
# ---------------------------------------------------------------------------


def test_importing_the_package_and_cli_loads_no_process_pool():
    # only multistart(jobs > 1) uses the pool, and it imports it there
    code = (
        "import sys, procmat, procmat.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    src = str(Path(procmat.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
