"""The benchmark's scripts under ``perfbench/`` call the library by name.

An ``ast`` scan of every ``perfbench/*.py`` collects each ``hyperspace``
name the files import (``import hyperspace.cli``, ``from hyperspace.core
import from_dict``, ``from hyperspace import audit``) and each attribute
they reach on such a module (``audit.run_audit``, ``hyperspace.cli.main``),
and checks that every one still resolves, so removing or renaming a library
name the benchmark uses fails here rather than in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str):
    """The object a dotted ``hyperspace`` name denotes: a module, or an attribute of one."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def _dotted(node) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def library_names(source: str) -> set[str]:
    """Every ``hyperspace`` name a module's source imports or reaches as ``module.attr``."""
    tree = ast.parse(source)
    bound = {}  # a local name -> the hyperspace module it is bound to
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hyperspace":
                    names.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["hyperspace"] = "hyperspace"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hyperspace":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                names.add(full)
                bound[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            dotted = _dotted(node)
            head = dotted and dotted.split(".")[0]
            if head in bound:
                names.add(bound[head] + dotted[len(head):])
    return names


def test_the_scan_finds_imports_and_attributes():
    source = (
        "import hyperspace.cli\n"
        "from hyperspace.core import from_dict as fd\n"
        "def f():\n"
        "    from hyperspace import audit, core\n"
        "    return audit.run_audit, core.to_polar.__name__, hyperspace.cli.main, len\n"
    )
    assert library_names(source) == {
        "hyperspace.cli", "hyperspace.core.from_dict", "hyperspace.audit", "hyperspace.core",
        "hyperspace.audit.run_audit", "hyperspace.core.to_polar", "hyperspace.core.to_polar.__name__",
        "hyperspace.cli.main",
    }
    with pytest.raises(AttributeError):
        _resolve("hyperspace.space3.modulus3")


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_library_name_the_benchmark_uses_resolves(path):
    for name in sorted(library_names(path.read_text())):
        try:
            _resolve(name)
        except (AttributeError, ModuleNotFoundError) as error:
            pytest.fail(f"{path.name}: {name} does not resolve ({error})")
