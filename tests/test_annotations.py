"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming something the module never binds only fails when a tool evaluates it.
"""

import importlib
import inspect
import pkgutil
import typing

import pytest

import hyperspace

# __main__ runs the CLI on import and defines nothing
MODULES = sorted(m.name for m in pkgutil.iter_modules(hyperspace.__path__, "hyperspace.") if m.name != "hyperspace.__main__")


def functions(module):
    """(qualified name, function) of every function and method written in the
    module: not imported, nor generated, as ``NamedTuple``'s ``__new__`` is."""
    for name, obj in vars(module).items():
        members = [(f"{name}.{attr}", m) for attr, m in vars(obj).items()] if inspect.isclass(obj) else [(name, obj)]
        for qualname, member in members:
            f = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
            if inspect.isfunction(f) and f.__globals__ is vars(module):
                yield qualname, f


@pytest.mark.parametrize("name", MODULES)
def test_every_function_annotation_resolves(name):
    module = importlib.import_module(name)
    found = list(functions(module))
    assert found or name == "hyperspace._version"
    for qualname, f in found:
        try:
            typing.get_type_hints(f)
        except Exception as exc:
            pytest.fail(f"{name}.{qualname}: {exc!r}")


def test_the_probe_sees_an_unresolved_annotation():
    # the control: an annotation naming an unbound name is reported
    namespace = {}
    exec("from __future__ import annotations\ndef f() -> Missing: pass", namespace)
    with pytest.raises(NameError):
        typing.get_type_hints(namespace["f"])
