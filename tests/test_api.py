"""Public-API guard: every name a module lists in ``__all__`` resolves, and
every exported function and class documents itself."""

import dataclasses
import inspect

import pytest

import ddestab
from ddestab import mol


@pytest.mark.parametrize("module", [ddestab, mol], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def own_docstring(obj):
    """The docstring written for ``obj`` itself: a class's own, not one it
    inherits, and not the ``Name(field, ...)`` signature that
    :func:`dataclasses.dataclass` fills in for a class without one."""
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    if doc and dataclasses.is_dataclass(obj) and doc.startswith(obj.__name__ + "("):
        return None
    return doc


@pytest.mark.parametrize("module", [ddestab, mol], ids=lambda m: m.__name__)
def test_every_exported_function_and_class_has_a_docstring(module):
    undocumented = [
        name for name in module.__all__
        if (inspect.isclass(obj := getattr(module, name)) or inspect.isfunction(obj))
        and not (own_docstring(obj) or "").strip()
    ]
    assert undocumented == []
