"""Public-API guard: every name a module lists in ``__all__`` resolves."""

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
