"""Every name a module lists in __all__ exists, so `import *` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["kamtori", "kamtori.jets",
                                    "kamtori.arithmetic", "kamtori.poisson"])
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
