"""Every name a module lists in __all__ exists, so star imports work."""

import importlib

import pytest

MODULES = ("algebra", "apinterval", "asym", "characters", "cli", "exactcount")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"ffcount.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
    exec(f"from ffcount.{name} import *", {})
