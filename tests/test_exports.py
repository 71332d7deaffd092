"""Every exported name resolves, so ``from wlcusum.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import wlcusum

MODULES = ["wlcusum", *(f"wlcusum.{m.name}" for m in pkgutil.iter_modules(wlcusum.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"
