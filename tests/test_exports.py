"""Every exported name resolves, so ``from wlcusum.<module> import *`` works,
and the package re-exports each module's public names exactly once."""

import importlib
import pkgutil

import pytest

import wlcusum

SUBMODULES = [f"wlcusum.{m.name}" for m in pkgutil.iter_modules(wlcusum.__path__)]
MODULES = ["wlcusum", *SUBMODULES]


def _exported(name):
    return getattr(importlib.import_module(name), "__all__", ())


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what it does not define"


def test_no_name_exported_by_two_modules():
    # the package star-imports every module, so a shared name would shadow silently
    owners = {}
    for name in SUBMODULES:
        for n in _exported(name):
            owners.setdefault(n, []).append(name)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def test_package_exports_every_module_name_once():
    assert len(wlcusum.__all__) == len(set(wlcusum.__all__))
    assert set(wlcusum.__all__) == {n for name in SUBMODULES for n in _exported(name)} | {
        "__version__"}
