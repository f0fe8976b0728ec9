import importlib
import pkgutil

import pytest

import vmfourier

MODULES = [m.name for m in pkgutil.iter_modules(vmfourier.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"vmfourier.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
