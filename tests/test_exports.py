"""Every name that gssd or one of its submodules lists in ``__all__`` is defined there,
so deleting a function cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import gssd

MODULES = ["gssd"] + [f"gssd.{info.name}" for info in pkgutil.iter_modules(gssd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []
