"""Every name a ual_lab module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ual_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(ual_lab.__path__)
                 if not info.ispkg)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"ual_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ual_lab.{name}.__all__ names undefined {missing}"
