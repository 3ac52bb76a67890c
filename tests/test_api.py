"""Every name a ual_lab module exports through ``__all__`` resolves, and the
package loads no more of scipy than its linear algebra."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ual_lab

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(info.name for info in pkgutil.iter_modules(ual_lab.__path__)
                 if not info.ispkg)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"ual_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ual_lab.{name}.__all__ names undefined {missing}"


def test_cli_import_loads_no_scipy_spatial():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, ual_lab.expcli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
