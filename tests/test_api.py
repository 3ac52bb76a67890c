"""Every name a ual_lab module exports through ``__all__`` resolves, the
package runs its LAPACK calls without loading the scipy.linalg or
scipy.spatial packages, and the CLI loads no XML, network, mail or
numpy.polynomial module."""

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


def _fresh_stdout(code):
    """What ``code`` prints in a fresh interpreter that imports ual_lab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_cli_and_its_solves_load_no_scipy_linalg_or_spatial_package():
    code = """
import sys
import numpy as np
import ual_lab.expcli
from ual_lab.linalg import chol_solve_vec, one_blas_thread, solve_lower
with one_blas_thread():
    solve_lower(np.eye(2), np.ones(2))
    chol_solve_vec(np.eye(2), np.ones(2))
print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.spatial"))))
import scipy.linalg
print(scipy.linalg._flapack.dpotrs is scipy.linalg.lapack.dpotrs)
"""
    assert _fresh_stdout(code).split() == ["[]", "True"]


def test_cli_loads_no_xml_network_or_mail_module():
    # the charts escape their text with html.escape: xml.sax.saxutils would
    # pull in urllib.request, http.client, ssl and email
    code = """
import sys
import ual_lab.expcli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("xml", "ssl", "http", "email")))
"""
    assert _fresh_stdout(code).split() == ["[]"]


def test_cli_loads_no_numpy_polynomial_module():
    # targets are evaluated with numpy core's np.polyval
    code = """
import sys
import ual_lab.expcli
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    assert _fresh_stdout(code).split() == ["[]"]
