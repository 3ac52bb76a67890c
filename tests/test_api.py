"""Every name a ual_lab module exports through ``__all__`` resolves, the
package runs its LAPACK calls without loading the scipy.linalg or
scipy.spatial packages, the CLI loads no XML, network, mail or
numpy.polynomial module, and a built package ships its configs and schemas."""

import importlib
import os
import pkgutil
import shutil
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


def _fresh_stdout(code, root=SRC):
    """What ``code`` prints in a fresh interpreter that imports ual_lab from ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root), env.get("PYTHONPATH")) if p)
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


def test_built_package_ships_its_configs_and_schemas(tmp_path):
    # shipped ids are found as plain files next to the modules, so the
    # package-data globs in pyproject.toml must copy them into a build;
    # the build runs on a copy, as build_py writes an .egg-info beside the sources
    shutil.copy(SRC.parent / "pyproject.toml", tmp_path)
    shutil.copytree(SRC, tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    lib = tmp_path / "lib"
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "build_py", "--build-lib", str(lib)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code = """
import ual_lab
from ual_lab.datasets import load_schema
from ual_lab.expcli import shipped_experiments
print(ual_lab.__file__)
print(sorted(shipped_experiments()))
print(load_schema("concrete").target, load_schema("facebook").delimiter)
"""
    module, ids, schemas = _fresh_stdout(code, root=lib).splitlines()
    assert Path(module).is_relative_to(lib)
    assert ids == str(sorted([
        "fig1_motivating", "fig2_matched", "fig3_fig4_bpr_degrees", "fig5_discrepancy",
        "fig6_early_stage", "fig7_gpr_kernels", "fig8_facebook", "fig9_concrete",
        "fig10_direct_mse", "fig11_upper_bound"]))
    assert schemas == "csMPa ;"
