import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError, cho_solve, solve_triangular

from ual_lab.errors import NumericalError
from ual_lab import linalg
from ual_lab.linalg import chol_solve_vec, chol_spd, solve_lower


def _factor(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return np.linalg.cholesky(a @ a.T + n * np.eye(n))


@pytest.mark.parametrize("n", [*range(1, 8), 200])
def test_chol_solve_vec_equals_cho_solve_bitwise(n):
    rng = np.random.default_rng(n)
    lower = _factor(n, rng)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
        got = chol_solve_vec(lower, b)
        want = cho_solve((lower, True), b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["factor_lower", "factor_upper", "vector", "matrix"])
def test_chol_solve_vec_rejects_non_finite_input(bad, where):
    lower = _factor(4, np.random.default_rng(0))
    b = np.ones(4)
    if where == "factor_lower":
        lower[2, 1] = bad
    elif where == "factor_upper":
        lower[0, 3] = bad
    elif where == "vector":
        b[3] = bad
    else:
        b = np.eye(4)
        b[1, 2] = bad
    with pytest.raises(ValueError, match="not finite"):
        chol_solve_vec(lower, b)


@pytest.mark.parametrize("n", [*range(1, 8), 200])
def test_solve_lower_equals_solve_triangular_bitwise(n):
    rng = np.random.default_rng(n)
    lower = _factor(n, rng)  # C-ordered, as numpy's cholesky returns it
    for factor in (lower, np.asfortranarray(lower)):
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
            got = solve_lower(factor, b)
            want = solve_triangular(factor, b, lower=True)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["factor", "vector", "matrix"])
def test_solve_lower_rejects_non_finite_input(bad, where):
    lower = _factor(4, np.random.default_rng(0))
    b = np.ones(4)
    if where == "factor":
        lower[2, 1] = bad
    elif where == "vector":
        b[3] = bad
    else:
        b = np.eye(4)
        b[1, 2] = bad
    with pytest.raises(ValueError, match="not finite"):
        solve_lower(lower, b)


def test_solve_lower_checks_shapes_and_singularity():
    lower = _factor(4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="not square"):
        solve_lower(lower[:, :3], np.ones(4))
    with pytest.raises(ValueError, match="incompatible"):
        solve_lower(lower, np.ones(3))
    assert solve_lower(lower, np.ones((4, 0))).shape == (4, 0)
    lower[2, 2] = 0.0
    with pytest.raises(LinAlgError, match="singular matrix: resolution failed at diagonal 2"):
        solve_lower(lower, np.ones(4))


def test_flapack_loads_beside_an_imported_scipy_linalg():
    # scipy.linalg is imported here, so its _flapack entry must stay in place
    own = sys.modules["scipy.linalg._flapack"]
    module = linalg._load_flapack()
    assert sys.modules["scipy.linalg._flapack"] is own is scipy.linalg._flapack
    assert module.dtrtrs is linalg._flapack.dtrtrs is scipy.linalg.lapack.dtrtrs


def test_chol_spd_raises_on_a_singular_matrix_naming_its_size():
    x = np.linspace(-1.0, 1.0, 5)
    gram = 1.0 + np.outer(x, x)  # a noiseless linear kernel: rank 2
    with pytest.raises(NumericalError, match="Cholesky failed for 5x5 matrix"):
        chol_spd(gram)
    np.testing.assert_array_equal(chol_spd(gram + np.eye(5)),
                                  np.linalg.cholesky(gram + np.eye(5)))
