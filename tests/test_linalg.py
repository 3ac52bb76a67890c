import numpy as np
import pytest
from scipy.linalg import cho_solve

from ual_lab.linalg import chol_solve_vec


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
