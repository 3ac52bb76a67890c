"""Exercise the closed-form MSE machinery and its oracles.

Three checks, printed as a small table:
  1. matched model: the nine-term closed form equals twice the posterior
     quadratic form, everywhere;
  2. lower-order model: the six-term block expression equals the general
     form under the block assumptions;
  3. both against a 1e5-sample Monte-Carlo estimate.
Then the variance-proxy gap that separates matched from low-order models,
and the density-ratio bias bound report.
"""

import numpy as np

from ual_lab.analysis import (
    bias_bound_check,
    closed_form_mse,
    lower_order_mse,
    matched_mse,
    mc_bias_variance,
    variance_proxy_gap,
)
from ual_lab.bpr import BprPrior, default_prior, posterior_update
from ual_lab.rng import derive_rng

rng = derive_rng(7, 0)
# the target family: cubic coefficients ~ N(0, I), unit noise
family = default_prior(3, 1.0)
inputs = rng.uniform(-2, 2, 20)

# 1. matched: the prior is the family itself
post = posterior_update(family, inputs, rng.standard_normal(20))
x = 1.2
general = closed_form_mse([x], family, family, inputs)[0]
print(f"matched at x={x}: general {general:.6f}  vs 2*spread {matched_mse([x], post)[0]:.6f}")

# 2. lower-order: the prior is the family's head blocks
low_prior = BprPrior(1, family.mean[:2], family.cov[:2, :2], 1.0)
low_general = closed_form_mse([x], family, low_prior, inputs)[0]
total, remainder, spread = (v[0] for v in lower_order_mse([x], family, low_prior, inputs))
print(f"lower-order at x={x}: general {low_general:.6f}  vs blocks {total:.6f} "
      f"(remainder {remainder:.4f} + 2*spread {2 * spread:.4f})")

# 3. Monte-Carlo oracle on the same inputs
rep = mc_bias_variance(x, family, low_prior, inputs, 100_000, derive_rng(7, 1))
z = abs(low_general - rep.mse) / rep.bias_standard_error
print(f"oracle: {rep.mse:.4f} +- {rep.bias_standard_error:.4f} "
      f"(z against closed form = {z:.2f})")

# how badly the spread proxies the MSE per model degree
print("\nmean |MSE - 2*spread| over the grid:")
for degree in (1, 2, 3, 4, 5):
    gaps = variance_proxy_gap(np.linspace(-2, 2, 50), family, default_prior(degree, 1.0),
                              inputs)
    print(f"  degree {degree}: {np.mean(gaps):.3e}")

report = bias_bound_check(0.1, 1.0, 0.0, 1.0, trunc=8.0)
print(f"\nbias bound: bias^2 {report.bias_sq:.4f} <= eps^2 C^2 {report.bound:.4f} "
      f"-> holds = {report.holds}")
