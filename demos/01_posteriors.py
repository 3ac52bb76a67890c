"""Fit the two regression models on one noisy synthetic target.

Draws a cubic target, observes 15 noisy points, fits a conjugate
polynomial posterior and a Matern GP, and writes an SVG comparing their
predictive bands against the truth.
"""

import numpy as np

from ual_lab.bpr import default_prior, posterior_update, predictive_batch
from ual_lab.gpr import KernelSpec, gp_fit, gp_predict_batch
from ual_lab.rng import derive_rng
from ual_lab.svg import Series, line_chart
from ual_lab.synthetic import eval_target, sample_target

rng = derive_rng(2024, 0)
target = sample_target(order=3, rng=rng, noise_variance=1.0)
print("target coefficients:", np.round(target.coefficients, 3))

train_x = rng.uniform(-2, 2, 15)
noise = np.sqrt(target.noise_variance) * rng.standard_normal(train_x.size)
train_y = eval_target(target, train_x) + noise

post = posterior_update(default_prior(3, 1.0), train_x, train_y)
print("polynomial posterior mean:", np.round(post.mean, 3))

gp = gp_fit(KernelSpec("matern52", amplitude=4.0, lengthscale=1.0),
            train_x[:, None], train_y, 1.0)

grid = np.linspace(-2, 2, 101)
truth = eval_target(target, grid)
bpr_mean, bpr_var = predictive_batch(post, grid)
gp_mean, gp_var = gp_predict_batch(gp, grid[:, None], include_noise=False)

for name, mean in (("bpr_deg3", bpr_mean), ("gpr_matern52", gp_mean)):
    mse = float(np.mean((mean - truth) ** 2))
    print(f"{name}: mean squared error against the clean target = {mse:.4f}")

# shift everything above zero so the log-scale chart stays readable
offset = 1.0 + max(0.0, -float(min(truth.min(), bpr_mean.min(), gp_mean.min())))
chart = line_chart(
    "posterior means vs truth (offset for log display)",
    "x", "f(x) + offset",
    [
        Series("truth", grid, truth + offset),
        Series("bpr_deg3", grid, bpr_mean + offset,
               band_low=bpr_mean - np.sqrt(bpr_var - 1.0) + offset,
               band_high=bpr_mean + np.sqrt(bpr_var - 1.0) + offset),
        Series("gpr_matern52", grid, gp_mean + offset,
               band_low=gp_mean - np.sqrt(np.clip(gp_var, 0, None)) + offset,
               band_high=gp_mean + np.sqrt(np.clip(gp_var, 0, None)) + offset),
    ],
)
with open("demo01_posteriors.svg", "w") as handle:
    handle.write(chart)
print("wrote demo01_posteriors.svg")
