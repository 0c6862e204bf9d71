"""Self-test of the benchmark's closed-form Gaussian reference (a few seconds)."""

import numpy as np
import pytest

import closed_form as cf
from pnpdm.analytic import GaussianPrior, gaussian_posterior_oracle
from pnpdm.likelihood import LikelihoodModel
from pnpdm.operators import block_average_downsample
from pnpdm.prior_step import SdeConfig
from pnpdm.sgs import AnnealSchedule, RunConfig, initialize, run_chain


@pytest.mark.parametrize("f", [2, 4])
def test_block_posterior_matches_dense_oracle(f):
    rng = np.random.default_rng(f)
    op = block_average_downsample(f, 8, 8)
    mu = 0.3 + 0.4 * rng.random((8, 8))
    c = 0.01 * (0.5 + rng.random((8, 8)))
    y = op.apply(mu) + 0.05 * rng.standard_normal(op.out_shape)
    noise_var = cf.coupled_noise_var(0.03, 0.1, f)
    model = LikelihoodModel(operator=op, noise_sigma=noise_var**0.5, measurement=y)
    oracle_mean, oracle_var = gaussian_posterior_oracle(GaussianPrior(mu, c), model)
    mean, var = cf.gaussian_block_posterior(mu, c, y, f, noise_var)
    np.testing.assert_allclose(mean, oracle_mean, atol=1e-12)
    np.testing.assert_allclose(var.ravel(), oracle_var, atol=1e-12)


def test_chain_mean_error_matches_sampler():
    """Mean squared error of many short chains against the predicted law."""
    f, mu, c, sigma_y, rho, floor = 4, 0.5, 0.01, 0.03, 0.15, 0.01
    burn_in, samples, chains = 2, 6, 160
    rng = np.random.default_rng(7)
    op = block_average_downsample(f, 8, 8)
    y = op.apply(mu + 0.1 * rng.standard_normal((8, 8))) \
        + sigma_y * rng.standard_normal(op.out_shape)
    model = LikelihoodModel(operator=op, noise_sigma=sigma_y, measurement=y)
    post_mean, _ = cf.gaussian_block_posterior(
        mu, c, y, f, cf.coupled_noise_var(sigma_y, rho, f))
    prior = GaussianPrior(mu, c)
    schedule = AnnealSchedule(rho0=rho, rho_min=rho)
    sde = SdeConfig(num_steps=4, sigma_floor=floor)
    sse = []
    for seed in range(chains):
        cfg = RunConfig(iterations=burn_in + samples, burn_in=burn_in, seed=seed)
        draws, _ = run_chain(model, prior.denoise, schedule, sde, cfg, initialize(model))
        sse.append(float(np.sum((np.mean(draws, axis=0) - post_mean) ** 2)))
    expected, sd = cf.chain_mean_error(mu, c, y, f, sigma_y, rho, floor, burn_in, samples)
    assert abs(np.mean(sse) - expected) < 5.0 * sd / chains**0.5
