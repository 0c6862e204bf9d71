"""Reverse-SDE prior refinement against Gaussian conjugate answers."""

import tracemalloc

import numpy as np
import pytest

from pnpdm.analytic import _BLOCK, GaussianPrior, GmmPrior
from pnpdm.prior_step import SdeConfig, prior_refine, sigma_grid
from test_acceptance import _a3_prior
from test_analytic import _quadrature_posterior


def test_sde_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(num_steps=0)
    with pytest.raises(ValueError):
        SdeConfig(sigma_floor=0.0)


def test_sigma_grid_endpoints_and_monotonicity():
    cfg = SdeConfig(num_steps=17, sigma_floor=0.02)
    grid = sigma_grid(1.3, cfg)
    assert grid.shape == (18,)
    assert grid[0] == 1.3
    assert grid[-1] == 0.02
    assert np.all(np.diff(grid) < 0)


def test_sigma_grid_power_rule():
    cfg = SdeConfig(num_steps=10, sigma_floor=0.01)
    grid = sigma_grid(2.0, cfg)
    inv = 1.0 / 7.0
    k = 4
    expected = (2.0**inv + (k / 10) * (0.01**inv - 2.0**inv)) ** 7.0
    assert abs(grid[k] - expected) < 1e-14


def test_sigma_grid_rejects_start_below_floor():
    with pytest.raises(ValueError):
        sigma_grid(0.005, SdeConfig(sigma_floor=0.01))


def test_refine_gaussian_conjugate_moments():
    """For a Gaussian prior the refinement must sample x | z exactly:

        x | z ~ N(mu + g (z - mu), g rho^2),   g = c / (c + rho^2).
    """
    mu, c, rho = 0.4, 0.09, 0.5
    prior = GaussianPrior(mean=mu, variance=c)
    cfg = SdeConfig(num_steps=20, sigma_floor=rho / 50.0)
    z_val = 0.9
    z = np.full((128, 128), z_val)
    rng = np.random.default_rng(0)
    x = prior_refine(z, rho, prior.denoise, cfg, rng)
    g = c / (c + rho**2)
    target_mean = mu + g * (z_val - mu)
    target_var = g * rho**2
    n = x.size
    assert abs(x.mean() - target_mean) < 5 * np.sqrt(target_var / n)
    assert abs(x.var() / target_var - 1.0) < 0.08


@pytest.mark.parametrize("wrap", [
    lambda prior: prior.denoise,
    lambda prior: lambda x, s: prior.denoise(x, s),
], ids=["exact", "probe"])
def test_refine_gmm_matches_quadrature_posterior(wrap):
    """Between the modes of a mixture the Tweedie factor exceeds 1; the
    refinement then draws x | z with the quadrature posterior's moments (mean
    within 4 standard errors, variance within 4 %), whether the factor comes
    exactly from the prior or from the black-box probe behind a plain
    function.  Capping the factor at 1 leaves the variance 8 % short."""
    prior = GmmPrior(weights=np.array([0.6, 0.4]), means=np.array([0.2, 0.6]),
                     variances=np.array([0.002, 0.003]))
    z_val, rho = 0.4, 0.1
    assert prior.denoise_with_tweedie(np.array([z_val]), rho)[1][0] > 1.0
    mean, var = _quadrature_posterior(prior, z_val, rho)
    x = prior_refine(np.full((256, 256), z_val), rho, wrap(prior),
                     SdeConfig(num_steps=20, sigma_floor=0.002), np.random.default_rng(0))
    assert abs(x.mean() - mean) < 4 * np.sqrt(var / x.size)
    assert abs(x.var() / var - 1.0) < 0.04


def test_refine_stochastic_depends_on_rng():
    prior = GaussianPrior(mean=0.5, variance=0.04)
    cfg = SdeConfig(num_steps=10, sigma_floor=0.02)
    z = np.full((8, 8), 0.3)
    a = prior_refine(z, 0.6, prior.denoise, cfg, np.random.default_rng(5))
    b = prior_refine(z, 0.6, prior.denoise, cfg, np.random.default_rng(6))
    assert not np.array_equal(a, b)
    c_ = prior_refine(z, 0.6, prior.denoise, cfg, np.random.default_rng(5))
    assert np.array_equal(a, c_)


def test_refine_rejects_shape_changing_denoiser():
    def bad(x, sigma):
        return x[:1]

    with pytest.raises(ValueError):
        prior_refine(np.zeros((4, 4)), 0.5, bad, SdeConfig(), np.random.default_rng(0))


def test_refine_clamps_runaway_denoiser():
    def runaway(x, sigma):
        return np.full_like(x, 100.0)

    out = prior_refine(np.zeros((3, 3)), 0.5, runaway,
                       SdeConfig(num_steps=5),
                       np.random.default_rng(0))
    assert np.max(out) <= 1.5


class _CountingPrior:
    """Gaussian prior whose denoiser entry points count their calls."""

    def __init__(self):
        self.prior = GaussianPrior(mean=0.5, variance=0.04)
        self.calls = 0

    def denoise(self, x, sigma):
        self.calls += 1
        return self.prior.denoise(x, sigma)

    def denoise_with_tweedie(self, x, sigma):
        self.calls += 1
        return self.prior.denoise_with_tweedie(x, sigma)


def test_refine_denoiser_calls_per_step():
    """K + 1 calls when the denoiser's owner offers the exact Tweedie factor;
    2K + 1 for a plain callable, which needs a probe call per step."""
    cfg = SdeConfig(num_steps=7, sigma_floor=0.02)
    z = np.full((4, 4), 0.3)
    owner = _CountingPrior()
    prior_refine(z, 0.6, owner.denoise, cfg, np.random.default_rng(0))
    assert owner.calls == cfg.num_steps + 1
    owner = _CountingPrior()
    prior_refine(z, 0.6, lambda x, sigma: owner.denoise(x, sigma), cfg,
                 np.random.default_rng(0))
    assert owner.calls == 2 * cfg.num_steps + 1


def _reference_refine(z, rho, denoise, cfg, rng):
    """prior_refine written plainly, one new array per operation."""
    grid = sigma_grid(rho, cfg)
    exact = getattr(getattr(denoise, "__self__", None), "denoise_with_tweedie", None)
    x = np.array(z, dtype=np.float64)
    for sigma, sigma_next in zip(grid[:-1], grid[1:]):
        sigma = float(sigma)
        if exact is not None:
            estimate, tweedie = exact(x, sigma)
            estimate = np.clip(estimate, -0.5, 1.5)
        else:
            estimate = np.clip(denoise(x, sigma), -0.5, 1.5)
            probe = np.clip(denoise(x + 1e-3, sigma), -0.5, 1.5)
            tweedie = np.maximum((probe - estimate) / 1e-3, 0.0)
        shrink = 1.0 - sigma_next**2 / sigma**2
        noise_var = sigma_next**2 * shrink + shrink**2 * sigma**2 * tweedie
        x = x + shrink * (estimate - x)
        x = x + np.sqrt(noise_var) * rng.standard_normal(x.shape)
    return np.clip(denoise(x, float(grid[-1])), -0.5, 1.5)


class _RecordingPrior:
    """Wraps a prior; keeps every array its entry points return, with a copy."""

    def __init__(self, prior):
        self.prior = prior
        self.returned = []

    def _keep(self, *arrays):
        self.returned += [(a, np.copy(a)) for a in arrays if np.ndim(a)]
        return arrays

    def denoise(self, x, sigma):
        return self._keep(self.prior.denoise(x, sigma))[0]

    def denoise_with_tweedie(self, x, sigma):
        return self._keep(*self.prior.denoise_with_tweedie(x, sigma))


@pytest.mark.parametrize("kind", ["gmm", "gaussian", "black-box"])
def test_refine_matches_plain_reference_bit_for_bit(kind):
    """The buffered update gives the plain update's bits for the same seed, and
    writes neither into z nor into any array a denoiser returned."""
    gmm = GmmPrior(weights=np.linspace(1.0, 2.0, 10), means=np.linspace(0.0, 1.0, 10),
                   variances=np.linspace(0.002, 0.01, 10))
    owner = _RecordingPrior(GaussianPrior(mean=0.4, variance=0.05) if kind == "gaussian" else gmm)
    denoise = (lambda x, s: owner.denoise(x, s)) if kind == "black-box" else owner.denoise
    cfg = SdeConfig(num_steps=12, sigma_floor=0.01)
    z = np.random.default_rng(3).uniform(-0.2, 1.2, size=(48, 40))
    z_before = z.copy()
    got = prior_refine(z, 0.6, denoise, cfg, np.random.default_rng(8))
    assert np.array_equal(z, z_before)
    assert all(np.array_equal(a, before) for a, before in owner.returned)
    assert np.array_equal(got, _reference_refine(z, 0.6, denoise, cfg, np.random.default_rng(8)))


@pytest.mark.parametrize("kind", ["gmm-exact", "gaussian-probe"])
def test_refine_working_set(kind):
    """Traced peak of one 256² refine, in float64 images: x, the two buffers
    and the denoiser call in flight, never a previous step's outputs.  The
    exact mixture path allows that call's estimate and factor plus its block
    scratch; the black-box path allows three arrays for the Gaussian's call."""
    z = np.random.default_rng(0).uniform(0.0, 1.0, size=(256, 256))
    if kind == "gmm-exact":
        prior = _a3_prior()
        denoise = prior.denoise
        scratch = (prior.weights.size + 6) * min(z.size, _BLOCK) * 8
        bound = 5 + scratch / z.nbytes
    else:
        prior = GaussianPrior(mean=0.4, variance=0.05)
        denoise = lambda x, s: prior.denoise(x, s)
        bound = 6
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        prior_refine(z, 0.04, denoise, SdeConfig(num_steps=3, sigma_floor=0.008), rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / z.nbytes <= bound + 0.1
