"""Analytic priors and the dense posterior oracle."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pnpdm import analytic
from pnpdm.analytic import (
    GaussianPrior,
    GmmPrior,
    dense_matrix,
    gaussian_posterior_oracle,
)
from pnpdm.likelihood import LikelihoodModel
from pnpdm.operators import block_average_downsample
from pnpdm.prior_step import SdeConfig, sigma_grid
from test_acceptance import _a3_prior


def test_gaussian_denoise_closed_form():
    prior = GaussianPrior(mean=0.3, variance=0.04)
    x = np.array([[0.8, -0.2]])
    sigma = 0.1
    gain = 0.04 / (0.04 + 0.01)
    assert np.allclose(prior.denoise(x, sigma), 0.3 + gain * (x - 0.3))
    with pytest.raises(ValueError):
        prior.denoise(x, 0.0)


@pytest.mark.parametrize("prior", [
    GaussianPrior(mean=0.3, variance=0.04),
    GmmPrior(weights=[1.0, 1.0], means=[0.2, 0.7], variances=[0.01, 0.01]),
], ids=["gaussian", "gmm"])
@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1, 0.0])
def test_denoise_sigma_must_be_finite_and_positive(prior, sigma):
    x = np.array([[0.8, -0.2]])
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        prior.denoise(x, sigma)
    with pytest.raises(ValueError, match="sigma must be finite and > 0"):
        prior.denoise_with_tweedie(x, sigma)


def test_gaussian_broadcasting_pixelwise_params():
    mean = np.array([[0.1, 0.9]])
    var = np.array([[0.01, 0.25]])
    prior = GaussianPrior(mean=mean, variance=var)
    x = np.array([[0.5, 0.5]])
    out = prior.denoise(x, 0.2)
    gains = var / (var + 0.04)
    assert np.allclose(out, mean + gains * (x - mean))


_RAMP = np.linspace(0.01, 0.3, 35).reshape(5, 7)


@pytest.mark.parametrize("mean,variance,shape", [
    (0.3, 0.04, (5, 7)),
    (np.linspace(0.1, 0.9, 7), 0.04, (5, 7)),
    (0.3, _RAMP, (5, 7)),
    (_RAMP + 0.2, _RAMP, (1, 7)),
    (np.full((3, 5, 7), 0.4), _RAMP[0], (5, 7)),
], ids=["scalars", "mean-row", "variance-image", "params-larger-than-x", "mean-3d"])
def test_gaussian_estimate_keeps_the_bits_of_the_direct_formula(mean, variance, shape):
    """The estimate, computed in one array, has the bits and the broadcast
    shape of mean + gain * (x - mean), with array parameters shaped like x,
    a row of it, or larger than x."""
    prior = GaussianPrior(mean=mean, variance=variance)
    x = np.random.default_rng(4).uniform(-0.5, 1.5, size=shape)
    for sigma in (0.01, 0.1, 1.0):
        gain = prior.variance / (prior.variance + sigma**2)
        estimate, factor = prior.denoise_with_tweedie(x, sigma)
        assert np.array_equal(estimate, prior.mean + gain * (x - prior.mean))
        assert np.array_equal(factor, gain)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianPrior(mean=0.0, variance=0.0)


@pytest.mark.parametrize("mean,variance", [
    (0.0, np.nan), (0.0, np.inf), (np.nan, 0.1), (np.inf, 0.1),
    (np.array([0.0, -np.inf]), 0.1), (0.0, np.array([0.1, np.nan])),
])
def test_gaussian_rejects_non_finite_parameters(mean, variance):
    with pytest.raises(ValueError, match="finite"):
        GaussianPrior(mean=mean, variance=variance)


@pytest.mark.parametrize("weights,means,variances", [
    ([np.nan, 1.0], [0.0, 1.0], [0.01, 0.01]),
    ([np.inf, 1.0], [0.0, 1.0], [0.01, 0.01]),
    ([1.0, 1.0], [0.0, np.nan], [0.01, 0.01]),
    ([1.0, 1.0], [-np.inf, 1.0], [0.01, 0.01]),
    ([1.0, 1.0], [0.0, 1.0], [np.inf, 0.01]),
    ([1.0, 1.0], [0.0, 1.0], [0.01, np.nan]),
    ([1e308, 1e308], [0.0, 1.0], [0.01, 0.01]),  # each finite, their sum not
])
def test_gmm_rejects_non_finite_parameters(weights, means, variances):
    with pytest.raises(ValueError, match="finite"):
        GmmPrior(weights=weights, means=means, variances=variances)


def _quadrature_posterior(prior: GmmPrior, y: float, sigma: float) -> tuple[float, float]:
    """Direct 1-D quadrature of E[x0 | x0 + sigma eps = y] and Var[x0 | ...]."""
    lo = min(prior.means.min(), y) - 8 * (np.sqrt(prior.variances.max()) + sigma)
    hi = max(prior.means.max(), y) + 8 * (np.sqrt(prior.variances.max()) + sigma)
    t = np.linspace(lo, hi, 40001)
    prior_pdf = np.sum(
        prior.weights
        * np.exp(-0.5 * (t[:, None] - prior.means) ** 2 / prior.variances)
        / np.sqrt(2 * np.pi * prior.variances),
        axis=1,
    )
    like = np.exp(-0.5 * (y - t) ** 2 / sigma**2)
    post = prior_pdf * like
    mass = np.trapezoid(post, t)
    mean = np.trapezoid(t * post, t) / mass
    return float(mean), float(np.trapezoid((t - mean) ** 2 * post, t) / mass)


def test_gmm_denoise_matches_quadrature():
    prior = GmmPrior(
        weights=np.array([0.6, 0.3, 0.1]),
        means=np.array([0.05, 0.45, 0.8]),
        variances=np.array([0.002, 0.01, 0.005]),
    )
    for y, sigma in [(0.1, 0.2), (0.5, 0.05), (0.7, 0.35), (-0.2, 0.1)]:
        mean, var = _quadrature_posterior(prior, y, sigma)
        assert abs(prior.denoise(np.array([[y]]), sigma)[0, 0] - mean) < 1e-6
        _, factor = prior.denoise_with_tweedie(np.array([[y]]), sigma)
        assert abs(factor[0, 0] - var / sigma**2) < 1e-6


def test_gmm_single_component_reduces_to_gaussian():
    gmm = GmmPrior(weights=np.array([1.0]), means=np.array([0.4]),
                   variances=np.array([0.02]))
    gauss = GaussianPrior(mean=0.4, variance=0.02)
    x = np.linspace(-0.5, 1.5, 21).reshape(3, 7)
    assert np.allclose(gmm.denoise(x, 0.17), gauss.denoise(x, 0.17), atol=1e-12)


def test_gmm_weights_normalized_and_validation():
    prior = GmmPrior(weights=np.array([2.0, 6.0]), means=np.array([0.0, 1.0]),
                     variances=np.array([0.01, 0.01]))
    assert np.allclose(prior.weights, [0.25, 0.75])
    with pytest.raises(ValueError):
        GmmPrior(weights=np.array([1.0, -1.0]), means=np.array([0.0, 1.0]),
                 variances=np.array([0.01, 0.01]))
    with pytest.raises(ValueError):
        GmmPrior(weights=np.array([1.0]), means=np.array([0.0, 1.0]),
                 variances=np.array([0.01, 0.01]))


@pytest.mark.parametrize("prior", [
    GaussianPrior(mean=0.35, variance=0.06),
    GmmPrior(weights=np.array([0.5, 0.5]), means=np.array([0.1, 0.9]),
             variances=np.array([0.01, 0.04])),
])
def test_tweedie_identity(prior):
    """denoise(x, sigma) = x + sigma^2 * grad log p_sigma(x)."""
    sigma = 0.15
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.3, 1.3, size=(1, 1))
    eps = 1e-6
    grad = (prior.log_density_smoothed(x + eps, sigma)
            - prior.log_density_smoothed(x - eps, sigma)) / (2 * eps)
    expected = x[0, 0] + sigma**2 * grad
    assert abs(prior.denoise(x, sigma)[0, 0] - expected) < 1e-7


def _random_prior(rng: np.random.Generator):
    if rng.random() < 0.5:
        return GaussianPrior(mean=rng.uniform(-0.2, 1.2, size=(3, 4)),
                             variance=rng.uniform(0.001, 0.3, size=(3, 4)))
    k = int(rng.integers(1, 6))
    return GmmPrior(weights=rng.uniform(0.1, 1.0, size=k),
                    means=rng.uniform(-0.2, 1.2, size=k),
                    variances=rng.uniform(0.001, 0.1, size=k))


def test_denoise_with_tweedie_matches_denoise_and_its_derivative():
    """The estimate is denoise's; the factor is d denoise/dx (central difference)."""
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(60):
        prior = _random_prior(rng)
        sigma = float(rng.uniform(0.02, 1.0))
        x = rng.uniform(-0.5, 1.5, size=(3, 4))
        estimate, factor = prior.denoise_with_tweedie(x, sigma)
        assert np.array_equal(estimate, prior.denoise(x, sigma))
        slope = (prior.denoise(x + h, sigma) - prior.denoise(x - h, sigma)) / (2 * h)
        assert np.max(np.abs(factor - slope)) < 1e-6


def _ten_component_prior() -> GmmPrior:
    return GmmPrior(weights=np.linspace(1.0, 2.0, 10), means=np.linspace(0.0, 1.0, 10),
                    variances=np.linspace(0.002, 0.01, 10))


def test_gmm_threads_get_serial_bits_and_results_share_no_memory():
    """Threads denoising at once, at two image sizes and two threads per size,
    get the bits of serial calls; a later call leaves earlier results intact,
    and results share memory with neither each other nor the input."""
    prior = _ten_component_prior()
    rng = np.random.default_rng(5)
    inputs = [rng.uniform(-0.3, 1.3, size=(side, side)) for side in (64, 96, 64, 96)]
    sigmas = [0.02, 0.1, 0.4]
    serial = [[prior.denoise_with_tweedie(x, s) for s in sigmas] for x in inputs]
    mismatches = []
    start = threading.Barrier(len(inputs))

    def work(i):
        start.wait(timeout=30)
        for _ in range(15):
            for s, (mean, factor) in zip(sigmas, serial[i]):
                got_mean, got_factor = prior.denoise_with_tweedie(inputs[i], s)
                if not (np.array_equal(got_mean, mean) and np.array_equal(got_factor, factor)):
                    mismatches.append((i, s))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []

    x = inputs[0]
    first = prior.denoise_with_tweedie(x, 0.05)
    kept = [a.copy() for a in first]
    second = prior.denoise_with_tweedie(x + 0.1, 0.05)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))
    results = (*first, *second)
    for i, result in enumerate(results):
        assert not np.shares_memory(result, x)
        assert not any(np.shares_memory(result, other) for other in results[i + 1:])


def test_gmm_warm_pass_allocates_less_than_the_responsibilities():
    """A second pass at 128^2 with K = 10 peaks well under one (K, N) array:
    beside the mean and the factor it allocates only its block scratch."""
    prior = _ten_component_prior()
    x = np.random.default_rng(6).uniform(-0.3, 1.3, size=(128, 128))
    prior.denoise_with_tweedie(x, 0.1)
    tracemalloc.start()
    try:
        prior.denoise_with_tweedie(x, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < prior.weights.size * x.size * 8


def test_gmm_pass_retains_nothing():
    """After a call, only its two results remain allocated: the block scratch
    is freed on return, and nothing is cached for the next call."""
    prior = _ten_component_prior()
    x = np.random.default_rng(8).uniform(-0.3, 1.3, size=(97, 83))
    tracemalloc.start()
    try:
        mean, factor = prior.denoise_with_tweedie(x, 0.1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current - mean.nbytes - factor.nbytes <= 4096


def _direct_gmm_posterior(prior: GmmPrior, x: np.ndarray,
                          sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and Var / sigma^2 per pixel, by a broadcast (N, K)
    log-sum-exp over the components."""
    flat = x.reshape(-1, 1)
    var = prior.variances + sigma**2
    log_w = (np.log(prior.weights) - 0.5 * np.log(2 * np.pi * var)
             - 0.5 * (flat - prior.means) ** 2 / var)
    r = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    gain = prior.variances / var
    m = (1 - gain) * prior.means + gain * flat
    mean = np.sum(r * m, axis=1, keepdims=True)
    factor = np.sum(r * (gain + (m - mean) ** 2 / sigma**2), axis=1)
    return mean.reshape(x.shape), factor.reshape(x.shape)


_B = analytic._BLOCK


@pytest.mark.parametrize("shape", [(1, _B - 1), (1, _B), (1, _B + 1), (2 * _B + 1, 1),
                                   (1, 1), (97, 83)],
                         ids=["B-1", "B", "B+1", "2B+1", "1x1", "97x83"])
def test_gmm_blocks_match_the_direct_formula_and_one_block(shape, monkeypatch):
    """Block edges change no bit, and every pixel matches the direct formula,
    over the refine's clamp range and down to sigma below A3's floor of
    0.008, where A3's narrow prior floors about a quarter of its log-weights.

    The factor is Var[x0 | x] / sigma^2 with Var from the one-pass sums, whose
    rounding error (about 1e-15 here) the division by sigma^2 amplifies, so
    the factor is checked as the variance sigma^2 * factor.
    """
    x = np.random.default_rng(9).uniform(-0.5, 1.5, size=shape)
    for prior in (_ten_component_prior(), _a3_prior()):
        for sigma in (0.002, 0.008, 0.02, 0.1, 0.5):
            mean, factor = prior.denoise_with_tweedie(x, sigma)
            expected_mean, expected_factor = _direct_gmm_posterior(prior, x, sigma)
            assert np.max(np.abs(mean - expected_mean)) < 1e-12
            assert np.max(np.abs(factor - expected_factor)) * sigma**2 < 1e-14
            with monkeypatch.context() as m:
                m.setattr(analytic, "_BLOCK", x.size)
                one_mean, one_factor = prior.denoise_with_tweedie(x, sigma)
            assert np.array_equal(mean, one_mean) and np.array_equal(factor, one_factor)


@pytest.mark.parametrize("shape", [(1, _B - 1), (1, _B), (1, _B + 1), (2 * _B + 1, 1),
                                   (1, 1), (97, 83)],
                         ids=["B-1", "B", "B+1", "2B+1", "1x1", "97x83"])
def test_gmm_bits_do_not_depend_on_where_x_sits(shape):
    """The same pixels at byte offsets 0, 8, ..., 56 past a 64-byte line give
    the same bits, and the mean and the factor each start on a 64-byte line."""
    x = np.random.default_rng(13).uniform(-0.5, 1.5, size=shape)
    buffer = np.empty(x.size + 16)
    line = -buffer.__array_interface__["data"][0] % 64 // 8
    for prior in (_ten_component_prior(), _a3_prior()):
        for sigma in (0.008, 0.1):
            runs = []
            for offset in range(8):
                placed = buffer[line + offset:line + offset + x.size].reshape(shape)
                placed[...] = x
                assert placed.__array_interface__["data"][0] % 64 == 8 * offset
                runs.append(prior.denoise_with_tweedie(placed, sigma))
                assert all(r.__array_interface__["data"][0] % 64 == 0 for r in runs[-1])
            for mean, factor in runs[1:]:
                assert np.array_equal(mean, runs[0][0]) and np.array_equal(factor, runs[0][1])


def test_gmm_log_floor_changes_no_bit_on_the_a3_grid(monkeypatch):
    """Flooring the shifted log-weights at ``_LOG_FLOOR`` gives the bits of
    the unfloored pass (a floor of -inf) for A3's prior at every sigma of
    A3's grid, over the refine's clamp range, where the floor is reached."""
    prior = _a3_prior()
    x = np.random.default_rng(12).uniform(-0.5, 1.5, size=(2 * _B + 1, 3))
    grid = sigma_grid(0.04, SdeConfig(sigma_floor=0.008))
    flat = x.reshape(-1)
    log_w = prior._coefficients(grid[-1]) @ np.stack([np.ones_like(flat), flat, flat * flat])
    assert np.mean(log_w - log_w.max(axis=0) < analytic._LOG_FLOOR) > 0.2
    floored = [prior.denoise_with_tweedie(x, float(s)) for s in grid]
    monkeypatch.setattr(analytic, "_LOG_FLOOR", -np.inf)
    for sigma, (mean, factor) in zip(grid, floored):
        exact_mean, exact_factor = prior.denoise_with_tweedie(x, float(sigma))
        assert np.array_equal(mean, exact_mean), sigma
        assert np.array_equal(factor, exact_factor), sigma


def test_gmm_log_density_matches_direct_logsumexp():
    prior = GmmPrior(weights=np.array([0.7, 0.3]), means=np.array([0.2, 0.8]),
                     variances=np.array([0.01, 0.02]))
    sigma = 0.1
    x = np.array([[0.25, 0.6]])
    var = prior.variances + sigma**2
    per = prior.weights * np.exp(
        -0.5 * (x[..., None] - prior.means) ** 2 / var
    ) / np.sqrt(2 * np.pi * var)
    expected = float(np.log(per.sum(axis=-1)).sum())
    assert abs(prior.log_density_smoothed(x, sigma) - expected) < 1e-10


def test_gmm_sample_moments():
    prior = GmmPrior(weights=np.array([0.5, 0.5]), means=np.array([0.0, 1.0]),
                     variances=np.array([0.01, 0.01]))
    draws = prior.sample((200, 200), np.random.default_rng(3))
    assert abs(draws.mean() - 0.5) < 0.02
    expected_var = 0.01 + 0.25
    assert abs(draws.var() / expected_var - 1.0) < 0.05


@pytest.mark.parametrize("op", [
    block_average_downsample(1, 3, 3),
    block_average_downsample(2, 4, 4),
])
def test_gaussian_posterior_oracle_matches_direct_formula(op):
    rng = np.random.default_rng(7)
    prior = GaussianPrior(mean=0.4, variance=0.09)
    y = rng.random(op.out_shape)
    model = LikelihoodModel(operator=op, noise_sigma=0.2, measurement=y)
    mean, var = gaussian_posterior_oracle(prior, model)
    a = dense_matrix(op)
    prec = np.eye(op.n) / 0.09 + a.T @ a / 0.04
    cov = np.linalg.inv(prec)
    expected = cov @ (np.full(op.n, 0.4) / 0.09 + a.T @ y.ravel() / 0.04)
    assert np.allclose(mean.ravel(), expected, atol=1e-12)
    assert np.allclose(var, np.diag(cov), atol=1e-12)


def test_dense_oracle_size_guard():
    op = block_average_downsample(1, 70, 70)
    model = LikelihoodModel(operator=op, noise_sigma=0.1,
                            measurement=np.zeros((70, 70)))
    with pytest.raises(ValueError):
        gaussian_posterior_oracle(GaussianPrior(mean=0.0, variance=1.0), model)
