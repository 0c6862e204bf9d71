"""Annealing schedule and outer-loop mechanics."""

import numpy as np
import pytest

from pnpdm.analytic import GaussianPrior
from pnpdm.likelihood import LikelihoodModel
from pnpdm.operators import SvdOperator
from pnpdm.prior_step import SdeConfig
from pnpdm.sgs import (
    AnnealSchedule,
    RunConfig,
    initialize,
    rho_at,
    run_chain,
)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(rho0=0.1, rho_min=0.3)
    with pytest.raises(ValueError):
        AnnealSchedule(rho_min=0.0)
    with pytest.raises(ValueError):
        AnnealSchedule(alpha=1.0)


def test_rho_at_exact_decay():
    sched = AnnealSchedule(rho0=10.0, rho_min=0.3, alpha=0.9)
    assert rho_at(sched, 0) == 10.0
    assert rho_at(sched, 5) == 0.9**5 * 10.0
    assert rho_at(sched, 1000) == 0.3
    with pytest.raises(ValueError):
        rho_at(sched, -1)


def test_clamp_iteration_default_schedule():
    sched = AnnealSchedule()
    q = sched.clamp_iteration()
    assert q == 34
    assert rho_at(sched, q - 1) > sched.rho_min
    assert rho_at(sched, q) == sched.rho_min
    assert AnnealSchedule(rho0=0.05, rho_min=0.05).clamp_iteration() == 0


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        RunConfig(iterations=10, burn_in=-1)
    with pytest.raises(ValueError):
        RunConfig(iterations=10, burn_in=0, collect_every=0)
    with pytest.raises(ValueError):
        RunConfig(iterations=10, burn_in=0, seed=-1)


def _tiny_model(seed=0):
    op = SvdOperator(2, 8, 8)
    rng = np.random.default_rng(seed)
    y = rng.random(op.out_shape)
    return LikelihoodModel(operator=op, noise_sigma=0.1, measurement=y)


def test_initialize_is_backprojection():
    model = _tiny_model()
    x0 = initialize(model)
    # minimum-norm backprojection of block averaging replicates each pixel
    assert np.array_equal(x0, np.repeat(np.repeat(model.measurement, 2, 0), 2, 1))
    assert np.allclose(model.operator.apply(x0), model.measurement)


def test_run_chain_sample_count_and_determinism():
    model = _tiny_model(2)
    prior = GaussianPrior(mean=0.5, variance=0.04)
    sched = AnnealSchedule(rho0=1.0, rho_min=0.2)
    sde = SdeConfig(num_steps=8, sigma_floor=0.02)
    cfg = RunConfig(iterations=12, burn_in=4, collect_every=2, seed=11)
    x0 = initialize(model)
    samples, mean = run_chain(model, prior.denoise, sched, sde, cfg, x0)
    assert len(samples) == 4  # q = 4, 6, 8, 10
    assert mean.shape == (8, 8)
    assert mean.min() >= 0.0 and mean.max() <= 1.0
    samples2, mean2 = run_chain(model, prior.denoise, sched, sde, cfg, x0)
    assert np.array_equal(mean, mean2)
    cfg_other = RunConfig(iterations=12, burn_in=4, collect_every=2, seed=12)
    _, mean3 = run_chain(model, prior.denoise, sched, sde, cfg_other, x0)
    assert not np.array_equal(mean, mean3)


def test_run_chain_callback_sees_schedule():
    model = _tiny_model(5)
    prior = GaussianPrior(mean=0.5, variance=0.04)
    sched = AnnealSchedule(rho0=2.0, rho_min=0.5)
    cfg = RunConfig(iterations=6, burn_in=0, seed=0)
    seen = []
    run_chain(model, prior.denoise, sched, SdeConfig(num_steps=5, sigma_floor=0.05),
              cfg, initialize(model), callback=lambda q, rho, x: seen.append((q, rho)))
    assert [q for q, _ in seen] == list(range(6))
    assert all(rho == rho_at(sched, q) for q, rho in seen)


def test_run_chain_keeps_iterates_without_copying_inputs():
    model = _tiny_model(7)
    prior = GaussianPrior(mean=0.5, variance=0.04)
    cfg = RunConfig(iterations=7, burn_in=2, collect_every=2, seed=3)
    x0 = initialize(model)
    before = x0.tobytes()
    copies = {}
    samples, _ = run_chain(model, prior.denoise, AnnealSchedule(rho0=1.0, rho_min=0.2),
                           SdeConfig(num_steps=4, sigma_floor=0.02), cfg, x0,
                           callback=lambda q, rho, x: copies.setdefault(q, x.copy()))
    assert x0.tobytes() == before
    assert len(samples) == 3  # q = 2, 4, 6
    for q, sample in zip((2, 4, 6), samples):
        assert sample.tobytes() == copies[q].tobytes()
    assert len({id(s) for s in samples}) == 3
    assert all(s is not x0 for s in samples)


def test_run_chain_rejects_wrong_init_shape():
    model = _tiny_model()
    prior = GaussianPrior(mean=0.5, variance=0.04)
    with pytest.raises(ValueError):
        run_chain(model, prior.denoise, AnnealSchedule(), SdeConfig(),
                  RunConfig(iterations=2, burn_in=0), np.zeros((4, 4)))


def test_identity_chain_tracks_measurement():
    """Pure denoising with a tight prior should land near the posterior mean."""
    op = SvdOperator(1, 6, 6)
    truth = np.full((6, 6), 0.7)
    rng = np.random.default_rng(0)
    y = truth + 0.05 * rng.standard_normal((6, 6))
    model = LikelihoodModel(operator=op, noise_sigma=0.05, measurement=y)
    prior = GaussianPrior(mean=0.7, variance=0.01)
    sched = AnnealSchedule(rho0=1.0, rho_min=0.1)
    cfg = RunConfig(iterations=180, burn_in=30, seed=1)
    _, mean = run_chain(model, prior.denoise, sched,
                        SdeConfig(num_steps=10, sigma_floor=0.01), cfg,
                        initialize(model))
    gain = 0.01 / (0.01 + 0.05**2)
    posterior_mean = 0.7 + gain * (y - 0.7)
    assert np.max(np.abs(mean - posterior_mean)) < 0.05
