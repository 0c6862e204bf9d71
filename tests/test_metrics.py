"""Metrics against independent dense reference implementations."""

import math

import numpy as np
import pytest

from pnpdm.metrics import SSIM_WINDOW, bicubic_upsample, psnr, ssim


def test_psnr_identity_and_known_value():
    img = np.random.default_rng(0).random((16, 16))
    assert psnr(img, img) == math.inf
    noisy = img + 0.1
    assert abs(psnr(img, noisy) - 20.0) < 1e-12
    assert psnr(img, noisy) == psnr(noisy, img)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def _reference_ssim(ref, test):
    """Direct per-window loop, independent of the vectorized implementation."""
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2 * 1.5**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1, c2 = 0.01**2, 0.03**2
    h, wd = ref.shape
    values = []
    for i in range(h - SSIM_WINDOW + 1):
        for j in range(wd - SSIM_WINDOW + 1):
            a = ref[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            b = test[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            mu1 = np.sum(w * a)
            mu2 = np.sum(w * b)
            var1 = np.sum(w * a * a) - mu1**2
            var2 = np.sum(w * b * b) - mu2**2
            cov = np.sum(w * a * b) - mu1 * mu2
            values.append(
                ((2 * mu1 * mu2 + c1) * (2 * cov + c2))
                / ((mu1**2 + mu2**2 + c1) * (var1 + var2 + c2))
            )
    return float(np.mean(values))


def test_ssim_identity_symmetry_and_reference():
    rng = np.random.default_rng(1)
    for shape in [(18, 15), (64, 48)]:
        ref = rng.random(shape)
        test = np.clip(ref + 0.1 * rng.standard_normal(ref.shape), 0, 1)
        assert abs(ssim(ref, ref) - 1.0) < 1e-12
        s = ssim(ref, test)
        assert s < 1.0
        assert abs(s - ssim(test, ref)) < 1e-12
        assert abs(s - _reference_ssim(ref, test)) < 1e-6


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 20)), np.zeros((8, 20)))


def test_bicubic_constant_exact():
    lr = np.full((5, 7), 0.37)
    for f in (2, 3, 4):
        assert np.max(np.abs(bicubic_upsample(lr, f) - 0.37)) < 1e-12


def test_bicubic_linear_ramps_exact():
    """Cubic convolution reproduces linear functions of the pixel centers."""
    rows = np.arange(6, dtype=np.float64)[:, None]
    cols = np.arange(9, dtype=np.float64)[None, :]
    lr = 0.3 * rows + 0.1 * cols + 0.05
    for f in (2, 4):
        hr = bicubic_upsample(lr, f)
        hr_rows = ((np.arange(6 * f) + 0.5) / f - 0.5)[:, None]
        hr_cols = ((np.arange(9 * f) + 0.5) / f - 0.5)[None, :]
        expected = 0.3 * hr_rows + 0.1 * hr_cols + 0.05
        assert np.max(np.abs(hr - expected)) < 1e-10


def test_bicubic_factor_one_is_copy():
    lr = np.random.default_rng(2).random((4, 4))
    out = bicubic_upsample(lr, 1)
    assert np.array_equal(out, lr)
    out[0, 0] = -1
    assert lr[0, 0] != -1


def test_bicubic_separable_transpose_symmetry():
    lr = np.random.default_rng(3).random((5, 8))
    assert np.allclose(bicubic_upsample(lr, 3), bicubic_upsample(lr.T, 3).T, atol=1e-12)


def test_bicubic_validation():
    with pytest.raises(ValueError):
        bicubic_upsample(np.zeros((4, 4)), 0)
