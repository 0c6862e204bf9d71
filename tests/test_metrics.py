"""Metrics against independent dense reference implementations."""

import math
import tracemalloc

import numpy as np
import pytest

from pnpdm.metrics import SSIM_TILE, SSIM_WINDOW, bicubic_upsample, psnr, ssim


def test_psnr_identity_and_known_value():
    img = np.random.default_rng(0).random((16, 16))
    assert psnr(img, img) == math.inf
    noisy = img + 0.1
    assert abs(psnr(img, noisy) - 20.0) < 1e-12
    assert psnr(img, noisy) == psnr(noisy, img)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite_pixels(metric, bad):
    good = np.random.default_rng(4).random((16, 20))
    broken = good.copy()
    broken[3, 17] = bad
    with pytest.raises(ValueError, match=r"test image has a non-finite pixel at \(3, 17\)"):
        metric(good, broken)
    with pytest.raises(ValueError, match=r"ref image has a non-finite pixel at \(3, 17\)"):
        metric(broken, good)


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


def _windowed(img, taps):
    """'Valid' correlation with outer(taps, taps): along columns, then rows."""
    k = taps.size
    h, w = img.shape[0] - k + 1, img.shape[1] - k + 1
    cols = taps[0] * img[:h]
    for i in range(1, k):
        cols += taps[i] * img[i : i + h]
    out = taps[0] * cols[:, :w]
    for j in range(1, k):
        out += taps[j] * cols[:, j : j + w]
    return out


def _windowed_ssim(ref, test):
    """Full-image two-pass SSIM: each moment map windowed as a whole image."""
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2 * 1.5**2))
    w = g / g.sum()
    c1, c2 = 0.01**2, 0.03**2
    mu1 = _windowed(ref, w)
    mu2 = _windowed(test, w)
    var1 = _windowed(ref * ref, w) - mu1**2
    var2 = _windowed(test * test, w) - mu2**2
    cov = _windowed(ref * test, w) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
    den = (mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)
    return float(np.mean(num / den))


def _noisy_pair(rng, shape):
    ref = rng.random(shape)
    return ref, np.clip(ref + 0.1 * rng.standard_normal(shape), 0, 1)


_EDGES = [SSIM_TILE - 1, SSIM_TILE, SSIM_TILE + 1, 2 * SSIM_TILE + 1]


@pytest.mark.parametrize(
    "valid",
    [(e, 13) for e in _EDGES] + [(13, e) for e in _EDGES]
    + [(1, 1), (1, 2 * SSIM_TILE + 1), (SSIM_TILE + 1, 2 * SSIM_TILE + 1), (2 * SSIM_TILE + 1, 5)],
)
def test_ssim_tile_edges_match_reference(valid):
    """Band and column-tile boundaries: valid extents around SSIM_TILE, 11x11
    and non-square images, against the per-window loop."""
    shape = (valid[0] + SSIM_WINDOW - 1, valid[1] + SSIM_WINDOW - 1)
    ref, test = _noisy_pair(np.random.default_rng(sum(shape)), shape)
    assert abs(ssim(ref, test) - _reference_ssim(ref, test)) < 1e-12


@pytest.mark.parametrize("size", [256, 1024])
def test_ssim_matches_full_image_two_pass(size):
    ref, test = _noisy_pair(np.random.default_rng(size), (size, size))
    expected = _windowed_ssim(ref, test)
    assert abs(ssim(ref, test) - expected) <= 1e-13 * abs(expected)


def test_ssim_memory_is_band_sized():
    """One 1024^2 call stays within three images (the full-image two-pass
    formula peaks near eight)."""
    ref, test = _noisy_pair(np.random.default_rng(5), (1024, 1024))
    tracemalloc.start()
    try:
        ssim(ref, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((8, 20)), np.zeros((8, 20)))


def test_bicubic_constant_exact():
    for shape in [(5, 7), (1, 7), (5, 1), (1, 1)]:  # a single row or column is repeated
        lr = np.full(shape, 0.37)
        for f in (2, 3, 4):
            hr = bicubic_upsample(lr, f)
            assert hr.shape == (shape[0] * f, shape[1] * f)
            assert np.max(np.abs(hr - 0.37)) < 1e-12


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
