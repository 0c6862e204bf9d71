"""Image quality metrics and the bicubic interpolation baseline."""

from __future__ import annotations

import math

import numpy as np

from pnpdm.images import as_image

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


def _check_pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    ref = as_image(ref)
    test = as_image(test)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {test.shape}")
    return ref, test


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in dB for unit dynamic range; inf if equal."""
    ref, test = _check_pair(ref, test)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_taps() -> np.ndarray:
    """1-D taps whose outer product is the normalized 2-D SSIM window."""
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def _windowed(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
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


def ssim(ref, test) -> float:
    """Mean local SSIM, 11x11 Gaussian window (std 1.5), unit dynamic range.

    Windows are evaluated at fully interior positions (no padding).
    """
    ref, test = _check_pair(ref, test)
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    w = _gaussian_taps()
    mu1 = _windowed(ref, w)
    mu2 = _windowed(test, w)
    var1 = _windowed(ref * ref, w) - mu1**2
    var2 = _windowed(test * test, w) - mu2**2
    cov = _windowed(ref * test, w) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu1**2 + mu2**2 + SSIM_C1) * (var1 + var2 + SSIM_C2)
    return float(np.mean(num / den))


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    """Cubic-convolution weights (a = -0.5) for the four samples around t."""
    w = np.empty((4,) + t.shape)
    s = 1.0 + t  # distance to sample k-1, in [1, 2)
    w[0] = -0.5 * (s**3 - 5.0 * s**2 + 8.0 * s - 4.0)
    w[1] = 1.5 * t**3 - 2.5 * t**2 + 1.0
    u = 1.0 - t
    w[2] = 1.5 * u**3 - 2.5 * u**2 + 1.0
    v = 2.0 - t
    w[3] = -0.5 * (v**3 - 5.0 * v**2 + 8.0 * v - 4.0)
    return w


def _upsample_axis0(arr: np.ndarray, f: int) -> np.ndarray:
    n = arr.shape[0]
    if n == 1:
        return np.repeat(arr, f, axis=0)
    # pad with two linearly extrapolated samples each side so constants and
    # linear ramps are reproduced exactly up to the borders
    lo = arr[0] + (arr[0] - arr[1]) * np.array([2.0, 1.0])[:, None]
    hi = arr[-1] + (arr[-1] - arr[-2]) * np.array([1.0, 2.0])[:, None]
    padded = np.concatenate([lo, arr, hi], axis=0)
    centers = (np.arange(n * f) + 0.5) / f - 0.5
    base = np.floor(centers).astype(int)
    t = centers - base
    weights = _catmull_rom_weights(t)
    out = np.zeros((n * f,) + arr.shape[1:])
    for i in range(4):
        out += weights[i][:, None] * padded[base + i + 1]
    return out


def bicubic_upsample(lr, f: int) -> np.ndarray:
    """Catmull-Rom cubic-convolution upsampling by integer factor f.

    LR pixel centers map onto the centers of the corresponding f x f HR
    blocks, matching the block-averaging forward geometry.
    """
    lr = as_image(lr)
    if f < 1:
        raise ValueError(f"factor must be >= 1, got {f}")
    if f == 1:
        return lr.copy()
    return _upsample_axis0(_upsample_axis0(lr, f).T, f).T
