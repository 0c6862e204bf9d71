"""Image quality metrics and the bicubic interpolation baseline.

SSIM (Wang et al. 2004) is computed in bands of ``SSIM_TILE`` output rows.
For each band the five moment images x, y, x², y², xy of its
``SSIM_TILE + 10`` input rows are stacked side by side, and the separable
11x11 Gaussian window is applied as two banded matrix products: one
``(SSIM_TILE, SSIM_TILE + 10)`` product down the columns, then one over
column tiles of ``SSIM_TILE`` outputs along the rows.  The SSIM map of the
band is finished and summed while it is still in cache, so one call keeps a
few band-sized buffers instead of full-image temporaries, and its cost per
pixel does not grow with the image.
"""

from __future__ import annotations

import math

import numpy as np

from pnpdm.images import as_image, check_finite

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
SSIM_TILE = 16  # output rows per band, and output columns per column tile


def _check_pair(ref, test) -> tuple[np.ndarray, np.ndarray]:
    ref = as_image(ref)
    test = as_image(test)
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {test.shape}")
    check_finite(ref, "ref image")
    check_finite(test, "test image")
    return ref, test


def psnr(ref, test) -> float:
    """Peak signal-to-noise ratio in dB for unit dynamic range; inf if equal."""
    ref, test = _check_pair(ref, test)
    mse = float(np.mean((ref - test) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _band_matrix() -> np.ndarray:
    """(SSIM_TILE, SSIM_TILE + 10) matrix whose row i holds the 11 Gaussian
    taps (std SSIM_SIGMA, sum 1) at columns i..i+10.

    Its top-left (t, t + 10) corner maps t + 10 samples to their t 'valid'
    windowed means, for any t <= SSIM_TILE.
    """
    half = SSIM_WINDOW // 2
    taps = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA**2))
    taps /= taps.sum()
    band = np.zeros((SSIM_TILE, SSIM_TILE + SSIM_WINDOW - 1))
    for i in range(SSIM_TILE):
        band[i, i : i + SSIM_WINDOW] = taps
    return band


def ssim(ref, test) -> float:
    """Mean local SSIM, 11x11 Gaussian window (std 1.5), unit dynamic range.

    Windows are evaluated at fully interior positions (no padding).
    """
    ref, test = _check_pair(ref, test)
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    t, k = SSIM_TILE, SSIM_WINDOW - 1
    band = _band_matrix()
    # A column tile's t outputs read its own t columns through band.T[:t] and
    # the first k columns of the next tile through band.T[t:].
    own, spill = band.T[:t], band.T[t:]
    height, width = ref.shape
    out_h, out_w = height - k, width - k
    # Rows are cut into tiles of t columns plus one spare tile, so that every
    # tile holding an output column has its right neighbour in the same row.
    padded = (-(-out_w // t) + 1) * t
    moments = np.zeros((t + k, 5, padded))  # x, y, x², y², xy of one band
    vert = np.empty((t, 5, padded))
    win = np.empty((t, 5, padded))
    total = 0.0
    for r0 in range(0, out_h, t):
        rows = min(t, out_h - r0)
        x, y = ref[r0 : r0 + rows + k], test[r0 : r0 + rows + k]
        m = moments[: rows + k, :, :width]
        m[:, 0] = x
        m[:, 1] = y
        np.multiply(x, x, out=m[:, 2])
        np.multiply(y, y, out=m[:, 3])
        np.multiply(x, y, out=m[:, 4])
        # vertical pass: one product for all five moments of the band
        np.matmul(band[:rows, : rows + k], moments[: rows + k].reshape(rows + k, -1),
                  out=vert[:rows].reshape(rows, -1))
        # horizontal pass: one product over every column tile, plus the spill
        # from the next tile; a row's spare tile takes the next row's first
        # tile as its neighbour, but its outputs are dropped
        tiles = vert[:rows].reshape(-1, t)
        out = win[:rows].reshape(-1, t)
        np.matmul(tiles, own, out=out)
        out[:-1] += tiles[1:, :k] @ spill
        mu1, mu2, xx, yy, xy = (win[:rows, i, :out_w] for i in range(5))
        mu12 = mu1 * mu2
        mu_sq = mu1 * mu1
        mu_sq += mu2 * mu2
        num = 2.0 * mu12 + SSIM_C1
        num *= 2.0 * (xy - mu12) + SSIM_C2
        den = xx + yy
        den -= mu_sq
        den += SSIM_C2
        mu_sq += SSIM_C1
        den *= mu_sq
        num /= den
        total += float(np.sum(num))
    return total / (out_h * out_w)


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
    return _upsample_axis0(_upsample_axis0(lr, f).T, f).T
