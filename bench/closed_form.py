"""Reference computations for the benchmark, in plain numpy.

Nothing here imports ``pnpdm``: the benchmark checks the program's outputs
against these functions, so they must not share code with it.

* PNPI image IO (magic ``PNPI``, u32 height, width, reserved; f32 pixels).
* PSNR, SSIM (11x11 Gaussian window, std 1.5, interior positions only) and
  Catmull-Rom cubic upsampling, written independently of ``pnpdm.metrics``.
* The Gaussian posterior of a block-averaging measurement under a pixelwise
  Gaussian prior, per f x f block by Sherman-Morrison.
* The Monte-Carlo error of the split-Gibbs sample mean on that problem, from
  the exact autoregressive law of the chain (see ``chain_mean_error``).
"""

from __future__ import annotations

import math
import struct

import numpy as np

_PNPI = struct.Struct("<4sIII")


def read_pnpi(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, h, w, reserved = _PNPI.unpack_from(raw)
    if magic != b"PNPI" or reserved != 0 or len(raw) != _PNPI.size + 4 * h * w:
        raise ValueError(f"{path}: not a well-formed PNPI file")
    return np.frombuffer(raw, "<f4", offset=_PNPI.size).astype(np.float64).reshape(h, w)


def write_pnpi(path, img: np.ndarray) -> None:
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(_PNPI.pack(b"PNPI", h, w, 0) + np.asarray(img, "<f4").tobytes())


def to_f32(img: np.ndarray) -> np.ndarray:
    """The values an image takes after a round trip through a PNPI file."""
    return np.asarray(img, np.float32).astype(np.float64)


def block_mean(x: np.ndarray, f: int) -> np.ndarray:
    h, w = x.shape
    return x.reshape(h // f, f, w // f, f).mean(axis=(1, 3))


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((ref - test) ** 2)))


def _filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable 'valid' correlation with the outer product of g with itself."""
    k = g.size
    rows = sum(g[i] * img[i: img.shape[0] - k + 1 + i] for i in range(k))
    return sum(g[j] * rows[:, j: img.shape[1] - k + 1 + j] for j in range(k))


def ssim(ref: np.ndarray, test: np.ndarray) -> float:
    g = np.exp(-np.arange(-5, 6) ** 2 / (2.0 * 1.5**2))
    g /= g.sum()
    c1, c2 = 0.01**2, 0.03**2
    mu1, mu2 = _filter_valid(ref, g), _filter_valid(test, g)
    var1 = _filter_valid(ref * ref, g) - mu1**2
    var2 = _filter_valid(test * test, g) - mu2**2
    cov = _filter_valid(ref * test, g) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * cov + c2)
    den = (mu1**2 + mu2**2 + c1) * (var1 + var2 + c2)
    return float(np.mean(num / den))


def _keys_kernel(d: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5 (Catmull-Rom)."""
    d = np.abs(d)
    near = 1.5 * d**3 - 2.5 * d**2 + 1.0
    far = -0.5 * d**3 + 2.5 * d**2 - 4.0 * d + 2.0
    return np.where(d <= 1.0, near, np.where(d < 2.0, far, 0.0))


def _upsample_matrix(n: int, f: int) -> np.ndarray:
    """(n*f, n) interpolation matrix; LR centres sit on HR block centres and
    samples beyond the border are extrapolated linearly from the two nearest."""
    centres = (np.arange(n * f) + 0.5) / f - 0.5
    base = np.floor(centres)
    out = np.zeros((n * f, n))
    rows = np.arange(n * f)
    for offset in (-1, 0, 1, 2):
        j = base + offset
        weight = _keys_kernel(centres - j)
        j = j.astype(int)
        for k in range(n * f):
            if 0 <= j[k] < n:
                out[rows[k], j[k]] += weight[k]
            elif j[k] < 0:  # x[j] = x[0] - j (x[0] - x[1])
                out[rows[k], 0] += weight[k] * (1 - j[k])
                out[rows[k], 1] += weight[k] * j[k]
            else:  # x[j] = x[n-1] + (j - n + 1) (x[n-1] - x[n-2])
                beyond = j[k] - n + 1
                out[rows[k], n - 1] += weight[k] * (1 + beyond)
                out[rows[k], n - 2] -= weight[k] * beyond
    return out


def bicubic_upsample(lr: np.ndarray, f: int) -> np.ndarray:
    rows = _upsample_matrix(lr.shape[0], f)
    cols = _upsample_matrix(lr.shape[1], f)
    return rows @ lr @ cols.T


def coupled_noise_var(sigma_y: float, rho: float, f: int) -> float:
    """Noise variance of the split-Gibbs x-marginal at fixed coupling rho.

    Integrating z out of N(z; x, rho^2 I) N(y; A z, sigma_y^2 I) leaves
    y ~ N(A x, sigma_y^2 I + rho^2 A A^T), and A A^T = I / f^2 for f x f
    block averaging.
    """
    return sigma_y**2 + rho**2 / f**2


def gaussian_block_posterior(mu, c, y: np.ndarray, f: int,
                             noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and per-pixel variance of x ~ N(mu, diag c) given
    y = block_mean(x) + N(0, noise_var).

    Blocks are independent; in one block y_b = a sum_i x_i + e with a = 1/f^2,
    a rank-one update of a diagonal prior (Sherman-Morrison).
    """
    shape = (y.shape[0] * f, y.shape[1] * f)
    mu = np.broadcast_to(np.asarray(mu, np.float64), shape)
    c = np.broadcast_to(np.asarray(c, np.float64), shape)
    a = 1.0 / f**2
    denom = a * a * f * f * block_mean(c, f) + noise_var  # Var(y_b)
    innovation = (y - a * f * f * block_mean(mu, f)) / denom
    up = lambda b: np.repeat(np.repeat(b, f, axis=0), f, axis=1)  # noqa: E731
    mean = mu + a * c * up(innovation)
    var = c - a * a * c * c / up(denom)
    return mean, var


def _ar1_mean_moments(phi: float, stationary_var: float, start_offset,
                      burn_in: int, samples: int):
    """Bias and variance of the mean of x_{B+1..B+N} for an AR(1) chain
    x_t - m = phi (x_{t-1} - m) + noise started at x_0 - m = start_offset."""
    t = np.arange(burn_in + 1, burn_in + samples + 1, dtype=np.float64)
    bias = np.asarray(start_offset) * np.mean(phi**t)
    s, u = np.meshgrid(t, t)
    cov = phi ** np.abs(s - u) * stationary_var * (1.0 - phi ** (2.0 * np.minimum(s, u)))
    return bias, float(cov.sum()) / samples**2


def chain_mean_error(mu: float, c: float, y: np.ndarray, f: int, sigma_y: float,
                     rho: float, sigma_floor: float, burn_in: int,
                     samples: int) -> tuple[float, float]:
    """Expected sum of squared errors of one chain's sample mean against the
    posterior mean, and its standard deviation.

    Holds for the scalar prior N(mu, c), coupling fixed at rho, a chain started
    at the adjoint upsampling of y and the mean of the samples drawn after
    iterations burn_in .. burn_in + samples - 1.  In the orthonormal basis of
    one block (the normalized block indicator, measured with singular value
    1/f, and f^2 - 1 mean-zero null-space vectors) every coordinate follows
    its own AR(1) chain:

    * z | x: measured, precision 1/(f^2 sigma_y^2) + 1/rho^2; null, N(x, rho^2).
    * x | z: the reverse SDE is exact for a Gaussian prior down to sigma_floor
      and ends with a posterior-mean jump, so x has mean mu + k (z - mu),
      k = c / (c + rho^2), and variance
      c^2 (rho^2 - sigma_floor^2) / ((c + sigma_floor^2) (c + rho^2)).

    The chain's stationary mean is the posterior mean at noise variance
    ``coupled_noise_var``; its stationary variance is not the posterior
    variance, because of the final jump, which is why the tolerance uses the
    chain's own law.
    """
    s = 1.0 / f
    k = c / (c + rho**2)
    jump_var = c * c * (rho**2 - sigma_floor**2) / ((c + sigma_floor**2) * (c + rho**2))

    prec = s * s / sigma_y**2 + 1.0 / rho**2
    phi_m = k / (rho**2 * prec)
    q_m = k * k / prec + jump_var
    post_mean, _ = gaussian_block_posterior(mu, c, y, f, coupled_noise_var(sigma_y, rho, f))
    # measured coordinate = f * block mean; the start replicates y_b per block
    offset = f * y - f * block_mean(post_mean, f)
    bias_m, var_m = _ar1_mean_moments(phi_m, q_m / (1.0 - phi_m**2), offset,
                                      burn_in, samples)

    phi_n = k
    q_n = k * k * rho**2 + jump_var
    _, var_n = _ar1_mean_moments(phi_n, q_n / (1.0 - phi_n**2), 0.0, burn_in, samples)

    nulls = f * f - 1
    expected = float(np.sum(bias_m**2 + var_m)) + y.size * nulls * var_n
    variance = float(np.sum(2.0 * var_m**2 + 4.0 * bias_m**2 * var_m)) \
        + y.size * nulls * 2.0 * var_n**2
    return expected, math.sqrt(variance)
