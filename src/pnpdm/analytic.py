"""Exactly solvable priors and closed-form posterior oracles.

These back the verification suite: a Gaussian (diagonal-covariance) prior and
a pixelwise Gaussian-mixture prior both implement the posterior-mean denoiser
contract E[x0 | x0 + sigma * eps], so the full sampling pipeline can be
checked against closed-form answers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from pnpdm.likelihood import LikelihoodModel

_LOG_2PI = np.log(2.0 * np.pi)

# Per-thread buffers of the fused GMM pass: chains share one prior under
# ``--threads``, so a buffer shared across threads would be overwritten mid-pass.
_workspace = threading.local()


def _gmm_workspace(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's (K, N) responsibility and (6, N) sum buffers.

    One pair per thread, for the last (K, N) seen: a call with another shape
    replaces it, and the thread's exit frees it.
    """
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].shape != (k, n):
        buffers = (np.empty((k, n)), np.empty((6, n)))
        _workspace.buffers = buffers
    return buffers


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


@dataclass(frozen=True)
class GaussianPrior:
    """N(mean, diag(variance)); mean/variance broadcast against image shapes."""

    mean: np.ndarray | float
    variance: np.ndarray | float

    def __post_init__(self):
        if np.any(np.asarray(self.variance) <= 0):
            raise ValueError("variance entries must be > 0")

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """E[x0 | x0 + sigma*eps = x] = mean + C (C + sigma^2 I)^-1 (x - mean)."""
        return self.denoise_with_tweedie(x, sigma)[0]

    def denoise_with_tweedie(self, x: np.ndarray,
                             sigma: float) -> tuple[np.ndarray, np.ndarray | float]:
        """Posterior mean and Tweedie factor d denoise/dx = Var[x0 | x] / sigma^2.

        The factor is the gain C / (C + sigma^2), shaped like the variance
        parameter (a scalar when the variance is one).
        """
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        gain = self.variance / (self.variance + sigma**2)
        return self.mean + gain * (x - self.mean), gain

    def log_density_smoothed(self, x: np.ndarray, sigma: float) -> float:
        """log of the sigma-smoothed prior density at x (sum over pixels)."""
        x = np.asarray(x, dtype=np.float64)
        var = np.broadcast_to(np.asarray(self.variance, dtype=np.float64) + sigma**2,
                              x.shape)
        resid = x - self.mean
        return float(np.sum(-0.5 * (resid * resid / var + np.log(var) + _LOG_2PI)))

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return self.mean + np.sqrt(self.variance) * rng.standard_normal(shape)


@dataclass(frozen=True)
class GmmPrior:
    """Pixelwise-independent scalar Gaussian mixture prior.

    Every pixel is i.i.d. sum_k w_k N(mu_k, c_k) with scalar component means
    and variances; multimodal enough to expose mode collapse while keeping
    the quadrature oracle one-dimensional.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        c = np.asarray(self.variances, dtype=np.float64)
        if w.ndim != 1 or w.size < 1 or mu.shape != w.shape or c.shape != w.shape:
            raise ValueError("weights, means, variances must be equal-length 1-D")
        if np.any(w <= 0) or np.any(c <= 0):
            raise ValueError("weights and variances must be > 0")
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", c)

    def _log_weights(self, flat: np.ndarray, sigma: float, out: np.ndarray | None = None,
                     powers: np.ndarray | None = None) -> np.ndarray:
        """(K, N) log w_k N(x; mu_k, c_k + sigma^2) + log(2 pi) / 2 of a flat x.

        The log-weight is quadratic in x, so one (K, 3) @ (3, N) product of
        the coefficients and the powers (1, x, x^2) gives all of them.  The
        product is written into ``out`` and the powers into ``powers`` when
        given, else into new arrays.
        """
        var = self.variances + sigma**2
        coefficients = np.stack([
            np.log(self.weights) - 0.5 * (np.log(var) + self.means**2 / var),
            self.means / var,
            -0.5 / var,
        ], axis=1)
        if powers is None:
            powers = np.empty((3, flat.size))
        powers[0] = 1.0
        powers[1] = flat
        np.multiply(flat, flat, out=powers[2])
        return np.matmul(coefficients, powers, out=out)

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Responsibility-weighted mixture of per-component posterior means."""
        return self.denoise_with_tweedie(x, sigma)[0]

    def denoise_with_tweedie(self, x: np.ndarray,
                             sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and Tweedie factor Var[x0 | x] / sigma^2, in one pass.

        The component log-weights come from ``_log_weights``.  Component k's
        posterior mean m_k = (1 - g_k) mu_k + g_k x, g_k = c_k / (c_k + sigma^2),
        is linear in x, so after the max-subtract and exp one (6, K) @ (K, N)
        product of the responsibilities r_k gives every sum that

            E[x0 | x] = sum_k r_k m_k / sum_k r_k
            Var[x0 | x] = sigma^2 sum_k r_k g_k / sum_k r_k
                          + sum_k r_k m_k^2 / sum_k r_k - E[x0 | x]^2

        needs.

        The pass runs in this thread's workspace: the responsibilities r
        (K, N) and the six sums (6, N), whose first four rows hold the powers
        (1, x, x^2) and the column max before the product overwrites them.
        That is (K + 6)·N·8 bytes per thread, kept for the last (K, N) seen
        and freed when the thread exits or a call with another (K, N) replaces
        it.  The returned mean and factor are new arrays, never views of it,
        so a warm call allocates only those two N-arrays.
        """
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        gain = self.variances / (self.variances + sigma**2)
        offset = (1.0 - gain) * self.means
        flat = x.reshape(-1)
        r, sums = _gmm_workspace(gain.size, flat.size)
        self._log_weights(flat, sigma, out=r, powers=sums[:3])
        r -= np.max(r, axis=0, out=sums[3])
        np.exp(r, out=r)
        moments = np.stack([np.ones_like(gain), offset, gain,
                            offset**2, 2.0 * offset * gain, gain**2])
        total, s_offset, s_gain, s_sq, s_cross, s_gain_sq = np.matmul(moments, r, out=sums)
        # mean = (s_offset + x s_gain) / total
        mean = np.multiply(flat, s_gain)
        mean += s_offset
        mean /= total
        # factor = s_gain / total + max(spread, 0) / sigma^2, where
        # spread = (s_sq + x (s_cross + x s_gain_sq)) / total - mean^2
        factor = np.multiply(flat, s_gain_sq)
        factor += s_cross
        factor *= flat
        factor += s_sq
        factor /= total
        factor -= np.square(mean, out=s_sq)
        np.maximum(factor, 0.0, out=factor)
        factor /= sigma**2
        s_gain /= total
        factor += s_gain
        return mean.reshape(x.shape), factor.reshape(x.shape)

    def log_density_smoothed(self, x: np.ndarray, sigma: float) -> float:
        x = np.asarray(x, dtype=np.float64)
        log_w = self._log_weights(x.reshape(-1), sigma)
        peak = log_w.max(axis=0)
        per_pixel = peak + np.log(np.exp(log_w - peak).sum(axis=0))
        return float(per_pixel.sum()) - 0.5 * _LOG_2PI * x.size

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        k = rng.choice(self.weights.size, size=shape, p=self.weights)
        return self.means[k] + np.sqrt(self.variances[k]) * rng.standard_normal(shape)


def gaussian_posterior_oracle(prior: GaussianPrior,
                              model: LikelihoodModel) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian posterior mean and per-pixel marginal variances.

    Dense evaluation of N((C^-1 + A^T A / s^2)^-1 (C^-1 mu + A^T y / s^2), ...);
    restricted to n <= 4096 since it materializes A and inverts n x n.
    """
    op = model.operator
    if op.n > 4096:
        raise ValueError(f"dense oracle limited to n <= 4096, got {op.n}")
    a = dense_matrix(op)
    c_inv = np.broadcast_to(
        1.0 / np.asarray(prior.variance, dtype=np.float64), op.in_shape
    ).ravel()
    mu = np.broadcast_to(np.asarray(prior.mean, dtype=np.float64), op.in_shape).ravel()
    s2 = model.noise_sigma**2
    precision = np.diag(c_inv) + a.T @ a / s2
    cov = np.linalg.inv(precision)
    rhs = c_inv * mu + a.T @ model.measurement.ravel() / s2
    mean = cov @ rhs
    return mean.reshape(op.in_shape), np.diag(cov).copy()


def dense_matrix(op) -> np.ndarray:
    """Materialize an operator as an m x n matrix (test/oracle use only)."""
    a = np.empty((op.m, op.n))
    basis = np.zeros(op.n)
    for j in range(op.n):
        basis[j] = 1.0
        a[:, j] = op.apply(basis.reshape(op.in_shape)).ravel()
        basis[j] = 0.0
    return a
