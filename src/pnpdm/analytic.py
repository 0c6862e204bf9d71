"""Exactly solvable priors and closed-form posterior oracles.

These back the verification suite: a Gaussian (diagonal-covariance) prior and
a pixelwise Gaussian-mixture prior both implement the posterior-mean denoiser
contract E[x0 | x0 + sigma * eps], so the full sampling pipeline can be
checked against closed-form answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pnpdm.likelihood import LikelihoodModel

_LOG_2PI = np.log(2.0 * np.pi)

# Pixels per block of the fused GMM pass, a multiple of 8: wider blocks make fewer numpy
# calls, each about 11 µs of GIL hand-off beside a second chain thread.  At 128^2, 8192
# makes two blocks, whose scratch breaks the memory guard by about 5 KB; 8184 makes three.
_BLOCK = 8184

# Floor of the max-shifted log-weights in the fused GMM pass.  exp of a value
# below about -708 is a subnormal float, on which numpy's exp and the moments
# product run many times slower; at small sigma, where the EDM grid spends most
# of its steps, the log-weights of components far from a pixel fall that low,
# and a few percent of them slow a whole block.  The floor is low enough to
# change no bit of any sum: K·e^-600 lies far below half an ulp of each sum's
# leading term, the component whose responsibility is exactly 1 (for any
# leading term above 1e-243 of the largest entry in its row of moments).  It
# is high enough that e^-600 ≈ 2.7e-261 times any moment entry above 1e-47 is
# still a normal float.
_LOG_FLOOR = -600.0


def _aligned(size: int) -> np.ndarray:
    """An uninitialized float64 array of ``size`` values on a 64-byte line."""
    buffer = np.empty(size + 7)
    return buffer[-buffer.__array_interface__["data"][0] % 64 // 8:][:size]


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


@dataclass(frozen=True)
class GaussianPrior:
    """N(mean, diag(variance)); mean/variance broadcast against image shapes."""

    mean: np.ndarray | float
    variance: np.ndarray | float

    def __post_init__(self):
        variance = np.asarray(self.variance, dtype=np.float64)
        if not (np.all((variance > 0) & (variance < np.inf)) and np.isfinite(self.mean).all()):
            raise ValueError("variance entries must be finite and > 0, mean entries finite")

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
        # (x - mean) * gain + mean, in one array: + and * commute bit for bit
        estimate = np.subtract(x, self.mean, out=np.empty(np.broadcast(x, self.mean, gain).shape))
        estimate *= gain
        estimate += self.mean
        return estimate, gain

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
        total = sum(w.tolist())  # a Python sum overflows to inf without a warning
        if not (np.all((w > 0) & (c > 0) & (c < np.inf)) and np.isfinite([total, *mu]).all()):
            raise ValueError("weights, their sum and variances must be finite and > 0, "
                             "means finite")
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", c)

    def _coefficients(self, sigma: float) -> np.ndarray:
        """(K, 3) coefficients of the powers (1, x, x^2) in the quadratic
        log-weights log w_k N(x; mu_k, c_k + sigma^2) + log(2 pi) / 2."""
        var = self.variances + sigma**2
        return np.stack([
            np.log(self.weights) - 0.5 * (np.log(var) + self.means**2 / var),
            self.means / var,
            -0.5 / var,
        ], axis=1)

    def denoise(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Responsibility-weighted mixture of per-component posterior means."""
        return self.denoise_with_tweedie(x, sigma)[0]

    def denoise_with_tweedie(self, x: np.ndarray,
                             sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and Tweedie factor Var[x0 | x] / sigma^2, in one pass.

        The (K, N) log-weights are one (K, 3) @ (3, N) product of
        ``_coefficients`` and the powers (1, x, x^2).  Component k's
        posterior mean m_k = (1 - g_k) mu_k + g_k x, g_k = c_k / (c_k + sigma^2),
        is linear in x, so after the max-subtract, the floor at ``_LOG_FLOOR``
        and exp, one (6, K) @ (K, N) product of the responsibilities r_k gives
        every sum that

            E[x0 | x] = sum_k r_k m_k / sum_k r_k
            Var[x0 | x] = sigma^2 sum_k r_k g_k / sum_k r_k
                          + sum_k r_k m_k^2 / sum_k r_k - E[x0 | x]^2

        needs.  The floor changes no result: a floored responsibility is below
        half an ulp of every sum's leading term.  It keeps every r_k and every
        product in the sums a normal float, so a call costs the same at every
        sigma instead of slowing on subnormals as sigma falls.

        The pass walks the flat image in ceil(N / _BLOCK) blocks of near-equal
        width, so no one-pixel block follows wider ones: numpy would send its
        matmuls to BLAS's matrix-vector routine, which rounds differently.
        Interior bounds are multiples of 8, and the scratch and the (2, N)
        result (rows mean, factor) start on a 64-byte line, so each row of a
        block but the last does too.  The blocks share two scratch arrays,
        (K + 6)·b·8 bytes for the widest block b, freed on return: r (K, b) and
        the sums (6, b), rows (total, s_offset, s_sq, s_gain, s_gain_sq, s_cross),
        the first four holding the powers and the column max before the product.
        """
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1)
        gain = self.variances / (self.variances + sigma**2)
        offset = (1.0 - gain) * self.means
        coefficients = self._coefficients(sigma)
        moments = np.stack([np.ones_like(gain), offset, offset**2, gain, gain**2,
                            2.0 * offset * gain])
        results = _aligned(-(-flat.size // 8) * 16).reshape(2, -1)[:, :flat.size]
        blocks = max(1, -(-flat.size // _BLOCK))
        bounds = [-(-flat.size * i // (8 * blocks)) * 8 for i in range(blocks)] + [flat.size]
        r_scratch, sums_scratch = _aligned(gain.size * bounds[1]), _aligned(6 * bounds[1])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            xs, out = flat[start:stop], results[:, start:stop]
            m, f = out
            # Prefixes of the scratch keep a short last block contiguous.
            r = r_scratch[:gain.size * xs.size].reshape(gain.size, xs.size)
            sums = sums_scratch[:6 * xs.size].reshape(6, xs.size)
            sums[0] = 1.0
            sums[1] = xs
            np.multiply(xs, xs, out=sums[2])
            np.matmul(coefficients, sums[:3], out=r)
            r -= np.max(r, axis=0, out=sums[3])
            np.maximum(r, _LOG_FLOOR, out=r)
            np.exp(r, out=r)
            total, s_offset, s_sq, s_gain, s_gain_sq, s_cross = np.matmul(moments, r, out=sums)
            # mean = (x s_gain + s_offset) / total and
            # factor = s_gain / total + max(spread, 0) / sigma^2, where
            # spread = ((x s_gain_sq + s_cross) x + s_sq) / total - mean^2
            np.multiply(xs, sums[3:5], out=out)
            f += s_cross
            f *= xs
            out += sums[1:3]
            out /= total
            f -= np.square(m, out=s_sq)
            np.maximum(f, 0.0, out=f)
            f /= sigma**2
            s_gain /= total
            f += s_gain
        return results[0].reshape(x.shape), results[1].reshape(x.shape)

    def log_density_smoothed(self, x: np.ndarray, sigma: float) -> float:
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1)
        log_w = self._coefficients(sigma) @ np.stack([np.ones_like(flat), flat, flat * flat])
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
