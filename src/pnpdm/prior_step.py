"""Diffusion prior refinement: reverse-time SDE integration from a coupling level.

The latent z is treated as a sample of the prior smoothed to noise level rho
(variance-exploding convention, sigma(t) = t).  Integrating the reverse SDE

    dx = -2 sigma * score(x, sigma) dt + sqrt(2 sigma) dw      (t = sigma)

down a power-law sigma grid draws from the prior conditioned on z, with the
score supplied through a posterior-mean denoiser:

    score(x, sigma) = (denoise(x, sigma) - x) / sigma^2

Discretization.  Per step sigma -> sigma', the drift uses the exactly
integrated coefficient (the Euler-Maruyama increment 2*sigma*dt replaced by
its exact integral sigma^2 - sigma'^2, to which it agrees at first order):

    x <- x + (1 - sigma'^2/sigma^2) * (denoise(x, sigma) - x)

The injected noise carries the exact reverse-transition variance

    sigma'^2 (1 - r) + (1 - r)^2 sigma^2 J,   r = sigma'^2/sigma^2

where J is the per-pixel Tweedie factor d denoise/dx (the conditional
variance of the clean pixel is sigma^2 J).  A denoiser that is a bound method
of an object offering ``denoise_with_tweedie(x, sigma) -> (estimate, J)``, as
the analytic priors and the bridge client do, supplies J with its estimate, in
one call per step; between the modes of a mixture J exceeds 1.  Any other
denoiser is a black box: a plain callable, or, behind the bridge, a served
function whose owner has no factor of its own.  For it ``probe_tweedie``
estimates J by one finite-difference call per step,
(denoise(x + eps) - denoise(x)) / eps, clipped below at 0.  For Gaussian
priors each step sigma -> sigma' >= sigma_floor is an exact transition, so
the step count controls cost rather than bias; a plain first-order noise term
would need far finer grids to meet the statistical tolerances.

The refine as a whole is not an exact draw of x | z: after the last step it
jumps deterministically to the posterior mean denoise(x, sigma_floor),
injecting no noise for the remaining sigma_floor -> 0.  For a Gaussian prior
of variance c, started at rho, the result then has variance

    c^2 (rho^2 - sigma_floor^2) / ((c + sigma_floor^2) (c + rho^2))

per pixel, below the exact x | z variance c rho^2 / (c + rho^2); at
c = 4e-4, rho = 0.04 and sigma_floor = 0.008 that is 0.83 of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Pluggable posterior-mean denoiser: (noisy image, noise level) -> estimate of
# the clean image; dims preserved.
Denoiser = Callable[[np.ndarray, float], np.ndarray]

# Intermediate iterates legitimately leave [0, 1]; only this loose clamp is
# applied during integration (hard mid-chain clamping biases the sampler).
_CLAMP_LO = -0.5
_CLAMP_HI = 1.5


@dataclass(frozen=True)
class SdeConfig:
    """Discretization of the reverse SDE.

    num_steps: steps per prior refinement, each with the exactly integrated
        drift and the exact reverse-transition noise variance (module docstring).
    sigma_floor: smallest integration noise level before the final jump.
    """

    num_steps: int = 20
    sigma_floor: float = 0.01

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.sigma_floor <= 0:
            raise ValueError(f"sigma_floor must be > 0, got {self.sigma_floor}")


def sigma_grid(start: float, cfg: SdeConfig) -> np.ndarray:
    """K+1 strictly decreasing noise levels from start down to the floor:
    level k is (start^(1/7) + k/K (floor^(1/7) - start^(1/7)))^7, the EDM grid
    of Karras et al. (2022), which spends its steps near the floor."""
    if start <= cfg.sigma_floor:
        raise ValueError(f"start {start} must exceed sigma_floor {cfg.sigma_floor}")
    inv = 1.0 / 7.0
    frac = np.arange(cfg.num_steps + 1) / cfg.num_steps
    grid = (start**inv + frac * (cfg.sigma_floor**inv - start**inv)) ** 7.0
    grid[0] = start
    grid[-1] = cfg.sigma_floor
    return grid


# Finite-difference step for the Tweedie-factor probe.
_PROBE_EPS = 1e-3


def _clipped(estimate: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A denoiser output clamped into ``out``, whose shape it must have."""
    if np.shape(estimate) != out.shape:
        raise ValueError(f"denoiser changed shape {out.shape} -> {np.shape(estimate)}")
    return np.clip(estimate, _CLAMP_LO, _CLAMP_HI, out=out)


def exact_tweedie(denoise: Denoiser):
    """The ``denoise_with_tweedie`` of the object ``denoise`` is bound to, or None."""
    return getattr(getattr(denoise, "__self__", None), "denoise_with_tweedie", None)


def probe_tweedie(denoise: Denoiser, x: np.ndarray, sigma: float, step: np.ndarray,
                  out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The black-box estimate and Tweedie factor at x: clip(denoise(x, sigma))
    into ``step``, then (clip(denoise(x + eps, sigma)) - step) / eps, clipped
    below at 0, into ``out``.  The first call's output is released before the
    second call; x is not written.  Returns (step, out)."""
    _clipped(denoise(x, sigma), step)
    tweedie = _clipped(denoise(np.add(x, _PROBE_EPS, out=out), sigma), out)
    tweedie -= step
    tweedie /= _PROBE_EPS
    return step, np.maximum(tweedie, 0.0, out=tweedie)


def _noise_scale(tweedie: np.ndarray | float, base: float, slope: float,
                 out: np.ndarray) -> np.ndarray | float:
    """sqrt(base + slope * tweedie), in ``out`` unless the factor is a scalar."""
    if np.ndim(tweedie) == 0:
        return np.sqrt(base + slope * tweedie)
    scale = np.multiply(tweedie, slope, out=out)
    scale += base
    return np.sqrt(scale, out=scale)


def prior_refine(z: np.ndarray, rho: float, denoise: Denoiser, cfg: SdeConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw x | z: integrate the reverse SDE from rho, starting at z.

    The iterate x starts as a copy of z.  The steps write only into x and two
    full-size buffers allocated once per call: the clamped step, into which
    the noise is drawn once the step is spent, and the noise variance, which
    first carries the black-box probe's input x + eps and then its factor.
    A step's denoiser outputs are released before the next denoiser call.
    Neither z nor any array a denoiser returns is written, so a denoiser may
    return an array it keeps.  The returned sample is a new array.  A
    ``GmmPrior`` denoiser adds block scratch of (K + 6)·min(N, _BLOCK)·8 bytes
    per call, freed on its return (see ``GmmPrior.denoise_with_tweedie``).
    """
    z = np.asarray(z, dtype=np.float64)
    grid = sigma_grid(rho, cfg)
    exact = exact_tweedie(denoise)
    x = z.copy()
    step, var = np.empty_like(x), np.empty_like(x)
    for sigma, sigma_next in zip(grid[:-1], grid[1:]):
        sigma = float(sigma)
        if exact is not None:
            estimate, tweedie = exact(x, sigma)
            _clipped(estimate, step)
            del estimate  # before the next step's call
        else:
            _, tweedie = probe_tweedie(denoise, x, sigma, step, var)
        shrink = 1.0 - sigma_next**2 / sigma**2
        scale = _noise_scale(tweedie, sigma_next**2 * shrink, shrink**2 * sigma**2, var)
        del tweedie  # before the next step's call
        step -= x
        step *= shrink
        x += step
        rng.standard_normal(out=step)
        step *= scale
        x += step
    return np.clip(denoise(x, float(grid[-1])), _CLAMP_LO, _CLAMP_HI)
