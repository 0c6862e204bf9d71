"""Annealed split-Gibbs outer loop.

Alternates the exact Gaussian data-consistency draw with the reverse-diffusion
prior refinement while the coupling width rho decays exponentially down to a
floor.  Once the floor engages the chain samples at fixed coupling; posterior
samples are collected from that stationary phase and averaged into the final
reconstruction.  A chain is an iterate and an rng; each step returns a new
iterate and never writes into the old one, so samples need no copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pnpdm.images import as_image
from pnpdm.likelihood import LikelihoodModel, sample_conditional
from pnpdm.prior_step import Denoiser, SdeConfig, prior_refine

@dataclass(frozen=True)
class AnnealSchedule:
    """Exponential coupling decay rho_q = alpha^q rho0, clamped at rho_min."""

    rho0: float = 10.0
    rho_min: float = 0.3
    alpha: float = 0.9

    def __post_init__(self):
        if not self.rho0 >= self.rho_min > 0:
            raise ValueError(f"need rho0 >= rho_min > 0, got {self.rho0}, {self.rho_min}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def clamp_iteration(self) -> int:
        """First q at which the floor engages."""
        return math.ceil(math.log(self.rho_min / self.rho0) / math.log(self.alpha))


def rho_at(schedule: AnnealSchedule, q: int) -> float:
    if q < 0:
        raise ValueError(f"iteration index must be >= 0, got {q}")
    return max(schedule.alpha**q * schedule.rho0, schedule.rho_min)


@dataclass(frozen=True)
class RunConfig:
    """Chain length and collection policy.

    Samples taken during annealing are not draws from the target posterior,
    hence the burn-in (``AnnealSchedule.clamp_iteration`` or more).
    """

    iterations: int
    burn_in: int
    collect_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"need 0 <= burn_in < iterations, got {self.burn_in}, {self.iterations}"
            )
        if self.collect_every < 1:
            raise ValueError(f"collect_every must be >= 1, got {self.collect_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def initialize(model: LikelihoodModel) -> np.ndarray:
    """Minimum-norm backprojection A^T y / s^2: each pixel of y across its block."""
    return model.operator.pseudo_inverse(model.measurement)


def sgs_step(x: np.ndarray, rho: float, model: LikelihoodModel, denoise: Denoiser,
             sde: SdeConfig, rng: np.random.Generator) -> np.ndarray:
    """One likelihood + prior alternation at coupling rho; x is not written."""
    z = sample_conditional(model, x, rho, rng)
    return prior_refine(z, rho, denoise, sde, rng)


def run_chain(model: LikelihoodModel, denoise: Denoiser,
              schedule: AnnealSchedule, sde: SdeConfig, cfg: RunConfig,
              x_init: np.ndarray,
              callback=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Run one chain; returns collected samples and their clamped pixel mean.

    ``callback(q, rho, x)`` is invoked after every iteration when given.
    """
    x = as_image(x_init)
    if x.shape != model.operator.in_shape:
        raise ValueError(
            f"x_init shape {x.shape} != problem shape {model.operator.in_shape}"
        )
    rng = np.random.default_rng(cfg.seed)
    samples: list[np.ndarray] = []
    for q in range(cfg.iterations):
        rho = rho_at(schedule, q)
        x = sgs_step(x, rho, model, denoise, sde, rng)
        if callback is not None:
            callback(q, rho, x)
        if q >= cfg.burn_in and (q - cfg.burn_in) % cfg.collect_every == 0:
            samples.append(x)
    return samples, sample_mean(samples)


def sample_mean(samples: list[np.ndarray]) -> np.ndarray:
    """Pixel mean of the samples, clamped to [0, 1].

    Sums in list order into one accumulator and divides once, which gives the
    same bits as ``np.mean(samples, axis=0)`` without stacking the samples.
    """
    total = samples[0].copy()
    for sample in samples[1:]:
        total += sample
    total /= len(samples)
    return np.clip(total, 0.0, 1.0, out=total)
