"""Exact sampling of the Gaussian data-consistency conditional.

Coupling the iterate x to a latent z through a quadratic penalty of width rho
gives z | x the precision A^T A / sigma_y^2 + I / rho^2.  The operators have
A A^T = s^2 I, so with c = 1 / (1 / rho^2 + s^2 / sigma_y^2) the covariance is
c on the measured directions (the range of A^T) and rho^2 on the null space.
One image-space formula draws z exactly from a standard normal image eps,

    z = x + rho eps + A^T [A((c/rho^2 - 1) x + (sqrt(c) - rho) eps) / s^2
                           + c y / sigma_y^2],

and gives the mean with eps = 0.  Both cost O(n).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from pnpdm.images import as_image
from pnpdm.operators import SvdOperator


@dataclass(frozen=True)
class LikelihoodModel:
    """Measurement y = A x + N(0, sigma_y^2 I) with A A^T = s^2 I."""

    operator: SvdOperator
    noise_sigma: float
    measurement: np.ndarray

    def __post_init__(self):
        if self.noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        y = as_image(self.measurement)
        if y.shape != self.operator.out_shape:
            raise ValueError(
                f"measurement shape {y.shape} != operator output {self.operator.out_shape}"
            )
        object.__setattr__(self, "measurement", y)


def data_fidelity(model: LikelihoodModel, x: np.ndarray) -> float:
    """||y - A x||^2 / (2 sigma_y^2)."""
    residual = model.measurement - model.operator.apply(x)
    return float(np.sum(residual * residual)) / (2.0 * model.noise_sigma**2)


def _check_rho(rho: float) -> float:
    # rho^2 must be a normal float for 1/rho^2 to be finite
    if not (rho > 0 and math.isfinite(rho) and rho * rho >= sys.float_info.min):
        raise ValueError(f"rho must be finite and > 0 with a finite 1/rho^2, got {rho}")
    return float(rho)


def _conditional_draw(model: LikelihoodModel, x: np.ndarray, rho: float,
                      eps: np.ndarray) -> tuple[np.ndarray, float]:
    """The draw z(eps) of the module docstring, written into eps; and c."""
    rho = _check_rho(rho)
    op = model.operator
    s2 = op.singular_value**2
    c = 1.0 / (1.0 / rho**2 + s2 / model.noise_sigma**2)
    # A is linear, so A((c/rho^2 - 1) x + (sqrt(c) - rho) eps) is formed from
    # the two small images A x and A eps
    w = op.apply(x) * ((c / rho**2 - 1.0) / s2)
    w += op.apply(eps) * ((math.sqrt(c) - rho) / s2)
    w += model.measurement * (c / model.noise_sigma**2)
    eps *= rho
    eps += x
    return op.add_adjoint(eps, w), c


def conditional_moments(model: LikelihoodModel, x: np.ndarray,
                        rho: float) -> tuple[np.ndarray, float]:
    """Mean image of the z | x conditional and its variance c along the
    measured directions (null-space directions have variance rho^2)."""
    return _conditional_draw(model, x, rho, np.zeros(model.operator.in_shape))


def sample_conditional(model: LikelihoodModel, x: np.ndarray, rho: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Exact draw from the z | x conditional; deterministic given the rng state."""
    eps = rng.standard_normal(model.operator.in_shape)
    return _conditional_draw(model, x, rho, eps)[0]
