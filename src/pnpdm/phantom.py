"""Synthetic layered B-scan-like phantoms with multiplicative speckle.

The clean scene is piecewise constant between quadratic interface curves; the
speckled variant multiplies it by mean-1 Gamma noise of shape L (relative
variance 1/L), the standard fully/partially developed speckle model.  The
degradation pipeline matches the likelihood model exactly: block averaging
followed by additive Gaussian pixel noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pnpdm.images import MAX_DIM, as_image
from pnpdm.operators import block_average_downsample


@dataclass(frozen=True)
class Layer:
    """Tissue band below the interface depth(col) = c0 + c1*col + c2*col^2."""

    depth: tuple[float, float, float]
    brightness: float

    def depth_at(self, cols: np.ndarray) -> np.ndarray:
        c0, c1, c2 = self.depth
        return c0 + c1 * cols + c2 * cols * cols


@dataclass(frozen=True)
class PhantomSpec:
    height: int
    width: int
    layers: tuple[Layer, ...] = ()
    speckle_shape: float = 6.0
    background: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # a side PNPI cannot hold is refused before any image is built
        for name, side in (("height", self.height), ("width", self.width)):
            if not 1 <= side <= MAX_DIM:
                raise ValueError(f"{name} must be in [1, {MAX_DIM}], got {side}")
        if self.speckle_shape <= 0:
            raise ValueError(f"speckle_shape must be > 0, got {self.speckle_shape}")
        if not 0.0 <= self.background <= 1.0:
            raise ValueError(f"background must be in [0, 1], got {self.background}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        center = np.array([self.width / 2.0])
        depths = [float(layer.depth_at(center)[0]) for layer in self.layers]
        if depths != sorted(depths):
            raise ValueError("layer interfaces must be sorted by depth at the center column")
        for layer in self.layers:
            if not 0.0 <= layer.brightness <= 1.0:
                raise ValueError(f"brightness must be in [0, 1], got {layer.brightness}")


def generate_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    """Clean piecewise-constant scene and its speckled counterpart.

    The clean image depends only on the geometry; the speckle realization is
    deterministic in spec.seed.
    """
    cols = np.arange(spec.width, dtype=np.float64)
    rows = np.arange(spec.height, dtype=np.float64)[:, None]
    clean = np.full((spec.height, spec.width), spec.background)
    for layer in spec.layers:
        clean = np.where(rows >= layer.depth_at(cols), layer.brightness, clean)
    rng = np.random.default_rng(spec.seed)
    gain = rng.gamma(spec.speckle_shape, 1.0 / spec.speckle_shape, size=clean.shape)
    speckled = np.clip(clean * gain, 0.0, 1.0)
    return clean, speckled


def degrade(clean_hr, f: int, sigma_y: float, seed: int) -> np.ndarray:
    """Block-average by f then add N(0, sigma_y^2) pixel noise (the generative
    process the likelihood model assumes)."""
    if sigma_y < 0:
        raise ValueError(f"sigma_y must be >= 0, got {sigma_y}")
    clean_hr = as_image(clean_hr)
    op = block_average_downsample(f, *clean_hr.shape)
    lr = op.apply(clean_hr)
    return lr + sigma_y * np.random.default_rng(seed).standard_normal(lr.shape)
