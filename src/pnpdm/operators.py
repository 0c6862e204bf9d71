"""Linear forward operators with orthogonal rows of equal norm.

Every operator A here has A A^T = s^2 I for one scalar singular value s, so
A^T A / s^2 projects onto the measured directions and A^T y / s^2 is the
minimum-norm inverse.  Both maps are block-local reshapes, never dense matrix
products, so they scale to 1024x1024 grids.
"""

from __future__ import annotations

import numpy as np

from pnpdm.images import as_image


class SvdOperator:
    """Base class; subclasses implement the maps, the base owns the contract
    A A^T = singular_value^2 I and the shape checks."""

    def __init__(self, in_shape: tuple[int, int], out_shape: tuple[int, int],
                 singular_value: float):
        self.in_shape = in_shape
        self.out_shape = out_shape
        self.singular_value = float(singular_value)

    @property
    def n(self) -> int:
        return self.in_shape[0] * self.in_shape[1]

    @property
    def m(self) -> int:
        return self.out_shape[0] * self.out_shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def add_adjoint(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x += A^T y in place on a float64 image x; returns x."""
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.add_adjoint(np.zeros(self.in_shape), y)

    def pseudo_inverse(self, y: np.ndarray) -> np.ndarray:
        """Minimum-norm solution A^T y / s^2 (zero on the null space)."""
        return self.adjoint(self._check_out(y) / self.singular_value**2)

    def _check_in(self, x: np.ndarray) -> np.ndarray:
        x = as_image(x)
        if x.shape != self.in_shape:
            raise ValueError(f"expected input shape {self.in_shape}, got {x.shape}")
        return x

    def _check_out(self, y: np.ndarray) -> np.ndarray:
        y = as_image(y)
        if y.shape != self.out_shape:
            raise ValueError(f"expected output shape {self.out_shape}, got {y.shape}")
        return y


class BlockAverageOperator(SvdOperator):
    """Average each f x f block to one output pixel.

    Each row of A holds 1/f^2 on one block, so A A^T = I / f^2 and s = 1/f;
    the measured directions are the block-constant images.
    """

    def __init__(self, factor: int, height: int, width: int):
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if height % factor or width % factor:
            raise ValueError(f"factor {factor} must divide dims {height}x{width}")
        super().__init__((height, width), (height // factor, width // factor),
                         1.0 / factor)
        self.factor = factor

    def apply(self, x):
        x = self._check_in(x)
        f = self.factor
        hb, wb = self.out_shape
        return x.reshape(hb, f, wb, f).mean(axis=(1, 3))

    def add_adjoint(self, x, y):
        x = self._check_in(x)
        y = self._check_out(y)
        f = self.factor
        hb, wb = self.out_shape
        # splitting both axes is always a view, so this adds into x itself,
        # broadcasting the small (hb, wb) array without a full-size temporary
        x.reshape(hb, f, wb, f)[...] += (y / (f * f))[:, None, :, None]
        return x


def block_average_downsample(factor: int, height: int, width: int) -> SvdOperator:
    """Block-averaging downsampler mapping (height, width) to (height/f, width/f)."""
    return BlockAverageOperator(factor, height, width)


def identity_operator(height: int, width: int) -> SvdOperator:
    """Identity forward model (pure denoising): block averaging with f = 1."""
    return BlockAverageOperator(1, height, width)
