"""The block-averaging forward operator, whose rows are orthogonal and of
equal norm.

A maps an image to the means of its f x f blocks, so A A^T = s^2 I with the
one singular value s = 1/f; f = 1 is the identity.  A^T A / s^2 projects onto
the measured (block-constant) directions and A^T y / s^2 is the minimum-norm
inverse.  Both maps are block-local reshapes, never dense matrix products, so
they scale to 1024x1024 grids.
"""

from __future__ import annotations

import numpy as np

from pnpdm.images import as_image


class SvdOperator:
    """Average each f x f block of a (height, width) image to one output pixel.

    Each row of A holds 1/f^2 on one block, so A A^T = singular_value^2 I
    with singular_value = 1/f.
    """

    def __init__(self, factor: int, height: int, width: int):
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if height % factor or width % factor:
            raise ValueError(f"factor {factor} must divide dims {height}x{width}")
        self.factor = factor
        self.in_shape = (height, width)
        self.out_shape = (height // factor, width // factor)
        self.singular_value = 1.0 / factor

    @property
    def n(self) -> int:
        return self.in_shape[0] * self.in_shape[1]

    @property
    def m(self) -> int:
        return self.out_shape[0] * self.out_shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = self._check_in(x)
        f = self.factor
        hb, wb = self.out_shape
        return x.reshape(hb, f, wb, f).mean(axis=(1, 3))

    def add_adjoint(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x += A^T y in place on a float64 image x; returns x."""
        x = self._check_in(x)
        y = self._check_out(y)
        f = self.factor
        hb, wb = self.out_shape
        # splitting both axes is always a view, so this adds into x itself,
        # broadcasting the small (hb, wb) array without a full-size temporary
        x.reshape(hb, f, wb, f)[...] += (y / (f * f))[:, None, :, None]
        return x

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


def block_average_downsample(factor: int, height: int, width: int) -> SvdOperator:
    """Block-averaging downsampler mapping (height, width) to (height/f, width/f)."""
    return SvdOperator(factor, height, width)

