"""Operator contracts against dense linear-algebra oracles."""

import numpy as np
import pytest

from pnpdm.analytic import dense_matrix
from pnpdm.operators import SvdOperator, block_average_downsample


def _random_image(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def test_identity_round_trip():
    op = block_average_downsample(1, 3, 5)
    x = _random_image((3, 5))
    assert op.singular_value == 1.0
    # f = 1 block averaging is the identity, bit-exact on both maps
    assert isinstance(op, SvdOperator)
    assert op.apply(x).tobytes() == x.tobytes()
    assert op.adjoint(x).tobytes() == x.tobytes()


@pytest.mark.parametrize("f", [1, 2, 4])
def test_block_average_matches_manual_mean(f):
    op = block_average_downsample(f, 4 * f, 2 * f)
    x = _random_image((4 * f, 2 * f), seed=f)
    y = op.apply(x)
    for i in range(4):
        for j in range(2):
            block = x[i * f : (i + 1) * f, j * f : (j + 1) * f]
            assert abs(y[i, j] - block.mean()) < 1e-12


@pytest.mark.parametrize("op", [
    block_average_downsample(1, 4, 4),
    block_average_downsample(2, 6, 4),
    block_average_downsample(4, 8, 8),
])
def test_adjoint_identity(op):
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal(op.in_shape)
        y = rng.standard_normal(op.out_shape)
        lhs = np.sum(op.apply(x) * y)
        rhs = np.sum(x * op.adjoint(y))
        assert abs(lhs - rhs) < 1e-10


def test_add_adjoint_accumulates_in_place():
    op = block_average_downsample(2, 4, 6)
    y = _random_image(op.out_shape, seed=4)
    for x in (_random_image(op.in_shape, seed=3), _random_image((6, 4), seed=3).T):
        expected = x + op.adjoint(y)
        assert op.add_adjoint(x, y) is x
        assert np.array_equal(x, expected)


@pytest.mark.parametrize("op", [
    block_average_downsample(2, 4, 4),
    block_average_downsample(4, 8, 8),
])
def test_measured_coefficients_reproduce_forward(op):
    """A x depends only on the measured component P x = A^T A x / s^2."""
    x = _random_image(op.in_shape, seed=9)
    measured = op.adjoint(op.apply(x)) / op.singular_value**2
    assert np.allclose(op.apply(measured), op.apply(x), atol=1e-12)


@pytest.mark.parametrize("f,h,w", [(2, 4, 4), (2, 8, 6), (4, 8, 8)])
def test_dense_svd_agreement(f, h, w):
    op = block_average_downsample(f, h, w)
    a = dense_matrix(op)
    s = np.linalg.svd(a, compute_uv=False)
    assert np.allclose(s, op.singular_value, atol=1e-12)
    assert op.singular_value == 1.0 / f


def test_pseudo_inverse_is_right_inverse():
    op = block_average_downsample(4, 8, 8)
    y = _random_image(op.out_shape, seed=2)
    x = op.pseudo_inverse(y)
    assert np.allclose(op.apply(x), y, atol=1e-12)
    # minimum-norm: x lives in the measured subspace, P x = x
    projected = op.adjoint(op.apply(x)) / op.singular_value**2
    assert np.allclose(projected, x, atol=1e-12)


def test_factor_validation():
    with pytest.raises(ValueError):
        SvdOperator(0, 4, 4)
    with pytest.raises(ValueError):
        SvdOperator(3, 4, 4)


def test_shape_validation():
    op = block_average_downsample(2, 4, 4)
    with pytest.raises(ValueError):
        op.apply(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        op.add_adjoint(np.zeros((2, 2)), np.zeros((2, 2)))
