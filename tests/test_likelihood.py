"""Conditional data-consistency draw vs dense Gaussian algebra."""

import numpy as np
import pytest

from pnpdm.analytic import dense_matrix
from pnpdm.likelihood import (
    LikelihoodModel,
    conditional_moments,
    data_fidelity,
    sample_conditional,
)
from pnpdm.operators import SvdOperator


def _model(op, sigma_y=0.1, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.random(op.out_shape)
    return LikelihoodModel(operator=op, noise_sigma=sigma_y, measurement=y)


def _dense_moments(model, x, rho):
    """Direct dense evaluation of the z | x conditional."""
    op = model.operator
    a = dense_matrix(op)
    prec = a.T @ a / model.noise_sigma**2 + np.eye(op.n) / rho**2
    cov = np.linalg.inv(prec)
    rhs = a.T @ model.measurement.ravel() / model.noise_sigma**2 + x.ravel() / rho**2
    return (cov @ rhs).reshape(op.in_shape), cov


@pytest.mark.parametrize("op", [
    SvdOperator(1, 3, 3),
    SvdOperator(2, 4, 4),
    SvdOperator(4, 8, 8),
])
@pytest.mark.parametrize("rho", [0.05, 0.4, 3.0])
def test_conditional_moments_match_dense(op, rho):
    model = _model(op, sigma_y=0.07, seed=3)
    x = np.random.default_rng(4).random(op.in_shape)
    mean, c = conditional_moments(model, x, rho)
    dense_mean, dense_cov = _dense_moments(model, x, rho)
    assert np.max(np.abs(mean - dense_mean)) < 1e-10
    # covariance rho^2 I + (c - rho^2) P with P the dense measured-subspace projector
    a = dense_matrix(op)
    cov = rho**2 * np.eye(op.n) + (c - rho**2) * (np.linalg.pinv(a) @ a)
    assert np.max(np.abs(cov - dense_cov)) < 1e-10


def test_sample_conditional_monte_carlo_moments():
    op = SvdOperator(2, 4, 4)
    model = _model(op, sigma_y=0.15, seed=8)
    x = np.random.default_rng(9).random(op.in_shape)
    rho = 0.3
    mean, _ = conditional_moments(model, x, rho)
    rng = np.random.default_rng(123)
    draws = np.stack([sample_conditional(model, x, rho, rng) for _ in range(20000)])
    emp_mean = draws.mean(axis=0)
    pixel_var = draws.var(axis=0)
    exact_var = np.diag(_dense_moments(model, x, rho)[1]).reshape(op.in_shape)
    se = np.sqrt(exact_var / draws.shape[0])
    assert np.max(np.abs(emp_mean - mean) / se) < 5.0
    assert np.max(np.abs(pixel_var - exact_var) / exact_var) < 0.1


def test_sample_conditional_deterministic_given_seed():
    op = SvdOperator(1, 4, 4)
    model = _model(op)
    x = np.full(op.in_shape, 0.5)
    a = sample_conditional(model, x, 0.5, np.random.default_rng(7))
    b = sample_conditional(model, x, 0.5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_data_fidelity_manual():
    op = SvdOperator(1, 2, 2)
    y = np.array([[0.0, 1.0], [0.5, 0.25]])
    model = LikelihoodModel(operator=op, noise_sigma=0.5, measurement=y)
    x = np.zeros((2, 2))
    expected = np.sum(y**2) / (2 * 0.25)
    assert abs(data_fidelity(model, x) - expected) < 1e-12


def test_spectral_precision_values():
    """The conditional precision has eigenvalue 1/c = s^2/sigma_y^2 + 1/rho^2
    on the m measured directions and 1/rho^2 on the null space."""
    op = SvdOperator(2, 4, 4)
    model = _model(op, sigma_y=0.2)
    _, c = conditional_moments(model, np.zeros(op.in_shape), 0.5)
    assert abs(1.0 / c - ((0.5**2) / 0.04 + 4.0)) < 1e-12
    a = dense_matrix(op)
    eig = np.linalg.eigvalsh(a.T @ a / 0.04 + 4.0 * np.eye(op.n))  # ascending
    assert np.allclose(eig[: op.n - op.m], 4.0)
    assert np.allclose(eig[op.n - op.m :], 1.0 / c)


def test_validation():
    op = SvdOperator(1, 2, 2)
    with pytest.raises(ValueError):
        LikelihoodModel(operator=op, noise_sigma=0.0, measurement=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LikelihoodModel(operator=op, noise_sigma=0.1, measurement=np.zeros((3, 2)))
    model = _model(op)
    with pytest.raises(ValueError):
        sample_conditional(model, np.zeros((2, 2)), -1.0, np.random.default_rng(0))


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0, -1.0, 1e-200])
def test_rho_must_be_finite_and_positive(rho):
    """No rho is floored or let through: 1e-200 would make 1/rho^2 infinite."""
    model = _model(SvdOperator(2, 4, 4))
    x = np.zeros((4, 4))
    with pytest.raises(ValueError, match="rho"):
        sample_conditional(model, x, rho, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rho"):
        conditional_moments(model, x, rho)


def test_small_rho_is_used_as_given():
    """The draw uses the same rho as the prior step, however small."""
    op = SvdOperator(2, 4, 4)
    model = _model(op, sigma_y=0.07)
    rho = 1e-9
    c = conditional_moments(model, np.zeros(op.in_shape), rho)[1]
    assert c == pytest.approx(1.0 / (1.0 / rho**2 + op.singular_value**2 / 0.07**2),
                              rel=1e-12, abs=0.0)
