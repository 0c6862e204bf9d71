"""Layered speckle phantom generation and degradation."""

import numpy as np
import pytest

from pnpdm.operators import block_average_downsample
from pnpdm.phantom import Layer, PhantomSpec, degrade, generate_phantom


def _two_band_spec(seed=0, shape=6.0):
    return PhantomSpec(
        height=64,
        width=64,
        layers=(
            Layer(depth=(16.0, 0.0, 0.0), brightness=0.8),
            Layer(depth=(40.0, 0.0, 0.0), brightness=0.3),
        ),
        speckle_shape=shape,
        background=0.05,
        seed=seed,
    )


def test_clean_geometry_flat_layers():
    clean, _ = generate_phantom(_two_band_spec())
    assert np.all(clean[:16] == 0.05)
    assert np.all(clean[16:40] == 0.8)
    assert np.all(clean[40:] == 0.3)


def test_quadratic_interface_follows_curve():
    layer = Layer(depth=(10.0, 0.1, 0.002), brightness=0.6)
    spec = PhantomSpec(height=48, width=40, layers=(layer,), seed=0)
    clean, _ = generate_phantom(spec)
    cols = np.arange(40)
    depth = layer.depth_at(cols.astype(np.float64))
    for j in (0, 13, 39):
        boundary = int(np.ceil(depth[j]))
        assert clean[boundary - 1, j] == 0.05
        assert clean[boundary, j] == 0.6


def test_speckle_deterministic_in_seed_and_clean_is_not():
    clean_a, speck_a = generate_phantom(_two_band_spec(seed=1))
    clean_b, speck_b = generate_phantom(_two_band_spec(seed=2))
    assert np.array_equal(clean_a, clean_b)
    assert not np.array_equal(speck_a, speck_b)
    _, speck_a2 = generate_phantom(_two_band_spec(seed=1))
    assert np.array_equal(speck_a, speck_a2)


def test_speckle_gamma_moments():
    """Multiplicative gain has mean 1 and relative variance 1/L."""
    shape_l = 6.0
    spec = PhantomSpec(height=256, width=256, layers=(), background=0.4,
                       speckle_shape=shape_l, seed=7)
    clean, speckled = generate_phantom(spec)
    gain = speckled / clean
    n = gain.size
    assert abs(gain.mean() - 1.0) < 5 / np.sqrt(shape_l * n)
    assert abs(gain.var() * shape_l - 1.0) < 0.03


def test_speckled_clipped_to_unit_range():
    spec = PhantomSpec(height=64, width=64, layers=(), background=0.9,
                       speckle_shape=2.0, seed=3)
    _, speckled = generate_phantom(spec)
    assert speckled.min() >= 0.0 and speckled.max() <= 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(height=0, width=4)
    with pytest.raises(ValueError):
        PhantomSpec(height=4, width=4, speckle_shape=0.0)
    with pytest.raises(ValueError):
        PhantomSpec(height=4, width=4, background=1.5)
    with pytest.raises(ValueError):
        PhantomSpec(
            height=64, width=64,
            layers=(Layer(depth=(40.0, 0.0, 0.0), brightness=0.5),
                    Layer(depth=(16.0, 0.0, 0.0), brightness=0.7)),
        )
    with pytest.raises(ValueError):
        PhantomSpec(height=64, width=64,
                    layers=(Layer(depth=(10.0, 0.0, 0.0), brightness=1.2),))


def test_degrade_noiseless_is_block_mean():
    clean, speckled = generate_phantom(_two_band_spec())
    op = block_average_downsample(4, 64, 64)
    assert np.array_equal(degrade(speckled, 4, 0.0, seed=9), op.apply(speckled))


def test_degrade_noise_statistics_and_determinism():
    img = np.full((128, 128), 0.5)
    lr_a = degrade(img, 2, 0.1, seed=4)
    lr_b = degrade(img, 2, 0.1, seed=4)
    assert np.array_equal(lr_a, lr_b)
    noise = lr_a - 0.5
    assert abs(noise.std() - 0.1) < 0.01
    assert abs(noise.mean()) < 5 * 0.1 / 64
