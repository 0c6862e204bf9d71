"""Image container and file-format round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpdm.images import (
    FLOAT_MAGIC,
    MAX_DIM,
    ImageFormatError,
    as_image,
    read_image,
    write_image,
)


def test_as_image_coerces_to_float64():
    img = as_image([[1, 2], [3, 4]])
    assert img.dtype == np.float64
    assert img.shape == (2, 2)


@pytest.mark.parametrize("bad", [np.zeros(4), np.zeros((2, 2, 2)), np.zeros((0, 3))])
def test_as_image_rejects_non_2d(bad):
    with pytest.raises(ValueError):
        as_image(bad)


def test_float_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.standard_normal((13, 9))
    for name in ("img.pnpi", "img.pgm"):  # PNPI whatever the file name
        path = tmp_path / name
        write_image(path, img)
        back = read_image(path)
        # exact at 32-bit precision
        assert np.array_equal(back, img.astype("<f4").astype(np.float64))
        assert path.read_bytes()[:4] == FLOAT_MAGIC


def test_transposed_image_writes_the_bytes_of_its_c_ordered_copy(tmp_path):
    """A Fortran-ordered view, as ``bicubic_upsample`` returns, is written row-major."""
    img = np.random.default_rng(2).standard_normal((5, 7)).T
    write_image(tmp_path / "view.pnpi", img)
    write_image(tmp_path / "copy.pnpi", np.ascontiguousarray(img))
    assert (tmp_path / "view.pnpi").read_bytes() == (tmp_path / "copy.pnpi").read_bytes()
    assert np.array_equal(read_image(tmp_path / "view.pnpi"), img.astype("<f4"))


def test_unknown_magic(tmp_path):
    path = tmp_path / "junk.bin"
    for raw in (b"WHAT" + b"\x00" * 32, b"P5\n2 1\n255\n\x00\xff"):  # junk, 8-bit graymap
        path.write_bytes(raw)
        with pytest.raises(ImageFormatError, match="unrecognized magic bytes") as exc:
            read_image(path)
        assert exc.value.offset == 0


def test_truncated_float_payload(tmp_path):
    img = np.zeros((4, 4))
    path = tmp_path / "t.pnpi"
    write_image(path, img)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ImageFormatError):
        read_image(path)


def test_truncated_float_header(tmp_path):
    path = tmp_path / "h.pnpi"
    for size in (4, 15):  # the magic, and one byte short of the 16-byte header
        path.write_bytes(FLOAT_MAGIC + b"\x00" * (size - 4))
        with pytest.raises(ImageFormatError, match="truncated header") as exc:
            read_image(path)
        assert exc.value.offset == size


def test_float_bytes_after_pixels_are_rejected(tmp_path):
    path = tmp_path / "x.pnpi"
    write_image(path, np.zeros((2, 2)))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ImageFormatError) as exc:
        read_image(path)
    assert exc.value.offset == 16 + 4 * 4


def test_float_reserved_word_must_be_zero(tmp_path):
    raw = struct.pack("<4sIII", FLOAT_MAGIC, 1, 1, 5) + b"\x00" * 4
    path = tmp_path / "r.pnpi"
    path.write_bytes(raw)
    with pytest.raises(ImageFormatError) as exc:
        read_image(path)
    assert exc.value.offset == 12


def test_float_dimension_bounds(tmp_path):
    raw = struct.pack("<4sIII", FLOAT_MAGIC, 1 << 20, 1, 0)
    path = tmp_path / "d.pnpi"
    path.write_bytes(raw + b"\x00" * 64)
    with pytest.raises(ImageFormatError):
        read_image(path)


def test_largest_dimension_round_trips(tmp_path):
    path = tmp_path / "tall.pnpi"
    img = np.arange(MAX_DIM, dtype=np.float64).reshape(MAX_DIM, 1)
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


@pytest.mark.parametrize("img,message", [
    (np.zeros((MAX_DIM + 1, 1)), f"<= {MAX_DIM}"),
    (np.zeros((1, MAX_DIM + 1)), f"<= {MAX_DIM}"),
    (np.full((2, 2), np.nan), r"non-finite pixel at \(0, 0\)"),
    (np.array([[0.0, 0.0], [0.0, 1e39]]), r"non-finite pixel at \(1, 1\)"),  # inf as f32
], ids=["shape0", "shape1", "nan", "beyond-f32"])
def test_write_refuses_what_read_refuses(tmp_path, img, message):
    path = tmp_path / "big.pnpi"
    with pytest.raises(ValueError, match=message):
        write_image(path, img)
    assert not path.exists()


@pytest.mark.parametrize("bad,index", [(np.nan, 5), (-np.inf, 9)])
def test_float_non_finite_pixel_is_rejected(tmp_path, bad, index):
    img = np.zeros((4, 4))
    img.flat[index] = bad
    img.flat[-1] = np.inf  # only the first defect is reported
    path = tmp_path / "n.pnpi"
    # write_image refuses such a file, so it is made by hand
    path.write_bytes(struct.pack("<4sIII", FLOAT_MAGIC, 4, 4, 0) + img.astype("<f4").tobytes())
    with pytest.raises(ImageFormatError) as exc:
        read_image(path)
    assert exc.value.offset == 16 + 4 * index


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_float_round_trip_property(tmp_path_factory, h, w, seed):
    rng = np.random.default_rng(seed)
    img = (rng.standard_normal((h, w)) * 4).astype("<f4").astype(np.float64)
    path = tmp_path_factory.mktemp("prop") / "x.pnpi"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)
