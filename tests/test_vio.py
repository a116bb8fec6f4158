"""Frame-directory, PNM, and raw tensor codecs."""

import struct
import tracemalloc

import numpy as np
import pytest

from noisecal import (
    PnmFormatError,
    RngSeed,
    TensorFormatError,
    as_video,
    gaussian_noise,
    read_pnm,
    read_tensor,
    read_video,
    write_pnm,
    write_tensor,
    write_video,
)


# ---------------------------------------------------------------- pnm


def test_read_pgm_hand_bytes(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    frame = read_pnm(p)
    assert frame.shape == (1, 2, 2)
    np.testing.assert_allclose(
        frame.ravel(), [0.0, 1.0, 0.50196078, 0.25098039], atol=1e-8
    )


def test_read_pnm_skips_comments(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n# width then height\n2 1\n# maxval\n255\n" + bytes([7, 9]))
    assert read_pnm(p).shape == (1, 1, 2)


def test_write_pnm_quantization(tmp_path):
    p = tmp_path / "f.pgm"
    frame = np.array([[[1.0, -0.2, 0.5, 0.25098039215686274]]]).reshape(1, 1, 4)
    write_pnm(frame, p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n4 1\n255\n")
    assert blob[-4:] == bytes([255, 0, 128, 64])  # clamp, then round half up


def test_pnm_roundtrip_rgb(tmp_path):
    rng = RngSeed(110)
    x = np.floor(np.clip(gaussian_noise((1, 3, 6, 5), rng) * 0.2 + 0.5, 0, 1) * 255) / 255.0
    p = tmp_path / "f.ppm"
    write_pnm(x[0], p)
    np.testing.assert_allclose(read_pnm(p), x[0], atol=1e-12)


BAD_HEADERS = {
    "bad-magic": (b"P4\n2 2\n255\n1234", "not a binary"),
    "wrong-maxval": (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
    "truncated": (b"P5 4 4", "truncated header"),
    "unexpected-byte": (b"P5 4 x 4 255\n" + bytes(16), "unexpected byte"),
    "unterminated": (b"P5 4 4 255", "not terminated"),
    "zero-width": (b"P5 0 4 255\n", "invalid dimensions"),
}


@pytest.mark.parametrize("blob,match", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_pnm_rejects_malformed_header(tmp_path, blob, match):
    p = tmp_path / "f.pgm"
    p.write_bytes(blob)
    with pytest.raises(PnmFormatError, match=match):
        read_pnm(p)


def test_pnm_rejects_overlong_header_number(tmp_path):
    # 5000 digits: past what int() parses, so this must not surface as ValueError
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))
    with pytest.raises(PnmFormatError, match="digits"):
        read_pnm(p)


def test_pnm_rejects_short_payload(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(PnmFormatError, match="payload"):
        read_pnm(p)


def test_write_pnm_rejects_two_channels(tmp_path):
    with pytest.raises(ValueError, match="channels"):
        write_pnm(np.zeros((2, 4, 4)), tmp_path / "f.pgm")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- videos


def quantized_video(shape, seed):
    raw = gaussian_noise(shape, RngSeed(seed)) * 0.25 + 0.5
    return as_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0)


def test_video_roundtrip_gray(tmp_path):
    x = quantized_video((3, 1, 4, 5), 111)
    write_video(x, tmp_path / "v")
    back = read_video(tmp_path / "v")
    np.testing.assert_allclose(back, x, atol=1e-12)
    names = sorted(p.name for p in (tmp_path / "v").iterdir())
    assert names == ["frame_00000.pgm", "frame_00001.pgm", "frame_00002.pgm"]


def test_video_roundtrip_rgb(tmp_path):
    x = quantized_video((2, 3, 4, 4), 112)
    write_video(x, tmp_path / "v")
    np.testing.assert_allclose(read_video(tmp_path / "v"), x, atol=1e-12)


def test_read_video_rgb_is_c_contiguous_and_round_trips_its_bytes(tmp_path):
    # channels first in memory too, so filters over (H, W) read contiguous planes
    write_video(quantized_video((3, 3, 5, 7), 122), tmp_path / "v")
    back = read_video(tmp_path / "v")
    assert back.flags.c_contiguous
    write_video(back, tmp_path / "w")
    for frame in (tmp_path / "v").iterdir():
        assert (tmp_path / "w" / frame.name).read_bytes() == frame.read_bytes()


def test_video_missing_frame_named_in_error(tmp_path):
    x = quantized_video((3, 1, 4, 4), 113)
    write_video(x, tmp_path / "v")
    (tmp_path / "v" / "frame_00001.pgm").unlink()
    with pytest.raises(FileNotFoundError, match="index 1"):
        read_video(tmp_path / "v")


def test_video_empty_dir(tmp_path):
    (tmp_path / "v").mkdir()
    with pytest.raises(FileNotFoundError):
        read_video(tmp_path / "v")


def test_video_shape_mismatch_names_frame(tmp_path):
    write_video(quantized_video((2, 1, 4, 4), 114), tmp_path / "v")
    write_pnm(np.zeros((1, 3, 3)), tmp_path / "v" / "frame_00001.pgm")
    with pytest.raises(PnmFormatError, match="frame_00001"):
        read_video(tmp_path / "v")


@pytest.mark.parametrize("channels", [1, 3])
def test_video_threaded_write_matches_serial(tmp_path, channels):
    x = quantized_video((5, channels, 4, 6), 116)
    write_video(x, tmp_path / "serial")
    write_video(x, tmp_path / "pooled", threads=3)
    serial = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    pooled = {p.name: p.read_bytes() for p in (tmp_path / "pooled").iterdir()}
    assert len(serial) == 5
    assert pooled == serial


def test_video_threaded_write_raises_frame_error(tmp_path):
    (tmp_path / "v" / "frame_00002.pgm").mkdir(parents=True)  # a frame path that cannot be replaced
    with pytest.raises(OSError):
        write_video(quantized_video((4, 1, 4, 4), 117), tmp_path / "v", threads=2)


def test_video_rewrite_removes_stale_frames(tmp_path):
    # a longer RGB video, then a shorter gray one, into the same directory
    write_video(quantized_video((3, 3, 4, 4), 121), tmp_path / "v")
    (tmp_path / "v" / "notes.txt").write_text("kept")
    x = quantized_video((2, 1, 4, 4), 122)
    write_video(x, tmp_path / "v")
    names = sorted(p.name for p in (tmp_path / "v").iterdir())
    assert names == ["frame_00000.pgm", "frame_00001.pgm", "notes.txt"]
    np.testing.assert_allclose(read_video(tmp_path / "v"), x, atol=1e-12)


def test_video_two_files_for_one_index_rejected(tmp_path):
    write_video(quantized_video((2, 1, 4, 4), 123), tmp_path / "v")
    write_pnm(np.zeros((3, 4, 4)), tmp_path / "v" / "frame_00000.ppm")
    with pytest.raises(PnmFormatError, match="frame index 00000"):
        read_video(tmp_path / "v")


def test_video_rejects_two_channels(tmp_path):
    x = gaussian_noise((1, 2, 4, 4), RngSeed(115))
    with pytest.raises(ValueError, match="channels"):
        write_video(x, tmp_path / "v")


# ---------------------------------------------------------------- tensors


def test_tensor_header_layout(tmp_path):
    x = gaussian_noise((2, 3, 4, 4), RngSeed(116))
    p = tmp_path / "t.vnt"
    write_tensor(x, p)
    blob = p.read_bytes()
    assert blob[:4] == b"VNT1"
    assert struct.unpack_from("<I", blob, 4)[0] == 4
    assert struct.unpack_from("<4I", blob, 8) == (2, 3, 4, 4)
    assert len(blob) == 4 + 4 + 16 + 96 * 4  # 96 floats, 384 payload bytes


def test_tensor_roundtrip_float32_exact(tmp_path):
    x = gaussian_noise((1, 2, 5, 3), RngSeed(117))
    p = tmp_path / "t.vnt"
    write_tensor(x, p)
    back = read_tensor(p)
    np.testing.assert_array_equal(back, x.astype(np.float32).astype(np.float64))
    assert np.max(np.abs(back - x)) <= np.max(np.spacing(x.astype(np.float32)))


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"XNT1" + bytes(20))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(p)


def test_tensor_truncated_payload(tmp_path):
    x = gaussian_noise((1, 1, 2, 2), RngSeed(118))
    p = tmp_path / "t.vnt"
    write_tensor(x, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(TensorFormatError, match="payload"):
        read_tensor(p)


def test_tensor_rejects_non_video_rank(tmp_path):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<I", 2) + struct.pack("<2I", 2, 2) + bytes(16))
    with pytest.raises(TensorFormatError, match="dims"):
        read_tensor(p)


# (65536,)*4 holds 2**64 elements: a wrapping product would pass an empty payload
BAD_DIMS = {"zero-dim": (1, 0, 4, 4), "product-beyond-64-bits": (65536,) * 4}


@pytest.mark.parametrize("dims", BAD_DIMS.values(), ids=BAD_DIMS.keys())
def test_tensor_rejects_bad_dims(tmp_path, dims):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<5I", 4, *dims))
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_tensor_rejects_non_finite_payload(tmp_path):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<5I4f", 4, 1, 1, 2, 2, 0.5, float("nan"), 0.5, 0.5))
    with pytest.raises(TensorFormatError, match="NaN"):
        read_tensor(p)


@pytest.mark.parametrize(
    "write,read", [(write_video, read_video), (write_tensor, read_tensor)], ids=["video", "tensor"]
)
def test_read_peak_memory_is_below_two_and_a_half_results(tmp_path, write, read):
    """A read builds its float64 array once and freezes it in place; one more copy reads 3x."""
    write(quantized_video((8, 3, 64, 64), 121), tmp_path / "x")
    read(tmp_path / "x")  # first call outside the trace
    tracemalloc.start()
    try:
        out = read(tmp_path / "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.flags.writeable
    assert peak < 2.5 * out.nbytes


def test_no_tmp_files_left_behind(tmp_path):
    write_video(quantized_video((2, 1, 4, 4), 119), tmp_path / "v")
    write_tensor(gaussian_noise((1, 1, 2, 2), RngSeed(120)), tmp_path / "t.vnt")
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []
