"""Frame-directory, PNM, and raw tensor codecs."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from memory import traced_peak
from noisecal import (
    FormatError,
    RngSeed,
    as_video,
    gaussian_noise,
    read_tensor,
    read_video,
    write_tensor,
    write_video,
)
from noisecal.vio import read_pnm, write_pnm


# ---------------------------------------------------------------- pnm


def test_read_pgm_hand_bytes(tmp_path):
    p = tmp_path / "v" / "frame_00000.pgm"
    p.parent.mkdir()
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    pixels = read_pnm(p)
    assert pixels.shape == (2, 2, 1) and pixels.dtype == np.uint8
    assert not pixels.flags.writeable
    assert pixels.tobytes() == bytes([0, 255, 128, 64])
    video = read_video(p.parent)  # the values are v/255
    assert video.shape == (1, 1, 2, 2)
    np.testing.assert_allclose(
        video.ravel(), [0.0, 1.0, 0.50196078, 0.25098039], atol=1e-8
    )


def test_read_pnm_skips_comments(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n# width then height\n2 1\n# maxval\n255\n" + bytes([7, 9]))
    pixels = read_pnm(p)
    assert pixels.shape == (1, 2, 1)
    assert pixels.tobytes() == bytes([7, 9])


def test_read_pnm_takes_any_whitespace_and_a_comment_after_a_number(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\x0b4#c\n4\x0c255\n" + bytes(range(16)))  # VT, then FF
    pixels = read_pnm(p)
    assert pixels.shape == (4, 4, 1)
    assert pixels.tobytes() == bytes(range(16))


def test_write_pnm_quantization(tmp_path):
    # write_video owns the 8-bit convention; write_pnm writes its bytes
    frame = np.array([1.0, -0.2, 0.5, 0.25098039215686274]).reshape(1, 1, 1, 4)
    write_video(frame, tmp_path / "v")
    blob = (tmp_path / "v" / "frame_00000.pgm").read_bytes()
    assert blob.startswith(b"P5\n4 1\n255\n")
    assert blob[-4:] == bytes([255, 0, 128, 64])  # clamp, then round half up


def test_pnm_roundtrip_rgb(tmp_path):
    pixels = RngSeed(110).generator().integers(0, 256, (6, 5, 3), dtype=np.uint8)
    p = tmp_path / "f.ppm"
    write_pnm(pixels, p)
    assert p.read_bytes().startswith(b"P6\n5 6\n255\n")
    back = read_pnm(p)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, pixels)


BAD_HEADERS = {
    "bad-magic": (b"P4\n2 2\n255\n1234", "not a binary"),
    "wrong-maxval": (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
    "truncated": (b"P5 4 4", "truncated header"),
    "unexpected-byte": (b"P5 4 x 4 255\n" + bytes(16), "unexpected byte"),
    "unterminated": (b"P5 4 4 255", "not terminated"),
    "zero-width": (b"P5 0 4 255\n", "invalid dimensions"),
    "comment-to-end-of-file": (b"P5 4 4 #c", "truncated header"),
    "stray-byte-after-comment": (b"P5 4 #c\nx", "unexpected byte b'x'"),
}


@pytest.mark.parametrize("blob,match", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_pnm_rejects_malformed_header(tmp_path, blob, match):
    p = tmp_path / "f.pgm"
    p.write_bytes(blob)
    with pytest.raises(FormatError, match=match):
        read_pnm(p)


def test_pnm_rejects_overlong_header_number(tmp_path):
    # 5000 digits: past what int() parses, so this must not surface as int()'s ValueError
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="digits"):
        read_pnm(p)


def test_pnm_rejects_short_payload(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(FormatError, match="payload"):
        read_pnm(p)


def test_pnm_rejects_bytes_after_payload(tmp_path):
    p = tmp_path / "f.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]) + b"garbage")
    with pytest.raises(FormatError, match="payload has 11 bytes, expected 4"):
        read_pnm(p)
    # a second image concatenated after the first is trailing data too
    p.write_bytes(2 * (b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])))
    with pytest.raises(FormatError, match="f.pgm"):
        read_pnm(p)


def test_write_pnm_rejects_two_channels(tmp_path):
    with pytest.raises(ValueError, match="channels"):
        write_pnm(np.zeros((4, 4, 2), np.uint8), tmp_path / "f.pgm")
    assert list(tmp_path.iterdir()) == []


def test_write_pnm_rejects_values_that_are_not_bytes(tmp_path):
    with pytest.raises(TypeError, match="uint8"):
        write_pnm(np.zeros((4, 4, 1)), tmp_path / "f.pgm")
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


@pytest.mark.parametrize("channels", [1, 3])
def test_write_video_returns_what_read_video_reads_back(tmp_path, channels):
    # out of range and between quantization levels: clamped and rounded as written
    x = as_video(gaussian_noise((3, channels, 5, 7), RngSeed(123)) * 0.6 + 0.5)
    written = write_video(x, tmp_path / "v")
    back = read_video(tmp_path / "v")
    assert written.tobytes() == back.tobytes()
    assert written.shape == back.shape and not written.flags.writeable
    assert not np.array_equal(written, x)


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
    write_pnm(np.zeros((3, 3, 1), np.uint8), tmp_path / "v" / "frame_00001.pgm")
    # the shapes are named (C, H, W), as the tensor's frames are
    with pytest.raises(FormatError, match=r"frame_00001.*\(1, 3, 3\) != first frame \(1, 4, 4\)"):
        read_video(tmp_path / "v")


def test_video_rewrite_removes_stale_frames(tmp_path):
    # a longer RGB video, then a shorter gray one, into the same directory
    write_video(quantized_video((3, 3, 4, 4), 121), tmp_path / "v")
    (tmp_path / "v" / "notes.txt").write_text("kept")
    x = quantized_video((2, 1, 4, 4), 122)
    write_video(x, tmp_path / "v")
    names = sorted(p.name for p in (tmp_path / "v").iterdir())
    assert names == ["frame_00000.pgm", "frame_00001.pgm", "notes.txt"]
    np.testing.assert_allclose(read_video(tmp_path / "v"), x, atol=1e-12)


def test_frame_names_take_five_ascii_digits_and_nothing_after(tmp_path):
    # Arabic-Indic digits, and a frame name with a trailing newline: neither is
    # a frame, so neither is read as one nor removed as a stale one
    x = quantized_video((1, 1, 4, 4), 124)
    write_video(x, tmp_path / "v")
    others = ["frame_\u0660\u0660\u0660\u0660\u0661.pgm", "frame_00001.pgm\n"]
    for name in others:
        write_pnm(np.zeros((4, 4, 1), np.uint8), tmp_path / "v" / name)
    back = read_video(tmp_path / "v")
    assert back.shape == x.shape and back.tobytes() == x.tobytes()
    write_video(x, tmp_path / "v")
    assert sorted(p.name for p in (tmp_path / "v").iterdir()) == sorted(["frame_00000.pgm", *others])


def test_video_two_files_for_one_index_rejected(tmp_path):
    write_video(quantized_video((2, 1, 4, 4), 123), tmp_path / "v")
    write_pnm(np.zeros((4, 4, 3), np.uint8), tmp_path / "v" / "frame_00000.ppm")
    with pytest.raises(FormatError, match="frame index 00000"):
        read_video(tmp_path / "v")


def test_video_rejects_two_channels(tmp_path):
    x = gaussian_noise((1, 2, 4, 4), RngSeed(115))
    with pytest.raises(ValueError, match="channels"):
        write_video(x, tmp_path / "v")


# what read_video could never return: a rank not 4, no frames, 2 channels, NaN or Inf
UNWRITABLE = {
    "rank-5": np.zeros((2, 3, 4, 4, 1)),
    "rank-3": np.zeros((3, 4, 4)),
    "no-frames": np.zeros((0, 1, 4, 4)),
    "two-channels": np.zeros((1, 2, 4, 4)),
    "nan": np.full((2, 1, 4, 4), np.nan),
    "inf": np.full((2, 3, 4, 4), np.inf),
    "past-99999-frames": np.zeros((100_001, 1, 1, 1)),  # frame_100000 has six digits
}


@pytest.mark.parametrize("x", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_write_video_refuses_what_read_video_would_refuse(tmp_path, x):
    """Refused before the directory is touched: its frames keep their bytes,
    and a directory that was not there is not made."""
    write_video(quantized_video((5, 1, 4, 4), 126), tmp_path / "v")
    before = {p.name: p.read_bytes() for p in (tmp_path / "v").iterdir()}
    for dir_path in (tmp_path / "v", tmp_path / "new"):
        with pytest.raises(ValueError, match=re.escape(str(dir_path))):
            write_video(x, dir_path)
    assert {p.name: p.read_bytes() for p in (tmp_path / "v").iterdir()} == before
    assert not (tmp_path / "new").exists()


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
    with pytest.raises(FormatError, match="magic"):
        read_tensor(p)


def test_tensor_truncated_payload(tmp_path):
    x = gaussian_noise((1, 1, 2, 2), RngSeed(118))
    p = tmp_path / "t.vnt"
    write_tensor(x, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="payload"):
        read_tensor(p)


# the header is 24 bytes: magic, a u32 4 and four u32 dims
SHORT_TENSOR_HEADERS = {
    "six-bytes": (b"VNT1" + bytes(2), "truncated header"),
    "three-dims": (b"VNT1" + struct.pack("<4I", 4, 1, 1, 2), "truncated dimension list"),
}


@pytest.mark.parametrize("blob,match", SHORT_TENSOR_HEADERS.values(), ids=SHORT_TENSOR_HEADERS.keys())
def test_tensor_rejects_short_header(tmp_path, blob, match):
    p = tmp_path / "t.vnt"
    p.write_bytes(blob)
    with pytest.raises(FormatError, match=match):
        read_tensor(p)


def test_tensor_rejects_non_video_rank(tmp_path):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<I", 2) + struct.pack("<2I", 2, 2) + bytes(16))
    with pytest.raises(FormatError, match="dims"):
        read_tensor(p)


# (65536,)*4 holds 2**64 elements: a wrapping product would pass an empty payload
BAD_DIMS = {
    "zero-dim": ((1, 0, 4, 4), "zero dimension"),
    "product-beyond-64-bits": ((65536,) * 4, "payload has 0 bytes, expected 73786976294838206464"),
}


@pytest.mark.parametrize("dims,match", BAD_DIMS.values(), ids=BAD_DIMS.keys())
def test_tensor_rejects_bad_dims(tmp_path, dims, match):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<5I", 4, *dims))
    with pytest.raises(FormatError, match=match):
        read_tensor(p)


def test_tensor_rejects_non_finite_payload(tmp_path):
    p = tmp_path / "t.vnt"
    p.write_bytes(b"VNT1" + struct.pack("<5I4f", 4, 1, 1, 2, 2, 0.5, float("nan"), 0.5, 0.5))
    with pytest.raises(FormatError, match="NaN"):
        read_tensor(p)


def one_value(value, shape=(1, 1, 2, 2)):
    x = np.full(shape, 0.5)
    x.flat[1] = value
    return x


# what read_tensor would refuse: a payload beyond float32's range or NaN, or a rank not 4
UNREADABLE = {
    "above-float32": one_value(1e39),
    "below-float32": one_value(-1e39),
    "nan": one_value(np.nan),
    "rank-3": np.full((1, 2, 2), 0.5),
    "rank-5": np.full((1, 1, 1, 2, 2), 0.5),
}


@pytest.mark.parametrize("x", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_write_tensor_refuses_what_read_tensor_would_refuse(tmp_path, x):
    p = tmp_path / "t.vnt"
    with pytest.raises(ValueError, match="t.vnt"):
        write_tensor(x, p)
    assert list(tmp_path.iterdir()) == []  # neither the file nor its .tmp


@pytest.mark.parametrize(
    "write,read", [(write_video, read_video), (write_tensor, read_tensor)], ids=["video", "tensor"]
)
def test_read_peak_memory_is_below_two_and_a_half_results(tmp_path, write, read):
    """A read builds its float64 array once and freezes it in place; one more copy reads 3x."""
    write(quantized_video((8, 3, 64, 64), 121), tmp_path / "x")
    peak, out = traced_peak(read, tmp_path / "x")
    assert not out.flags.writeable
    assert peak < 2.5 * out.nbytes


@pytest.mark.parametrize(
    "write,read,bound",
    [(write_video, read_video, 1.5), (write_tensor, read_tensor, 1.75)],
    ids=["video", "tensor"],
)
def test_read_holds_the_result_and_one_file_at_a_time(tmp_path, write, read, bound):
    """Frames go into one buffer as they are read (a stack of frames read 2.13x),
    and the payload is read in place in the file's bytes (a slice of them read 2x)."""
    write(quantized_video((8, 3, 64, 64), 122), tmp_path / "x")
    peak, out = traced_peak(read, tmp_path / "x")
    assert peak < bound * out.nbytes


def test_no_tmp_files_left_behind(tmp_path):
    write_video(quantized_video((2, 1, 4, 4), 119), tmp_path / "v")
    write_tensor(gaussian_noise((1, 1, 2, 2), RngSeed(120)), tmp_path / "t.vnt")
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_failed_frame_write_leaves_no_tmp_file(tmp_path):
    (tmp_path / "v" / "frame_00002.pgm").mkdir(parents=True)  # the rename onto it fails
    with pytest.raises(IsADirectoryError):
        write_video(quantized_video((4, 1, 4, 4), 124), tmp_path / "v")
    assert list(tmp_path.rglob("*.tmp")) == []


def test_failed_tensor_write_leaves_no_tmp_file(tmp_path):
    (tmp_path / "t.vnt").mkdir()
    with pytest.raises(IsADirectoryError):
        write_tensor(gaussian_noise((1, 1, 2, 2), RngSeed(125)), tmp_path / "t.vnt")
    assert list(tmp_path.rglob("*.tmp")) == []


def test_failed_tmp_removal_does_not_hide_the_write_error(tmp_path, monkeypatch):
    def refuse(self, missing_ok=False):
        raise PermissionError(f"{self}: cannot remove")

    (tmp_path / "t.vnt").mkdir()
    monkeypatch.setattr(Path, "unlink", refuse)
    with pytest.raises(IsADirectoryError):
        write_tensor(gaussian_noise((1, 1, 2, 2), RngSeed(126)), tmp_path / "t.vnt")
