"""Bit-exact file I/O: frame-directory videos, binary PNM codecs, raw tensors.

Videos live on disk as directories of frame_00000.ppm (3-channel, P6) or
frame_00000.pgm (1-channel, P5) files, 8-bit, maxval 255.  A frame file is
its magic, then width, height and maxval, each a run of at most 9 digits,
separated by whitespace and by # comments that run to the end of their
line; maxval must be 255; one whitespace byte, then exactly W*H*C payload
bytes.  The frame codecs carry bytes, (H, W, C) uint8 pixels; read_video and
write_video convert a whole video between those bytes and (F, C, H, W)
float64 values v/255 at once.  Tensors persist in a raw little-endian
float32 container, a 24-byte header (magic VNT1, u32 4, four u32 dims) and
the payload, so noise and intermediates survive runs byte-for-byte.  All
writes go through a temp file plus rename, and a failed write removes its
temp file.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import struct
from pathlib import Path

import numpy as np

from .tensor import VideoTensor, _freeze, _map, _validate_shape

_FRAME_RE = re.compile(r"^frame_(\d{5})\.(ppm|pgm)$")
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\d*)")  # separators, then a number
_TENSOR_MAGIC = b"VNT1"


class FormatError(ValueError):
    """A frame or tensor file that breaks its format."""


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one raised
            tmp.unlink(missing_ok=True)
        raise


def _refuse_unreadable(path: Path, values: np.ndarray, what: str) -> None:
    """A writer's check that its reader would read what it writes: unless
    values are a video (F, C, H, W) and finite, a ValueError naming path."""
    try:
        _validate_shape(values.shape)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: {what} would hold NaN or Inf")


# -- PNM (P5 grayscale / P6 RGB, binary, maxval 255) --


def read_pnm(path) -> np.ndarray:
    """Read one P5/P6 file's pixels: a read-only (H, W, C) uint8 view of its bytes."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM file")
    pos = 2
    fields: list[int] = []
    for _ in range(3):  # width, height, maxval: each after whitespace and comments
        m = _PNM_TOKEN.match(blob, pos)
        digits, pos = m[1], m.end()
        if not digits:
            if pos == len(blob):
                raise FormatError(f"{path}: truncated header")
            raise FormatError(f"{path}: unexpected byte {blob[pos : pos + 1]!r} in header")
        if len(digits) > 9:  # int() refuses beyond 4300 digits; no real frame is this big
            raise FormatError(f"{path}: header number has {len(digits)} digits")
        fields.append(int(digits))
    if not blob[pos : pos + 1].isspace():  # b"" at the end of the file is not space
        raise FormatError(f"{path}: header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")
    channels = 1 if blob[:2] == b"P5" else 3
    need = width * height * channels
    size = len(blob) - pos  # bytes past the frame, such as a second image, are an error
    if size != need:
        raise FormatError(f"{path}: payload has {size} bytes, expected {need}")
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(height, width, channels)


def write_pnm(pixels: np.ndarray, path) -> None:
    """Write (H, W, C) uint8 pixels as binary P5 (C = 1) or P6 (C = 3), maxval 255."""
    path = Path(path)
    height, width, channels = pixels.shape
    if channels not in (1, 3):
        raise ValueError(f"{path}: PNM supports 1 or 3 channels, got {channels}")
    if pixels.dtype != np.uint8:
        raise TypeError(f"{path}: PNM pixels must be uint8, got {pixels.dtype}")
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + pixels.tobytes())


# -- frame directories --


def _scan_frames(dir_path: Path) -> list[Path]:
    if not dir_path.is_dir():
        raise FileNotFoundError(f"{dir_path}: not a directory")
    found: dict[int, Path] = {}
    for entry in sorted(dir_path.iterdir()):
        m = _FRAME_RE.match(entry.name)
        if m and found.setdefault(int(m.group(1)), entry) != entry:
            raise FormatError(f"{entry}: a second file for frame index {m.group(1)}")
    if not found:
        raise FileNotFoundError(f"{dir_path}: no frame_NNNNN.ppm/.pgm files")
    count = max(found) + 1
    for i in range(count):
        if i not in found:
            raise FileNotFoundError(f"{dir_path}: missing frame index {i}")
    return [found[i] for i in range(count)]


def read_video(dir_path) -> VideoTensor:
    """Read a frame directory to a (F, C, H, W) tensor with values in [0, 1]."""
    dir_path = Path(dir_path)
    paths = _scan_frames(dir_path)
    pixels = None
    for i, p in enumerate(paths):
        frame = read_pnm(p).transpose(2, 0, 1)  # (C, H, W), a view of the file's bytes
        if pixels is None:
            pixels = np.empty((len(paths),) + frame.shape, np.uint8)  # each frame goes into place
        elif frame.shape != pixels.shape[1:]:
            raise FormatError(f"{p}: frame shape {frame.shape} != first frame {pixels.shape[1:]}")
        pixels[i] = frame
    return _freeze(pixels / 255.0)  # the one conversion, frozen in place: no second copy


def write_video(x: VideoTensor, dir_path, threads: int = 1) -> VideoTensor:
    """Write a (F, C, H, W) tensor as a frame directory.

    Only what read_video reads is written: a video with 1 or 3 channels
    whose values are finite.  Any other x is a ValueError naming the
    directory, raised before the directory is touched.  Values are clamped
    to [0, 1] then quantized round-half-up to 8 bits, so 0.5 maps to byte
    128; goldens depend on this convention.  Other frame files in the
    directory are removed.  The frames are written on up to `threads`
    threads (tensor._map): once a write has failed, no frame not yet begun
    is written, and the first failure is raised.  The bytes on disk do not
    depend on it.  Returns the tensor read_video reads back from the
    directory.
    """
    dir_path = Path(dir_path)
    _refuse_unreadable(dir_path, x, "the frames")
    channels = x.shape[1]
    if channels not in (1, 3):
        raise ValueError(f"{dir_path}: video has {channels} channels; PNM supports 1 or 3")
    dir_path.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if channels == 1 else "ppm"
    paths = [dir_path / f"frame_{i:05d}.{ext}" for i in range(x.shape[0])]
    for stale in {p for p in dir_path.iterdir() if _FRAME_RE.match(p.name)} - set(paths):
        stale.unlink()
    written = np.clip(x, 0.0, 1.0, out=np.empty(x.shape))  # the whole video at once
    written *= 255.0
    written += 0.5
    pixels = np.floor(written, out=written).astype(np.uint8)
    np.divide(pixels, 255.0, out=written)  # read_video's conversion of the same bytes
    _map(lambda i: write_pnm(pixels[i].transpose(1, 2, 0), paths[i]), range(len(paths)), threads)
    return _freeze(written)


# -- raw tensor container --


def write_tensor(x: VideoTensor, path) -> None:
    """Persist a tensor: magic, u32 dim count, u32 dims, float32 payload (LE).

    Only what read_tensor reads is written: a video (F, C, H, W) whose
    float32 payload is finite.  Any other x is a ValueError naming the path,
    raised before any byte is written; a value beyond float32's range is one.
    """
    path = Path(path)
    with np.errstate(over="ignore"):  # a value beyond float32's range casts to Inf
        values = np.ascontiguousarray(x, dtype="<f4")
    _refuse_unreadable(path, values, "the float32 payload")
    header = _TENSOR_MAGIC + struct.pack("<5I", 4, *values.shape)
    _atomic_write_bytes(path, header + values.tobytes())


def read_tensor(path, out: np.ndarray | None = None) -> VideoTensor:
    """A tensor file's float32 payload, checked finite and cast to float64.

    By default into a new read-only array; with out, a float64 array of the
    file's shape, into out, which is returned.  The cast is exact."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != _TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated header")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    if ndim != 4:
        raise FormatError(f"{path}: expected 4 dims (F,C,H,W), got {ndim}")
    if len(blob) < 24:
        raise FormatError(f"{path}: truncated dimension list")
    dims = struct.unpack_from("<4I", blob, 8)
    if 0 in dims:
        raise FormatError(f"{path}: zero dimension in {dims}")
    expected = math.prod(dims) * 4  # Python ints: no wraparound
    size = len(blob) - 24  # read in place: a slice of the blob would copy it
    if size != expected:
        raise FormatError(
            f"{path}: payload has {size} bytes, expected {expected} for dims {dims}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=24).reshape(dims)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: payload holds NaN or Inf")
    if out is None:
        out = values.astype(np.float64)
        out.flags.writeable = False  # frozen in place: no second copy
    elif out.shape != dims:
        raise ValueError(f"{path}: shape mismatch: {dims} vs {out.shape}")
    else:
        out[...] = values
    return out
