"""Bit-exact file I/O: frame-directory videos, binary PNM codecs, raw tensors.

Videos live on disk as directories of frame_00000.ppm (3-channel, P6) or
frame_00000.pgm (1-channel, P5) files, 8-bit, maxval 255.  Tensors persist
in a raw little-endian float32 container so noise and intermediates survive
runs byte-for-byte.  All writes go through a temp file plus rename.
"""

from __future__ import annotations

import math
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .tensor import VideoTensor, _freeze

_FRAME_RE = re.compile(r"^frame_(\d{5})\.(ppm|pgm)$")
_TENSOR_MAGIC = b"VNT1"


class PnmFormatError(ValueError):
    """Malformed PNM header or payload."""


class TensorFormatError(ValueError):
    """Malformed raw tensor file."""


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


# -- PNM (P5 grayscale / P6 RGB, binary, maxval 255) --


def _read_pnm_header(blob: bytes, path: Path) -> tuple[bytes, int, int, int, int]:
    """Returns (magic, width, height, maxval, payload offset)."""
    if blob[:2] not in (b"P5", b"P6"):
        raise PnmFormatError(f"{path}: not a binary PGM/PPM file")
    magic = blob[:2]
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise PnmFormatError(f"{path}: truncated header")
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            if pos - start > 9:  # int() refuses beyond 4300 digits; no real frame is this big
                raise PnmFormatError(f"{path}: header number has {pos - start} digits")
            fields.append(int(blob[start:pos]))
        else:
            raise PnmFormatError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise PnmFormatError(f"{path}: header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise PnmFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise PnmFormatError(f"{path}: invalid dimensions {width}x{height}")
    return magic, width, height, maxval, pos


def read_pnm(path) -> np.ndarray:
    """Read one P5/P6 file to a (C, H, W) float64 array, values v/255."""
    path = Path(path)
    blob = path.read_bytes()
    magic, width, height, _, pos = _read_pnm_header(blob, path)
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[pos : pos + need]
    if len(payload) != need:
        raise PnmFormatError(f"{path}: payload has {len(payload)} bytes, expected {need}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    # channels first in C order, built by the one uint8 -> float64 conversion
    return np.ascontiguousarray(pixels.transpose(2, 0, 1), dtype=np.float64) / 255.0


def write_pnm(frame: np.ndarray, path) -> None:
    """Write a (C, H, W) array in [0, 1] as binary P5/P6, maxval 255.

    Values are clamped to [0, 1] then quantized round-half-up, so 0.5 maps
    to byte 128; goldens depend on this convention.
    """
    path = Path(path)
    channels, height, width = frame.shape
    if channels not in (1, 3):
        raise ValueError(f"{path}: PNM supports 1 or 3 channels, got {channels}")
    scaled = np.floor(np.clip(frame, 0.0, 1.0) * 255.0 + 0.5)
    data = scaled.astype(np.uint8)
    if channels == 1:
        magic, payload = b"P5", data[0].tobytes()
    else:
        magic, payload = b"P6", data.transpose(1, 2, 0).tobytes()
    header = magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")
    _atomic_write_bytes(path, header + payload)


# -- frame directories --


def _scan_frames(dir_path: Path) -> list[Path]:
    if not dir_path.is_dir():
        raise FileNotFoundError(f"{dir_path}: not a directory")
    found: dict[int, Path] = {}
    for entry in sorted(dir_path.iterdir()):
        m = _FRAME_RE.match(entry.name)
        if m and found.setdefault(int(m.group(1)), entry) != entry:
            raise PnmFormatError(f"{entry}: a second file for frame index {m.group(1)}")
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
    frames = []
    shape = None
    for p in paths:
        frame = read_pnm(p)
        if shape is None:
            shape = frame.shape
        elif frame.shape != shape:
            raise PnmFormatError(f"{p}: frame shape {frame.shape} != first frame {shape}")
        frames.append(frame)
    return _freeze(np.stack(frames))  # frozen in place: no second copy


def write_video(x: VideoTensor, dir_path, threads: int = 1) -> None:
    """Write a (F, C, H, W) tensor as a frame directory (C must be 1 or 3).

    Other frame files in the directory are removed.  threads > 1 writes from
    a thread pool; the bytes on disk do not depend on it.
    """
    channels = x.shape[1]
    if channels not in (1, 3):
        raise ValueError(f"video has {channels} channels; PNM supports 1 or 3")
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if channels == 1 else "ppm"
    paths = [dir_path / f"frame_{i:05d}.{ext}" for i in range(x.shape[0])]
    for stale in {p for p in dir_path.iterdir() if _FRAME_RE.match(p.name)} - set(paths):
        stale.unlink()
    if threads <= 1:
        for frame, p in zip(x, paths):
            write_pnm(frame, p)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(write_pnm, x, paths))


def remove_video(dir_path) -> None:
    """Delete a frame directory: its frame files, then the directory itself.

    Any other file inside makes the final rmdir raise OSError.
    """
    dir_path = Path(dir_path)
    for p in dir_path.iterdir():
        if _FRAME_RE.match(p.name):
            p.unlink()
    dir_path.rmdir()


# -- raw tensor container --


def write_tensor(x: VideoTensor, path) -> None:
    """Persist a tensor: magic, u32 dim count, u32 dims, float32 payload (LE)."""
    path = Path(path)
    dims = x.shape
    header = _TENSOR_MAGIC + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    payload = np.ascontiguousarray(x, dtype="<f4").tobytes()
    _atomic_write_bytes(path, header + payload)


def read_tensor(path) -> VideoTensor:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != _TENSOR_MAGIC:
        raise TensorFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise TensorFormatError(f"{path}: truncated header")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    if ndim != 4:
        raise TensorFormatError(f"{path}: expected 4 dims (F,C,H,W), got {ndim}")
    if len(blob) < 8 + 4 * ndim:
        raise TensorFormatError(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    if 0 in dims:
        raise TensorFormatError(f"{path}: zero dimension in {dims}")
    offset = 8 + 4 * ndim
    expected = math.prod(dims) * 4  # Python ints: no wraparound
    payload = blob[offset:]
    if len(payload) != expected:
        raise TensorFormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected} for dims {dims}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(values).all():
        raise TensorFormatError(f"{path}: payload holds NaN or Inf")
    values.flags.writeable = False  # frozen in place: no second copy
    return values.reshape(dims)
