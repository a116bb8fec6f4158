"""Per-op correctness gate: an op passes only if every check here holds.

Each check reads what the CLI wrote (frame files, trace.csv, metrics.json,
the sweep CSV, the metrics JSON) and returns a list of problems; an empty
list is a pass.  `frames_digest` hashes the frame bytes so that a re-run of
one seed, and the traced twin of an untraced op, can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

METRIC_KEYS = ("mse", "mse_low", "ssim", "sf_a", "sf_b", "d_sf")
_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def frame_names(frames: int, channels: int) -> list[str]:
    ext = "pgm" if channels == 1 else "ppm"
    return [f"frame_{i:05d}.{ext}" for i in range(frames)]


def read_frame(path: Path, channels: int, size: int) -> np.ndarray:
    """Parse one binary P5/P6 frame of the expected shape to (C, H, W) in [0, 1]."""
    blob = path.read_bytes()
    m = _PNM_HEADER.match(blob)
    magic = b"P5" if channels == 1 else b"P6"
    if m is None or m.group(1) != magic:
        raise ValueError(f"{path.name}: expected a {magic.decode()} header")
    width, height, maxval = (int(g) for g in m.groups()[1:])
    if (width, height, maxval) != (size, size, 255):
        raise ValueError(f"{path.name}: header {width}x{height} maxval {maxval}")
    payload = blob[m.end():]
    if len(payload) != size * size * channels:
        raise ValueError(f"{path.name}: payload has {len(payload)} bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(size, size, channels).transpose(2, 0, 1)


def read_frames(dir_path: Path, frames: int, channels: int, size: int) -> np.ndarray:
    names = frame_names(frames, channels)
    return np.stack([read_frame(dir_path / n, channels, size) for n in names])


def frames_digest(dir_path: Path, frames: int, channels: int) -> str:
    h = hashlib.sha256()
    for name in frame_names(frames, channels):
        h.update((dir_path / name).read_bytes())
    return h.hexdigest()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def objectives_from_trace(text: str) -> list[float]:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [float(r["objective"]) for r in csv.DictReader(rows)]


def check_descent(objectives: list[float], n_iters: int) -> list[str]:
    """Calibration must lower the objective: entry N below entry 0."""
    if len(objectives) != n_iters + 1:
        return [f"{len(objectives)} objectives, expected {n_iters + 1}"]
    if not _finite(objectives):
        return ["non-finite objective"]
    if n_iters > 0 and not objectives[n_iters] < objectives[0]:
        return [f"objective did not fall: {objectives[0]!r} -> {objectives[n_iters]!r}"]
    return []


def check_enhance(out: Path, frames: int, channels: int, size: int, n_iters: int):
    """Returns (problems, output frames or None, objectives)."""
    expected = set(frame_names(frames, channels)) | {"trace.csv", "metrics.json"}
    if not out.is_dir():
        return [f"{out} missing"], None, []
    found = {p.name for p in out.iterdir()}
    if found != expected:
        return [f"output files differ: extra {sorted(found - expected)[:3]}, "
                f"missing {sorted(expected - found)[:3]}"], None, []
    try:
        x = read_frames(out, frames, channels, size)
    except ValueError as e:
        return [str(e)], None, []
    objectives = objectives_from_trace((out / "trace.csv").read_text())
    problems = check_descent(objectives, n_iters)
    problems += check_metrics_json((out / "metrics.json").read_text())
    return problems, x, objectives


def check_metrics_json(text: str) -> list[str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"metrics JSON: {e}"]
    if not isinstance(doc, dict) or set(doc) != set(METRIC_KEYS):
        return ["metrics JSON has the wrong keys"]
    return [] if _finite(doc.values()) else ["metrics JSON has non-finite values"]


def check_sweep(text: str, cells: list[tuple[str, str]], seeds: int, n_iters: int):
    """Returns (problems, per-seed rows as dicts).

    Expected: one row per (cell, seed) in grid order, then one mean row per cell.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    objs = [f"obj{i}" for i in range(n_iters + 1)]
    header = ["t0", "nu", "seed", "mse_low", "mse", "ssim", "d_sf", *objs]
    if not rows or list(rows[0]) != header:
        return ["sweep CSV header differs"], []
    want = [(t0, nu, str(k)) for t0, nu in cells for k in range(seeds)]
    want += [(t0, nu, "mean") for t0, nu in cells]
    got = [(r["t0"], r["nu"], r["seed"]) for r in rows]
    if got != want:
        return [f"sweep CSV has rows {got[:3]}..., expected {want[:3]}..."], []
    problems = []
    seed_rows = rows[: len(cells) * seeds]
    for r in rows:
        keys = header[3:] if r["seed"] != "mean" else header[3:7]
        try:
            vals = [float(r[k]) for k in keys]
        except (TypeError, ValueError):
            return [f"sweep CSV row {r['t0']},{r['nu']},{r['seed']} is not numeric"], []
        if not _finite(vals):
            problems.append(f"sweep CSV row {r['t0']},{r['nu']},{r['seed']} is not finite")
    for r in seed_rows:
        problems += check_descent([float(r[k]) for k in objs], n_iters)
    return problems, seed_rows
