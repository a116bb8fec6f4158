"""Random configs and random PNM/VNT bytes through the CLI.

Each case writes a valid workspace (config, input and dataset frames, a
mixture spec and its tensors), then damages at most one part of it: a config
value, key or byte, the spec, one frame, one tensor, or a sweep list.
Whatever the input, `main` returns a documented exit code (0 ok, 1 config,
2 I/O, 3 numeric) and lets no exception escape.  Cases stay small: T <= 64,
frames at most 2x3x12x12, at most 2 mixture components.  Large T and step
counts are bounded in load_config and tested there without allocating.
"""

import json
import math
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from noisecal.cli import main

EXIT_CODES = {0, 1, 2, 3}

# wrong types and out-of-range values; no integer here can allocate much
WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(0, 3), max_size=2),
)

# decimal numbers as the sweep lists carry them, far beyond float range included
NUMBER_TEXT = st.one_of(
    st.integers(-5, 70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(0, 10**400).map(str),
)

# up to 8 pixels, or the 11 or 12 that metric_report's 11x11 SSIM window needs
SIDE = st.one_of(st.integers(1, 8), st.integers(11, 12))

DAMAGE = ["none", "none", "value", "key", "config", "spec", "frame", "tensor", "list"]


def damaged(draw, blob: bytes) -> bytes:
    """Truncate, overwrite or insert bytes, or replace the file outright."""
    how = draw(st.sampled_from(["truncate", "flip", "splice", "digits", "random"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob)))]
    if how == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1 :]
    if how == "splice":
        i = draw(st.integers(0, len(blob)))
        return blob[:i] + draw(st.binary(max_size=8)) + blob[i:]
    if how == "digits":  # a header number with up to 5000 digits
        i = draw(st.integers(2, min(len(blob), 12)))
        return blob[:i] + b"9" * draw(st.integers(1, 5000)) + blob[i:]
    return draw(st.binary(max_size=40))


def config(draw) -> dict:
    """A valid config on a T <= 64 schedule with t0 on or above the first grid step."""
    t_max = draw(st.integers(1, 64))
    num_steps = draw(st.integers(1, t_max))
    first = (2 * t_max + num_steps) // (2 * num_steps)
    beta_start = draw(st.floats(1e-5, 0.05))
    kind, spec = draw(st.sampled_from([("gmm", "gmm.json"), ("dataset", "data")]))
    return {
        "schedule": {
            "T": t_max,
            "beta_start": beta_start,
            "beta_end": draw(st.floats(beta_start, 0.3)),
        },
        "sampler": {
            "num_steps": num_steps,
            "eta": draw(st.floats(0.0, 1.0)),
            "seed": draw(st.integers(0, 2**64 - 1)),
        },
        "calibration": {
            "t0": draw(st.one_of(st.integers(first, t_max), st.floats(first / t_max, 1.0))),
            "N": draw(st.integers(0, 3)),
            "nu": draw(st.floats(0.0, 1.0)),
        },
        "denoiser": {"kind": kind, "spec": spec},
        "io": {"input": "input"},
    }


def write_case(draw, root: Path, damage: str) -> None:
    frames = draw(st.integers(1, 2))
    c = draw(st.sampled_from([1, 3]))
    h, w = draw(SIDE), draw(SIDE)

    files: dict[str, bytes] = {}
    ext = "pgm" if c == 1 else "ppm"
    header = (b"P5" if c == 1 else b"P6") + f"\n{w} {h}\n255\n".encode()
    for name, count in (("input", frames), ("data", draw(st.integers(1, 2)))):
        for i in range(count):
            pixels = draw(st.binary(min_size=c * h * w, max_size=c * h * w))
            files[f"{name}/frame_{i:05d}.{ext}"] = header + pixels

    spec = []
    dims = (draw(st.sampled_from([1, frames])), c, h, w)
    for i in range(draw(st.integers(1, 2))):
        n = dims[0] * c * h * w
        values = draw(st.lists(st.floats(-2.0, 2.0, width=32), min_size=n, max_size=n))
        files[f"m{i}.vnt"] = b"VNT1" + struct.pack(f"<5I{n}f", 4, *dims, *values)
        weight = draw(st.one_of(st.floats(0.1, 2.0), st.floats(1e300, 1e308)))
        spec.append({"weight": weight, "mean": f"m{i}.vnt", "variance": 0.1})
    files["gmm.json"] = json.dumps(spec).encode()

    cfg = config(draw)
    if damage == "value":
        section = draw(st.sampled_from(sorted(cfg)))
        cfg[section][draw(st.sampled_from(sorted(cfg[section])))] = draw(WILD)
    elif damage == "key":
        section = draw(st.sampled_from(sorted(cfg) + [None]))
        (cfg if section is None else cfg[section])["bogus"] = draw(WILD)
    files["cfg.json"] = json.dumps(cfg).encode()

    target = {
        "config": "cfg.json",
        "spec": "gmm.json",
        "frame": draw(st.sampled_from(sorted(f for f in files if "/frame_" in f))),
        "tensor": "m0.vnt",
    }.get(damage)
    if target is not None:
        files[target] = damaged(draw, files[target])
    if damage == "tensor" and draw(st.booleans()):
        # the right or arbitrary dims, over any float32 bits: NaN and Inf included
        dims = draw(st.one_of(st.just(dims), st.tuples(*[st.integers(0, 2**32 - 1)] * 4)))
        n = min(math.prod(dims), 2 * 3 * 12 * 12)
        payload = draw(st.binary(min_size=4 * n, max_size=4 * n))
        files["m0.vnt"] = b"VNT1" + struct.pack("<5I", 4, *dims) + payload

    for rel, blob in files.items():
        (root / rel).parent.mkdir(exist_ok=True)
        (root / rel).write_bytes(blob)


def argv_for(draw, root: Path, damage: str) -> list[str]:
    cmd = draw(st.sampled_from(["enhance", "sweep", "metrics"]))
    if cmd == "metrics":
        dirs = st.sampled_from(["input", "data", "missing"])
        return [cmd, str(root / draw(dirs)), str(root / draw(dirs))]
    argv = [cmd, f"--config={root / 'cfg.json'}"]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(0, 2**64 - 1))}")
    if cmd == "enhance":
        argv += [f"--output={root / 'out'}", f"--threads={draw(st.integers(1, 2))}"]
    else:
        if damage == "list":
            t0s = nus = st.lists(NUMBER_TEXT, max_size=3)
        else:  # fractions of T: at T <= 64 some fall below the first grid step
            t0s = nus = st.lists(st.floats(0.0, 1.0).map(repr), min_size=1, max_size=2)
        argv += [
            f"--t0-list={','.join(draw(t0s))}",
            f"--nu-list={','.join(draw(nus))}",
            f"--seeds={draw(st.integers(1, 2))}",
            f"--threads={draw(st.integers(1, 2))}",
        ]
    return argv


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_exit_code_is_documented(data):
    damage = data.draw(st.sampled_from(DAMAGE))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_case(data.draw, root, damage)
        assert main(argv_for(data.draw, root, damage)) in EXIT_CODES
