"""Benchmark workloads and the seeded generator of their workspaces.

A workspace is what a user of the CLI brings: an input clip, a sharp
reference clip, a Gaussian-mixture spec over sharp band-limited fields, and
run configs on the toy schedule (T=1000, beta 1e-5..2e-3), the regime in which
calibration makes progress.  Everything is drawn from one seed, so the same
seed gives byte-identical files.

    python3 perfbench/workspace.py --workload sweep-small --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    channels: int
    size: int
    components: int
    mean_frames: int  # 1 gives a static prior that the CLI tiles across frames
    num_steps: int
    n_iters: int
    nu: float
    t0: float
    threads: int
    t0_list: tuple[float, ...] = ()  # non-empty: the op is `sweep`, not `enhance`
    nu_list: tuple[float, ...] = ()
    seeds: int = 1  # sweep seeds per grid cell
    roundtrip: bool = False  # follow `enhance` with `metrics out reference`

    @property
    def cells(self) -> int:
        """Pipeline runs per op: grid cells times seeds for a sweep, else 1."""
        return max(len(self.t0_list), 1) * max(len(self.nu_list), 1) * self.seeds


# Component variance of every mixture.  At 0.03 the calibration update has
# little gain to work with: it raised the objective on 8-12 of 24 rgb-roundtrip
# ops and on 1 of 15 enhance-large workspaces; at 0.3 it fell on every one tried.
VARIANCE = 0.3


WORKLOADS = {
    w.name: w
    for w in (
        # denoiser-bound: shows posterior_mean kernels and memory
        Workload(
            "enhance-large",
            frames=8, channels=1, size=128, components=32, mean_frames=8,
            num_steps=30, n_iters=3, nu=0.5, t0=0.6, threads=1,
        ),
        # time spread over dispatch, band split, metrics, RNG and the pool, not the denoiser
        Workload(
            "sweep-small",
            frames=4, channels=1, size=16, components=16, mean_frames=4,
            num_steps=30, n_iters=3, nu=0.5, t0=0.6, threads=2,
            t0_list=(0.4, 0.6, 0.8), nu_list=(0.5, 1.0), seeds=4,
        ),
        # band split, SSIM and P6 I/O dominate; a denoiser change should not move it
        Workload(
            "rgb-roundtrip",
            frames=48, channels=3, size=64, components=2, mean_frames=1,
            num_steps=4, n_iters=1, nu=0.5, t0=0.6, threads=2, roundtrip=True,
        ),
    )
}


def _quantize(x):
    import numpy as np
    from noisecal import as_video

    return as_video(np.floor(np.clip(x, 0.0, 1.0) * 255.0 + 0.5) / 255.0)


def make_workspace(w: Workload, seed: int, out: Path) -> Path:
    """Write the workspace of workload `w` for `seed` into `out`; return the config path.

    baseline.json beside it is the same config with calibration off.
    """
    from noisecal import RngSeed, band_limited_field, blurred, write_tensor, write_video

    root = RngSeed(seed)
    out.mkdir(parents=True, exist_ok=True)
    mean_shape = (w.mean_frames, w.channels, w.size, w.size)
    spec = []
    for i in range(w.components):
        name = f"field_{i:03d}.vnt"
        write_tensor(band_limited_field(mean_shape, root.substream(1, i)), out / name)
        spec.append({"weight": 1.0, "mean": name, "variance": VARIANCE})
    (out / "gmm.json").write_text(json.dumps(spec, indent=2) + "\n")

    sharp = band_limited_field((w.frames, w.channels, w.size, w.size), root.substream(2))
    write_video(_quantize(blurred(sharp)), out / "input")
    write_video(_quantize(sharp), out / "reference")

    cfg = {
        "schedule": {"T": 1000, "beta_start": 1e-5, "beta_end": 2e-3},
        "sampler": {"num_steps": w.num_steps, "seed": seed},
        "calibration": {"t0": w.t0, "N": w.n_iters, "nu": w.nu},
        "denoiser": {"kind": "gmm", "spec": "gmm.json"},
        "io": {"input": "input"},
    }
    config = out / "config.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n")
    # the same run without calibration (N=0), the plain SDEdit baseline
    cfg["calibration"]["N"] = 0
    (out / "baseline.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    make_workspace(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
