"""Generate a synthetic working set for the CLI: a degraded input video,
a mixture spec over sharp fields, and a ready-to-run enhance config.

The dataset fields are band-limited random textures; the input video is a
blurred draw from the same family, so enhancement has real headroom.  The
config uses the toy schedule (`noisecal.toy_schedule`), which keeps enough
signal at t0 for calibration to beat the plain baseline.
"""

import argparse
import json
from pathlib import Path

from noisecal import RngSeed, band_limited_field, blurred, write_tensor, write_video


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", type=Path, help="workspace directory to create")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-fields", type=int, default=16, help="mixture size")
    ap.add_argument("--frames", type=int, default=4)
    ap.add_argument("--size", type=int, default=16, help="square frame edge")
    ap.add_argument("--variance", type=float, default=0.03, help="component variance")
    args = ap.parse_args(argv)

    root = RngSeed(args.seed)
    shape = (args.frames, 1, args.size, args.size)
    args.out.mkdir(parents=True, exist_ok=True)

    spec = []
    for i in range(args.n_fields):
        field = band_limited_field(shape, root.substream(1, i))
        name = f"field_{i:03d}.vnt"
        write_tensor(field, args.out / name)
        spec.append({"weight": 1.0, "mean": name, "variance": args.variance})
    (args.out / "gmm.json").write_text(json.dumps(spec, indent=2) + "\n")

    sharp = band_limited_field(shape, root.substream(2))
    write_video(blurred(sharp), args.out / "input")  # write_video rounds to 8 bits
    write_video(sharp, args.out / "reference")

    cfg = {
        "schedule": {"T": 1000, "beta_start": 1e-5, "beta_end": 2e-3},
        "sampler": {"num_steps": 30, "seed": args.seed},
        "calibration": {"t0": 0.6, "N": 3, "nu": 1.0},
        "denoiser": {"kind": "gmm", "spec": "gmm.json"},
        "io": {"input": "input"},
    }
    (args.out / "enhance.json").write_text(json.dumps(cfg, indent=2) + "\n")

    print(f"wrote {args.n_fields} mixture fields, input/, reference/, enhance.json")
    print(f"try: noisecal enhance --config {args.out / 'enhance.json'} --output {args.out / 'out'}")


if __name__ == "__main__":
    main()
