"""Plot-free descent study: how the low-band objective falls with each
calibration update, averaged over toy instances, for several noising
depths.  Emits a CSV-style table to stdout.
"""

import argparse

import numpy as np

from noisecal import (
    CalibrationConfig,
    RngSeed,
    calibrate_noise,
    gaussian_noise,
    toy_benchmark,
    toy_schedule,
)


def mean_curve(t0, n_iters, n_seeds, seed_base, sigma2):
    sched = toy_schedule()
    curves = []
    for i in range(n_seeds):
        root = RngSeed(seed_base + i)
        den, ref = toy_benchmark(root, sigma2=sigma2)
        eps0 = gaussian_noise(ref.shape, root.substream(3))
        cfg = CalibrationConfig(t0=t0, n_iters=n_iters, nu=1.0, rng=root.substream(3))
        _, trace = calibrate_noise(ref, eps0, cfg, den, sched)
        curves.append(trace.objectives)
    return np.mean(np.array(curves), axis=0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t0", type=int, nargs="+", default=[400, 600, 800])
    ap.add_argument("--iters", type=int, default=6)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--seed-base", type=int, default=7000)
    ap.add_argument("--sigma2", type=float, default=0.0)
    args = ap.parse_args(argv)

    print("t0," + ",".join(f"obj{k}" for k in range(args.iters)))
    for t0 in args.t0:
        curve = mean_curve(t0, args.iters, args.seeds, args.seed_base, args.sigma2)
        print(f"{t0}," + ",".join(f"{v:.6f}" for v in curve))


if __name__ == "__main__":
    main()
