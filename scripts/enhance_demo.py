"""Side-by-side demo on the toy benchmark: plain noising/denoising versus
the calibrated variant, reported as a metric table against the sharp
reference.  No files are written; everything runs in memory.
"""

import argparse

import numpy as np

from noisecal import (
    CalibrationConfig,
    MetricReport,
    RngSeed,
    SamplerConfig,
    metric_report,
    nc_sdedit,
    toy_benchmark,
    toy_schedule,
)


def run(ref, den, root, t0, n_iters, num_steps):
    sched = toy_schedule()
    cal = CalibrationConfig(t0=t0, n_iters=n_iters, nu=1.0, rng=root.substream(3))
    samp = SamplerConfig(eta=1.0, num_steps=num_steps, rng=root.substream(4))
    out, trace = nc_sdedit(ref, cal, samp, den, sched)
    return np.clip(out, 0.0, 1.0), trace


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7001)
    ap.add_argument("--t0", type=int, default=600)
    ap.add_argument("--num-steps", type=int, default=30)
    ap.add_argument("--max-iters", type=int, default=3)
    args = ap.parse_args(argv)

    root = RngSeed(args.seed)
    den, ref = toy_benchmark(root)

    print("N," + MetricReport.CSV_HEADER)
    for n in range(args.max_iters + 1):
        out, _ = run(ref, den, root, args.t0, n, args.num_steps)
        report = metric_report(out, ref)
        print(f"{n},{report.to_csv_row()}")


if __name__ == "__main__":
    main()
