"""Calibration judged by its output on the toy benchmark: one CSV row per
(eta, variance, t0, N) cell, each value the median over seeds.

mse_low, mse, ssim and d_sf are the report of the unclipped output against
the input; high_mse_truth is the output's high-band MSE at --nu against the
sharp field the input was blurred from; objective is the low-band objective
after the last of the N updates; noise_var is the mean square of the noise
after the N updates, calibrate_noise's result for the draw nc_sdedit makes at
its grid start; calls is nc_sdedit's denoiser calls (trace.total_calls), N
plus the length of its sampling grid.  Seed i is the toy instance RngSeed(7000+i), whose
calibration and sampling draw from RngSeed(100+i).substream(1) and (2).

k, G and N* are the closed form of one Gaussian component N(m, v I) at the
cell's v and grid start, alike for both etas.  k is the factor by which each
update shrinks the noise's low-band distance to its fixed point.  The eta=0
pass outputs m + S*(x_t0 - sqrt(abar)*m), and G = S*(abar*v + 1 - abar) /
(sqrt(abar)*v): once calibrated to its fixed point, the eta=0 output's low
band lies G times as far from m as the reference's.  N* is the N at which
that bias crosses zero, from 1 - k^N* = (1 + q)/G - q with q =
abar*v/(1 - abar).  tests/test_oracles.py pins the whole pipeline to this
closed form.
"""

import argparse
import itertools
import math
from dataclasses import replace

import numpy as np

from noisecal import (
    CalibrationConfig,
    RngSeed,
    SamplerConfig,
    band_limited_field,
    blurred,
    calibrate_noise,
    ddim_grid,
    gaussian_noise,
    low_pass,
    metric_report,
    nc_sdedit,
    toy_benchmark,
    toy_schedule,
)

ETAS = (0.0, 1.0)  # DDIM's deterministic sampler and the ancestral one
COLUMNS = ("mse_low", "mse", "ssim", "d_sf", "high_mse_truth", "objective", "noise_var", "calls")
LAW = ("k", "G", "N*")
NUM_STEPS = 30


def one_gaussian_law(v, t0):
    """k, G and N* of one component of variance v, on the study's grid from t0.

    A point component (v = 0) has k = 1 and no G or N*: both are nan.  A
    one-step grid outputs the fitted estimate, so G = 1 and N* = inf."""
    sched = toy_schedule()
    grid = ddim_grid(sched, NUM_STEPS, t0)
    abar = float(sched.alpha_bar[grid[0]])
    if v == 0:
        return 1.0, math.nan, math.nan
    k = (1.0 - abar) / (abar * v + 1.0 - abar)
    if len(grid) == 1:  # the log of roundoff in (1 + q)/G - q would give a finite N*
        return k, 1.0, math.inf
    gain = 1.0  # S, the product of every step's factor
    for t, t_prev in zip(grid, grid[1:] + [0]):
        a, a_prev = float(sched.alpha_bar[t]), float(sched.alpha_bar[t_prev])
        g = math.sqrt(a) * v / (a * v + 1.0 - a)  # the clean estimate's gain
        k_t = (1.0 - a) / (a * v + 1.0 - a)  # and its predicted noise's, over sqrt(1 - a)
        step = math.sqrt(a_prev) * g + math.sqrt((1.0 - a_prev) / (1.0 - a)) * k_t
        gain *= g if t_prev == 0 else step
    big_g = gain * (abar * v + 1.0 - abar) / (math.sqrt(abar) * v)
    q = abar * v / (1.0 - abar)
    return k, big_g, math.log(1.0 - ((1.0 + q) / big_g - q)) / math.log(k)


def cell(eta, v, t0, n, nu, seeds):
    """Median over seeds 0..seeds-1 of each of COLUMNS, by name."""
    rows, sched = [], toy_schedule()
    for i in range(seeds):
        root = RngSeed(7000 + i)
        den, ref = toy_benchmark(root, sigma2=v)
        truth = band_limited_field(ref.shape, root.substream(2))
        if blurred(truth).tobytes() != ref.tobytes():
            raise RuntimeError(f"RngSeed({7000 + i}): the sharp field does not blur to the input")
        draws = RngSeed(100 + i)
        cal = CalibrationConfig(t0=t0, n_iters=n, nu=nu, rng=draws.substream(1))
        samp = SamplerConfig(eta=eta, num_steps=NUM_STEPS, rng=draws.substream(2))
        out, trace = nc_sdedit(ref, cal, samp, den, sched)
        start = replace(cal, t0=ddim_grid(sched, samp.num_steps, t0)[0])  # where nc_sdedit calibrates
        eps, _ = calibrate_noise(ref, gaussian_noise(ref.shape, cal.rng), start, den, sched)
        gap = out - truth
        high = gap - low_pass(gap, nu)
        r = metric_report(out, ref)
        rows.append([r.mse_low, r.mse, r.ssim, r.d_sf, np.mean(high * high), trace.objectives[-1],
                     np.mean(eps * eps), trace.total_calls])
    return dict(zip(COLUMNS, np.median(rows, axis=0)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variance", type=float, nargs="+", default=[0.03, 0.3], help="mixture v")
    ap.add_argument("--t0", type=int, nargs="+", default=[400, 600, 800])
    ap.add_argument("--iters", type=int, nargs="+", default=[0, 3, 6, 20], help="updates N")
    ap.add_argument("--nu", type=float, default=0.5, help="cutoff of the update and high_mse_truth")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    print("eta,variance,t0,N," + ",".join(COLUMNS + LAW))
    for eta, v, t0, n in itertools.product(ETAS, args.variance, args.t0, args.iters):
        values = [*cell(eta, v, t0, n, args.nu, args.seeds).values(), *one_gaussian_law(v, t0)]
        print(f"{eta},{v},{t0},{n}," + ",".join(f"{x:.4g}" for x in values))


if __name__ == "__main__":
    main()
