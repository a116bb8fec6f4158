"""Acceptance gate: twelve checks covering the package's core claims.

Each test is one criterion; all seeds are frozen, all tolerances stated
inline.  Where a criterion carries a runtime budget, the elapsed time is
asserted as part of the test.
"""

import json
import os
import time

import numpy as np
from scipy import integrate

from doubles import CountingDenoiser
from noisecal import (
    CalibrationConfig,
    GmmDenoiser,
    RngSeed,
    SamplerConfig,
    as_video,
    calibrate_noise,
    ddim_grid,
    denoise_from,
    estimate_x0,
    forward_noise,
    gaussian_noise,
    l2_norm,
    linear_beta_schedule,
    low_pass,
    metric_report,
    mse_low,
    nc_sdedit,
    toy_benchmark,
    toy_schedule,
    write_tensor,
    write_video,
)
from noisecal import cli
from noisecal.cli import main
from noisecal.frequency import frequency_mask
from noisecal.metrics import spatial_frequency
from test_oracles import replace_low_freq

SCHED = linear_beta_schedule(1000, 1e-4, 0.02)
TOY_SCHED = toy_schedule()
NUS = [0.0, 0.3, 0.5, 0.7, 1.0]


def random_gmm(root: RngSeed, shape, n_components, var_hi=0.5):
    comps = []
    for i in range(n_components):
        sub = root.substream(10 + i)
        var = float(gaussian_noise((1, 1, 1, 1), sub.substream(1)).ravel()[0] ** 2)
        comps.append((1.0, gaussian_noise(shape, sub), min(var, var_hi)))
    return GmmDenoiser(comps)


def run_toy(ref, den, root, t0, n_iters, nu=1.0):
    cal = CalibrationConfig(t0=t0, n_iters=n_iters, nu=nu, rng=root.substream(3))
    samp = SamplerConfig(eta=1.0, num_steps=30, rng=root.substream(4))
    return nc_sdedit(ref, cal, samp, den, TOY_SCHED)


def test_acceptance_01_one_step_update_equivalence():
    """Recomposed x_t0 after one calibration step == direct low-band
    replacement, relative error < 1e-9, 100 randomized instances, < 10 s."""
    start = time.perf_counter()
    dims_f, dims_c, dims_hw = [1, 2, 4], [1, 3], [8, 16, 32]
    for case in range(100):
        root = RngSeed(9000 + case)
        if case == 0:
            shape = (4, 3, 32, 32)  # the stated maximum
        else:
            shape = (
                dims_f[case % 3],
                dims_c[case % 2],
                dims_hw[case % 3],
                dims_hw[(case // 3) % 3],
            )
        nu = NUS[case % 5]
        t0 = 1 + (case * 37) % 1000
        d = random_gmm(root, shape, 1 + case % 3)
        x_ref = gaussian_noise(shape, root.substream(1))
        eps0 = gaussian_noise(shape, root.substream(2))

        x_t0 = forward_noise(x_ref, t0, eps0, SCHED)
        eps_pred = d.predict_eps(x_t0, t0, SCHED)
        x0_hat = estimate_x0(x_t0, t0, eps_pred, SCHED)
        cfg = CalibrationConfig(t0=t0, n_iters=1, nu=nu, rng=RngSeed(0))
        eps_new, _ = calibrate_noise(x_ref, eps0, cfg, d, SCHED)

        lhs = forward_noise(x_ref, t0, eps_new, SCHED)
        rhs = replace_low_freq(x_t0, x_ref, x0_hat, t0, nu, SCHED)
        assert l2_norm(lhs - rhs) < 1e-9 * l2_norm(rhs), f"case {case}: t0={t0} nu={nu}"
    assert time.perf_counter() - start < 10.0


def test_acceptance_02_frequency_decomposition_suite():
    """Reconstruction <= 1e-10, idempotence <= 1e-10, Parseval relative
    <= 1e-9, mask nesting exact; 1000 randomized cases, < 10 s."""
    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(key=np.array([2, 2024], dtype=np.uint64)))
    for case in range(1000):
        h = int(gen.integers(4, 33))
        w = int(gen.integers(4, 33))
        nu = float(gen.uniform()) if case % 4 else NUS[(case // 4) % 5]
        x = as_video(gen.standard_normal((1, 1, h, w)))

        lo = low_pass(x, nu)
        hi = x - lo
        assert np.max(np.abs(lo + hi - x)) <= 1e-10
        assert np.max(np.abs(low_pass(lo, nu) - lo)) <= 1e-10
        parts = l2_norm(lo) ** 2 + l2_norm(hi) ** 2
        assert abs(parts - l2_norm(x) ** 2) <= 1e-9 * l2_norm(x) ** 2

        nu2 = float(gen.uniform())
        small, big = sorted((nu, nu2))
        m1 = frequency_mask(h, w, small)
        m2 = frequency_mask(h, w, big)
        assert (m1 <= m2).all()
    assert time.perf_counter() - start < 10.0


def test_acceptance_03_degenerate_cutoffs():
    """nu=0: x_t0 invariant under N=3 calibration (<= 1e-9 relative);
    nu=1: one update == pure model prediction (<= 1e-12); 50 cases each."""
    for case in range(50):
        root = RngSeed(9500 + case)
        shape = (1 + case % 2, 1, 8, 8)
        t0 = 1 + (case * 61) % 1000
        d = random_gmm(root, shape, 1 + case % 3)
        x_ref = gaussian_noise(shape, root.substream(1))
        eps0 = gaussian_noise(shape, root.substream(2))

        cfg = CalibrationConfig(t0=t0, n_iters=3, nu=0.0, rng=RngSeed(0))
        eps, _ = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
        before = forward_noise(x_ref, t0, eps0, SCHED)
        after = forward_noise(x_ref, t0, eps, SCHED)
        assert l2_norm(after - before) <= 1e-9 * l2_norm(before), f"case {case}"

    for case in range(50):
        root = RngSeed(9600 + case)
        shape = (1, 1 + 2 * (case % 2), 8, 8)
        t0 = 1 + (case * 53) % 1000
        d = random_gmm(root, shape, 1 + case % 3)
        x_ref = gaussian_noise(shape, root.substream(1))
        eps0 = gaussian_noise(shape, root.substream(2))

        cfg = CalibrationConfig(t0=t0, n_iters=1, nu=1.0, rng=RngSeed(0))
        eps, _ = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
        x_t0 = forward_noise(x_ref, t0, eps0, SCHED)
        expected = d.predict_eps(x_t0, t0, SCHED)
        assert np.max(np.abs(eps - expected)) <= 1e-12, f"case {case}"


def test_acceptance_04_objective_descent():
    """Mean objective strictly decreases over the first three updates and
    the first drop is the largest; 20 toy instances, 16-field empirical
    denoiser, t0=600; < 2 min."""
    start = time.perf_counter()
    per_instance = []
    for i in range(20):
        root = RngSeed(7000 + i)
        den, ref = toy_benchmark(root, sigma2=0.0)  # empirical: zero variance
        eps0 = gaussian_noise(ref.shape, root.substream(3))
        cfg = CalibrationConfig(t0=600, n_iters=4, nu=1.0, rng=root.substream(3))
        _, trace = calibrate_noise(ref, eps0, cfg, den, TOY_SCHED)
        per_instance.append(trace.objectives)  # objective after 0..3 updates
    means = np.mean(np.array(per_instance), axis=0)
    drops = -np.diff(means)
    assert (drops > 0).all(), f"means not strictly decreasing: {means.tolist()}"
    assert drops[0] > drops[1] and drops[0] > drops[2], f"drops {drops.tolist()}"
    assert time.perf_counter() - start < 120.0


def test_acceptance_05_consistency_beats_baseline():
    """Mean low-band MSE ratio (calibrated / plain) < 0.9 for each
    N in {1,2,3}, and mean SSIM improves, over 24 matched seeds."""
    msel = {n: [] for n in range(4)}
    ssims = {n: [] for n in range(4)}
    for i in range(24):
        root = RngSeed(7000 + i)
        den, ref = toy_benchmark(root)
        for n in range(4):
            out, _ = run_toy(ref, den, root, 600, n)
            msel[n].append(mse_low(out, ref))
            ssims[n].append(metric_report(np.clip(out, 0.0, 1.0), ref).ssim)
    base = float(np.mean(msel[0]))
    base_ssim = float(np.mean(ssims[0]))
    for n in (1, 2, 3):
        ratio = float(np.mean(msel[n])) / base
        assert ratio < 0.9, f"N={n}: mse_low ratio {ratio:.4f}"
        assert float(np.mean(ssims[n])) > base_ssim, f"N={n}: ssim did not improve"


def test_acceptance_06_consistency_degrades_with_t0():
    """Mean low-band MSE strictly increases across t0 in {400, 500, 600,
    700} at nu=1, N=3; means over 24 seeds."""
    means = []
    for t0 in (400, 500, 600, 700):
        vals = []
        for i in range(24):
            root = RngSeed(7000 + i)
            den, ref = toy_benchmark(root)
            out, _ = run_toy(ref, den, root, t0, 3)
            vals.append(mse_low(out, ref))
        means.append(float(np.mean(vals)))
    assert all(b > a for a, b in zip(means, means[1:])), f"means {means}"


def test_acceptance_07_posterior_mean_matches_quadrature():
    """Closed-form mixture posterior mean vs adaptive quadrature on 30
    randomized scalar cases (<= 3 components): |delta| < 1e-6."""

    def scalar(v):
        return np.full((1, 1, 1, 1), float(v))

    gen = np.random.Generator(np.random.Philox(key=np.array([7, 77], dtype=np.uint64)))
    for case in range(30):
        k = int(gen.integers(1, 4))
        weights = gen.uniform(0.2, 1.0, size=k)
        mus = gen.uniform(-1.0, 1.0, size=k)
        sig2 = gen.uniform(0.05, 0.5, size=k)  # floor keeps quadrature stable
        t = int(gen.integers(1, 1001))
        x_val = float(gen.uniform(-2.0, 2.0))

        d = GmmDenoiser([(float(w), scalar(m), float(v)) for w, m, v in zip(weights, mus, sig2)])
        got = float(d.posterior_mean(scalar(x_val), t, SCHED).ravel()[0])

        a = float(SCHED.alpha_bar[t])
        sa, noise_var = np.sqrt(a), 1.0 - a
        wn = weights / weights.sum()

        def prior(x0):
            return sum(
                w * np.exp(-((x0 - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)
                for w, m, v in zip(wn, mus, sig2)
            )

        def likelihood(x0):
            return np.exp(-((x_val - sa * x0) ** 2) / (2 * noise_var)) / np.sqrt(
                2 * np.pi * noise_var
            )

        num, _ = integrate.quad(lambda u: u * prior(u) * likelihood(u), -np.inf, np.inf, limit=200)
        den, _ = integrate.quad(lambda u: prior(u) * likelihood(u), -np.inf, np.inf, limit=200)
        assert abs(got - num / den) < 1e-6, f"case {case}: {got} vs {num / den}"


def test_acceptance_08_chain_statistics():
    """Full ancestral chain against a single Gaussian target (mu=0.3,
    var=0.04), 2000 scalar samples: mean within 0.0134, variance within
    12%; < 1 min."""
    start = time.perf_counter()
    d = GmmDenoiser([(1.0, np.full((2000, 1, 1, 1), 0.3), 0.04)])
    x_start = gaussian_noise((2000, 1, 1, 1), RngSeed(42, 9))
    full = SamplerConfig(eta=1.0, num_steps=SCHED.num_steps, rng=RngSeed(42, 10))
    grid = ddim_grid(SCHED, SCHED.num_steps, SCHED.num_steps)
    out = denoise_from(x_start, grid, d, SCHED, full)
    sample_mean = float(out.mean())
    sample_var = float(out.var(ddof=1))
    assert abs(sample_mean - 0.3) < 0.0134, f"mean {sample_mean}"
    assert 0.04 * 0.88 < sample_var < 0.04 * 1.12, f"var {sample_var}"
    assert time.perf_counter() - start < 60.0


def test_acceptance_09_enhance_determinism(tmp_path, capsys, monkeypatch):
    """cmd_enhance: byte-identical frames across two runs and across
    --threads {1, max}, which enhance, one run in one stack, ignores.
    cmd_sweep: the same CSV when its stacks, one run each, run in the
    calling thread and on max(2, n_cpu) threads."""
    raw = gaussian_noise((4, 3, 16, 16), RngSeed(300)) * 0.2 + 0.5
    write_video(as_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0), tmp_path / "input")
    for i, s in enumerate((301, 302)):
        mean = gaussian_noise((1, 3, 16, 16), RngSeed(s)) * 0.1 + 0.5
        write_tensor(as_video(mean), tmp_path / f"m{i}.vnt")
    spec = [
        {"weight": 0.5, "mean": "m0.vnt", "variance": 0.05},
        {"weight": 0.5, "mean": "m1.vnt", "variance": 0.05},
    ]
    (tmp_path / "gmm.json").write_text(json.dumps(spec))
    (tmp_path / "cfg.json").write_text(
        json.dumps(
            {
                "sampler": {"num_steps": 30, "seed": 11},
                "calibration": {"t0": 0.6, "N": 3, "nu": 1.0},
                "denoiser": {"kind": "gmm", "spec": "gmm.json"},
                "io": {"input": "input"},
            }
        )
    )
    n_cpu = os.cpu_count() or 2
    runs = [("a", 1), ("b", 1), ("c", n_cpu)]
    outputs = []
    for name, threads in runs:
        rc = main(
            [
                "enhance",
                "--config",
                str(tmp_path / "cfg.json"),
                "--output",
                str(tmp_path / name),
                "--threads",
                str(threads),
            ]
        )
        assert rc == 0
        out_dir = tmp_path / name
        frames = {p.name: p.read_bytes() for p in sorted(out_dir.glob("frame_*"))}
        assert len(frames) == 4
        outputs.append((frames, (out_dir / "trace.csv").read_bytes()))
    assert outputs[0] == outputs[1], "identical reruns diverged"
    assert outputs[0] == outputs[2], f"thread count {n_cpu} changed the output"

    monkeypatch.setattr(cli, "_STACK_BYTES", raw.nbytes)  # the input's bytes: one run a stack
    sweeps = []
    for threads in (1, max(2, n_cpu)):
        argv = ["sweep", "--config", str(tmp_path / "cfg.json"), "--t0-list", "0.6"]
        argv += ["--nu-list", "1.0", "--seeds", "2", "--threads", str(threads)]
        assert main(argv) == 0
        sweeps.append(capsys.readouterr().out)
    assert sweeps[0] == sweeps[1], "the sweep's pool changed its rows"


def test_acceptance_10_call_accounting():
    """Trace records exactly N extra denoiser calls beyond the sampling
    grid for N in {0,1,2,3}."""
    root = RngSeed(7042)
    den, ref = toy_benchmark(root)
    grid_len = len(ddim_grid(TOY_SCHED, 30, 600))
    for n in range(4):
        counter = CountingDenoiser(den)
        cal = CalibrationConfig(t0=600, n_iters=n, nu=1.0, rng=root.substream(3))
        samp = SamplerConfig(eta=1.0, num_steps=30, rng=root.substream(4))
        _, trace = nc_sdedit(ref, cal, samp, counter, TOY_SCHED)
        assert counter.calls == n + grid_len
        assert trace.calibration_calls == n
        assert trace.sampling_calls == grid_len
        assert trace.total_calls - trace.sampling_calls == n


def test_acceptance_11_faithfulness_monotone_in_t0():
    """Plain enhancement (N=0): mean MSE against the reference is
    non-decreasing over t0 in {200, 500, 800}; 10 seeds."""
    means = []
    for t0 in (200, 500, 800):
        vals = []
        for i in range(10):
            root = RngSeed(7000 + i)
            den, ref = toy_benchmark(root)
            out, _ = run_toy(ref, den, root, t0, 0)
            vals.append(mse_low(out, ref, 1.0))
        means.append(float(np.mean(vals)))
    assert means[0] <= means[1] <= means[2], f"means {means}"


def test_acceptance_12_metric_goldens():
    """Hand-derived metric values at their stated tolerances."""

    def frame(arr):
        a = np.asarray(arr, dtype=np.float64)
        return as_video(a.reshape((1, 1) + a.shape))

    # mse arithmetic
    assert mse_low(frame([[0.0, 0.0]]), frame([[1.0, 1.0]]), 1.0) == 1.0
    assert mse_low(frame([[0.0, 2.0]]), frame([[1.0, 0.0]]), 1.0) == 2.5

    # low-band mse: full band == plain; Nyquist-only difference vanishes
    a = gaussian_noise((1, 1, 8, 8), RngSeed(400))
    b = gaussian_noise((1, 1, 8, 8), RngSeed(401))
    plain = float(np.mean((a - b) ** 2))
    assert abs(mse_low(a, b, nu=1.0) - plain) <= 1e-10 * plain
    nyq = np.cos(np.pi * np.arange(8))[None, None, None, :] * np.ones((1, 1, 8, 1))
    assert mse_low(a, as_video(a + nyq), nu=0.5) <= 1e-12

    # ssim: identity, constant-frame luminance case to 1e-4
    x = gaussian_noise((1, 1, 16, 16), RngSeed(402))
    assert abs(metric_report(x, x).ssim - 1.0) <= 1e-9
    const_a = as_video(np.full((1, 1, 12, 12), 0.5))
    const_b = as_video(np.full((1, 1, 12, 12), 0.25))
    expected = (2 * 0.5 * 0.25 + 1e-4) / (0.5**2 + 0.25**2 + 1e-4)
    const_ssim = metric_report(const_a, const_b).ssim
    assert abs(const_ssim - expected) <= 1e-9
    assert abs(const_ssim - 0.80006) <= 1e-4

    # spatial frequency: constant zero; 2x2 step to 1e-7; d_sf antisymmetry
    assert spatial_frequency(as_video(np.full((1, 1, 4, 4), 0.3))) == 0.0
    assert abs(spatial_frequency(frame([[0.0, 1.0], [0.0, 1.0]])) - 0.7071068) <= 1e-7
    sf_a, sf_b = spatial_frequency(a), spatial_frequency(b)
    assert (sf_a - sf_b) == -(sf_b - sf_a)
