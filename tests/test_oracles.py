"""Band split, calibration update and ancestral chain against earlier forms.

The package filters on the real FFT's half-plane, takes the high band as the
residual of the low band, and filters the gap once per calibration step.  The
oracles below keep the earlier forms: a full-plane complex fft2/ifft2 masked
filter whose imaginary residue is checked, a calibration update that filters
reference and estimate separately, and one that filters the gap twice (the
objective through content_objective, the update through a complement mask).  The
package's ancestral chain is denoise_from on the full grid at eta=1; the
oracle keeps the dedicated DDPM step (posterior mean plus posterior variance)
and the T-to-0 chain built on it.  A mixture of one-frame means applies to
every frame of a video; the oracle repeats each mean along the frame axis.
The package's GMM posterior is per-frame matrix-vector products against the
centred means; the oracle keeps the broadcast form, which builds the residual
from every scaled mean, and runs it in long double as the exact reference.
Runs that share t0 advance as one (B, F, C, H, W) stack; the oracles keep the
pipeline one run at a time and the posterior as a loop over the stack's rows,
and every stacked row must equal its run byte for byte.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecal import (
    CalibrationConfig,
    GmmDenoiser,
    RngSeed,
    SamplerConfig,
    calibrate_noise,
    content_objective,
    ddim_grid,
    ddim_step,
    denoise_from,
    estimate_x0,
    forward_noise,
    frequency_mask,
    gaussian_noise,
    high_pass,
    l2_norm,
    linear_beta_schedule,
    low_pass,
    metric_report,
    mse_low,
    nc_sdedit,
    read_video,
    replace_low_freq,
    toy_schedule,
    write_video,
)
from noisecal.cli import _STREAM_SWEEP, _float_bits, _run_configs, build_schedule, load_config, main
from noisecal.tensor import _freeze

ROOT = Path(__file__).resolve().parents[1]

NUS = [0.0, 0.3, 0.5, 0.77, 1.0]
SHAPES = [(8, 8), (7, 9), (6, 9), (9, 6), (7, 5)]
SCHED = linear_beta_schedule(1000, 1e-4, 0.02)


def oracle_pass_map(h, w, nu):
    """Full-plane box mask: bin radius max(|ky|, |kx|) <= nu, empty at nu=0."""
    ky = np.abs(np.fft.fftfreq(h) * h) / ((h + 1) // 2)
    kx = np.abs(np.fft.fftfreq(w) * w) / ((w + 1) // 2)
    if nu == 0.0:
        return np.zeros((h, w), dtype=bool)
    return np.maximum(ky[:, None], kx[None, :]) <= nu


def oracle_filter(x, pass_map):
    spectrum = np.fft.fft2(x, axes=(-2, -1)) * pass_map
    out = np.fft.ifft2(spectrum, axes=(-2, -1))
    assert np.linalg.norm(out.imag.ravel()) <= 1e-9 * max(np.linalg.norm(x.ravel()), 1.0)
    return out.real


def oracle_low(x, nu):
    return oracle_filter(x, oracle_pass_map(*x.shape[-2:], nu))


def oracle_high(x, nu):
    return oracle_filter(x, ~oracle_pass_map(*x.shape[-2:], nu))


def oracle_update(x_ref, eps, t0, nu, d, s):
    """One calibration step with four filters: objective and new noise."""
    x_t0 = forward_noise(x_ref, t0, eps, s)
    eps_pred = d.predict_eps(x_t0, t0, s)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
    objective = np.linalg.norm((oracle_low(x_ref, nu) - oracle_low(x0_hat, nu)).ravel())
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    return objective, eps_pred + coef * (oracle_high(x0_hat, nu) - oracle_high(x_ref, nu))


def complement_high(x, nu):
    """The complement-mask high band on the real FFT's half-plane."""
    h, w = x.shape[-2:]
    spectrum = np.fft.rfft2(x)
    spectrum *= ~frequency_mask(h, w, nu)[:, : w // 2 + 1]
    return np.fft.irfft2(spectrum, s=(h, w))


def two_filter_update(x_ref, eps, t0, nu, d, s):
    """One calibration step with two filters of the gap: objective and new noise."""
    x_t0 = forward_noise(x_ref, t0, eps, s)
    eps_pred = d.predict_eps(x_t0, t0, s)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    objective = content_objective(x_ref, x0_hat, nu)
    return objective, eps_pred + coef * complement_high(x0_hat - x_ref, nu)


def pair(h, w, seed):
    rng = RngSeed(seed)
    return (gaussian_noise((2, 2, h, w), rng.substream(0)),
            gaussian_noise((2, 2, h, w), rng.substream(1)))


@pytest.mark.parametrize("h,w", SHAPES)
def test_mask_matches_oracle(h, w):
    for nu in NUS:
        np.testing.assert_array_equal(frequency_mask(h, w, nu), oracle_pass_map(h, w, nu))


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_filters_and_band_distances_match_oracle(h, w, nu):
    a, b = pair(h, w, 1000 * h + w)
    np.testing.assert_allclose(low_pass(a, nu), oracle_low(a, nu), rtol=0, atol=1e-12)
    np.testing.assert_allclose(high_pass(a, nu), oracle_high(a, nu), rtol=0, atol=1e-12)
    gap = oracle_low(a, nu) - oracle_low(b, nu)
    assert content_objective(a, b, nu) == pytest.approx(l2_norm(gap), rel=1e-12, abs=1e-12)
    assert mse_low(a, b, nu) == pytest.approx(float(np.mean(gap * gap)), rel=1e-12, abs=1e-12)
    shifted = replace_low_freq(a, a, b, 600, nu, SCHED)
    np.testing.assert_allclose(shifted, a + SCHED.signal_scale(600) * gap, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_calibration_step_matches_four_filter_oracle(h, w, nu):
    x_ref, eps0 = pair(h, w, 2000 * h + w)
    rng = RngSeed(7)
    d = GmmDenoiser([(0.5, gaussian_noise(x_ref.shape, rng.substream(k)), 0.3) for k in (0, 1)])
    cfg = CalibrationConfig(t0=600, n_iters=1, nu=nu, rng=RngSeed(0))
    eps, trace = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
    objective, eps_oracle = oracle_update(x_ref, eps0, 600, nu, d, SCHED)
    assert trace.objectives[0] == pytest.approx(objective, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(eps, eps_oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_calibration_step_matches_two_filter_oracle(h, w, nu):
    x_ref, eps0 = pair(h, w, 2500 * h + w)
    rng = RngSeed(8)
    d = GmmDenoiser([(0.5, gaussian_noise(x_ref.shape, rng.substream(k)), 0.3) for k in (0, 1)])
    cfg = CalibrationConfig(t0=600, n_iters=1, nu=nu, rng=RngSeed(0))
    eps, trace = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
    objective, eps_oracle = two_filter_update(x_ref, eps0, 600, nu, d, SCHED)
    assert trace.objectives[0] == objective  # the same low_pass of the same gap
    np.testing.assert_allclose(eps, eps_oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES)
def test_low_pass_full_band_is_a_read_only_copy(h, w):
    a, _ = pair(h, w, 3500 * h + w)
    out = low_pass(a, 1.0)
    assert out.tobytes() == a.tobytes()
    with pytest.raises(ValueError):
        out[0, 0, 0, 0] = 0.0


@pytest.mark.parametrize("h,w", SHAPES)
def test_high_pass_full_band_is_exactly_zero(h, w):
    a, _ = pair(h, w, 3000 * h + w)
    assert not high_pass(a, 1.0).any()


def test_cached_mask_is_read_only():
    m = frequency_mask(8, 8, 0.5)
    with pytest.raises(ValueError):
        m[0, 0] = False
    assert frequency_mask(8, 8, 0.5)[0, 0]


def ddpm_step(x_t, t, d, s, rng):
    """Ancestral reverse step t -> t-1 with the posterior variance."""
    s._check_t(t)
    alpha = float(s.alpha_bar[t] / s.alpha_bar[t - 1])
    abar_t = float(s.alpha_bar[t])
    abar_prev = float(s.alpha_bar[t - 1])
    eps = d.predict_eps(x_t, t, s)
    mean = (x_t - ((1.0 - alpha) / np.sqrt(1.0 - abar_t)) * eps) / np.sqrt(alpha)
    if t == 1:
        return _freeze(mean)
    var = ((1.0 - abar_prev) / (1.0 - abar_t)) * (1.0 - alpha)
    z = rng.generator().standard_normal(size=x_t.shape, dtype=np.float64)
    return _freeze(mean + np.sqrt(var) * z)


def ddpm_chain(x_start, d, s, rng):
    """Full ancestral chain from t=T down to t=0."""
    x = x_start
    for t in range(s.num_steps, 0, -1):
        x = ddpm_step(x, t, d, s, rng.substream(t))
    return x


@pytest.mark.parametrize("case", range(20))
def test_full_grid_denoise_matches_ancestral_chain(case):
    rng = RngSeed(4000 + case)
    gen = rng.generator()
    big_t = int(gen.integers(1, 65))
    s = linear_beta_schedule(big_t, 1e-4 * (1 + case), 0.02 + 0.01 * (case % 4))
    shape = (int(gen.integers(1, 3)), int(gen.integers(1, 4)), 5 + case % 3, 4 + case % 4)
    d = GmmDenoiser(
        [
            (float(gen.uniform(0.2, 1.0)), 0.5 * gaussian_noise(shape, rng.substream(k)),
             float(gen.uniform(0.0, 0.3)))
            for k in range(int(gen.integers(1, 4)))
        ]
    )
    x_start = gaussian_noise(shape, rng.substream(9))
    chain_rng = rng.substream(10)
    expected = ddpm_chain(x_start, d, s, chain_rng)
    cfg = SamplerConfig(eta=1.0, num_steps=big_t, rng=chain_rng)
    got, _ = denoise_from(x_start, ddim_grid(s, big_t, big_t), d, s, cfg)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def tiled_mixture(d, n_frames):
    """The static-video prior built by repeating each one-frame mean n_frames times."""
    return GmmDenoiser(
        [
            (w, np.repeat(m, n_frames, axis=0), v)
            for w, m, v in zip(d.weights, d.means, d.variances)
        ]
    )


@pytest.mark.parametrize("frames", [1, 2, 5])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("t", [1, 500, 1000])
def test_one_frame_mixture_matches_tiled_oracle(frames, channels, t):
    rng = RngSeed(5000 + 10 * frames + channels)
    gen = rng.generator()
    means = [0.5 * gaussian_noise((1, channels, 6, 7), rng.substream(k)) for k in range(3)]
    d = GmmDenoiser(
        [(float(gen.uniform(0.2, 1.0)), m, v) for m, v in zip(means, [0.0, 0.05, 0.3])]
    )
    tiled = tiled_mixture(d, frames)
    x_t = gaussian_noise((frames, channels, 6, 7), rng.substream(9))
    for method in ("posterior_mean", "predict_eps"):
        got = getattr(d, method)(x_t, t, SCHED)
        want = getattr(tiled, method)(x_t, t, SCHED)
        assert got.shape == x_t.shape
        assert got.tobytes() == want.tobytes(), method


def broadcast_posterior_mean(d, x_t, t, schedule, dtype=np.float64):
    """E[x0 | x_t] from two (n, F, C, H, W) temporaries: the residual from
    every scaled mean, then every component's shrunk mean.  In np.longdouble
    it is the extended-precision reference."""
    abar = dtype(schedule.alpha_bar[t])
    root = np.sqrt(abar)
    means, variances = d.means.astype(dtype), d.variances.astype(dtype)
    s = abar * variances + (1 - abar)
    resid = x_t.astype(dtype)[None, ...] - root * means
    sq = np.sum(resid * resid, axis=(1, 2, 3, 4))
    log_r = np.log(d.weights.astype(dtype)) - sq / (2 * s) - dtype(0.5) * x_t.size * np.log(s)
    log_r -= log_r.max()
    r = np.exp(log_r)
    r /= r.sum()
    gain = root * variances / s
    comp_means = gain[:, None, None, None, None] * resid
    comp_means += means
    return np.tensordot(r, comp_means, axes=1)


def noised_mixture(rng, n, mean_shape, variances, offset, t, schedule, frames):
    """A mixture whose means share `offset`, and x_t drawn from component 0's marginal."""
    gen = rng.generator()
    means = [offset + 0.5 * gaussian_noise(mean_shape, rng.substream(k)) for k in range(n)]
    d = GmmDenoiser([(float(gen.uniform(0.2, 1.0)), m, v) for m, v in zip(means, variances)])
    abar = schedule.alpha_bar[t]
    shape = (frames,) + mean_shape[1:]
    x0 = d.means[0] + np.sqrt(d.variances[0]) * gaussian_noise(shape, rng.substream(n))
    return d, np.sqrt(abar) * x0 + np.sqrt(1 - abar) * gaussian_noise(shape, rng.substream(n + 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    one_frame=st.booleans(),
    zero_variance=st.booleans(),
    t=st.sampled_from([1, 1000]),
    toy=st.booleans(),
    offset=st.sampled_from([0.0, 1e3, -1e3]) | st.floats(-1e3, 1e3),
)
def test_posterior_mean_matches_broadcast_oracle(seed, one_frame, zero_variance, t, toy, offset):
    rng = RngSeed(seed)
    gen = rng.generator()
    n, frames, channels = (int(v) for v in gen.integers(1, [7, 4, 4]))
    variances = [0.0] * n if zero_variance else gen.choice([0.0, 0.05, 0.3, 1.0], size=n).tolist()
    schedule = toy_schedule() if toy else SCHED
    mean_shape = (1 if one_frame else frames, channels, 5, 6)
    d, x_t = noised_mixture(rng, n, mean_shape, variances, offset, t, schedule, frames)
    want = broadcast_posterior_mean(d, x_t, t, schedule)
    np.testing.assert_allclose(d.posterior_mean(x_t, t, schedule), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("schedule", [toy_schedule(), SCHED], ids=["toy", "ddpm"])
@pytest.mark.parametrize("t", [1, 300, 600, 999, 1000])
def test_posterior_mean_matches_longdouble_reference(schedule, t):
    """Within 1e-12 abs of the exact posterior on 8x1x32x32 with 16 components.
    The worst case, at t=999 on the DDPM schedule, measured 3.4e-13 (the
    broadcast form in float64: 4.0e-13); on the toy schedule, under 1e-15."""
    d, x_t = noised_mixture(RngSeed(11), 16, (8, 1, 32, 32), [0.3, 0.0] * 8, 0.0, t, schedule, 8)
    want = broadcast_posterior_mean(d, x_t, t, schedule, dtype=np.longdouble)
    err = np.abs(d.posterior_mean(x_t, t, schedule) - want).max()
    assert err <= 1e-12


# ---------------------------------------------------------------- stacked runs


def per_row_posterior_mean(d, stack, t, schedule):
    """The posterior of a (B, F, C, H, W) stack as B separate calls."""
    return np.stack([d.posterior_mean(row, t, schedule) for row in stack])


def per_run_nc_sdedit(x_ref, cal, samp, d, s):
    """The pipeline for one run on its own: (output, objectives)."""
    grid = ddim_grid(s, samp.num_steps, cal.t0)
    t0 = grid[0]
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    eps = gaussian_noise(x_ref.shape, cal.rng)
    objectives = []
    for _ in range(cal.n_iters):
        x_t0 = forward_noise(x_ref, t0, eps, s)
        eps_pred = d.predict_eps(x_t0, t0, s)
        gap = estimate_x0(x_t0, t0, eps_pred, s) - x_ref
        low = low_pass(gap, cal.nu)
        objectives.append(l2_norm(low))
        eps = _freeze(eps_pred + coef * (gap - low))
    x, first_x0_hat = forward_noise(x_ref, t0, eps, s), None
    for t, t_prev in zip(grid, grid[1:] + [0]):
        x, x0_hat = ddim_step(x, t, t_prev, d, s, samp, samp.rng.substream(t))
        first_x0_hat = x0_hat if first_x0_hat is None else first_x0_hat
    objectives.append(content_objective(x_ref, first_x0_hat, cal.nu))
    return x, objectives


def stacked_case(seed, batch, one_frame, zero_variance, shape=(3, 2, 6, 7), n=4):
    rng = RngSeed(seed)
    gen = rng.generator()
    variances = [0.0] * n if zero_variance else [0.0, 0.05, 0.3, 1.0][:n]
    mean_shape = (1,) + shape[1:] if one_frame else shape
    d = GmmDenoiser(
        [(float(gen.uniform(0.2, 1.0)), 0.5 * gaussian_noise(mean_shape, rng.substream(k)), v)
         for k, v in enumerate(variances)]
    )
    rows = [RngSeed(seed, 100 + b) for b in range(batch)]
    return d, gaussian_noise((batch,) + shape, rows)


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("one_frame", [True, False], ids=["one-frame", "per-frame"])
@pytest.mark.parametrize("zero_variance", [True, False], ids=["zero-var", "nonzero-var"])
@pytest.mark.parametrize("t", [1, 600, 1000])
def test_stacked_posterior_mean_equals_per_row_calls(batch, one_frame, zero_variance, t):
    d, stack = stacked_case(6000 + batch, batch, one_frame, zero_variance)
    got = d.posterior_mean(stack, t, SCHED)
    assert got.shape == stack.shape
    assert got.tobytes() == per_row_posterior_mean(d, stack, t, SCHED).tobytes()
    eps = np.stack([d.predict_eps(row, t, SCHED) for row in stack])
    assert d.predict_eps(stack, t, SCHED).tobytes() == eps.tobytes()


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from noisecal import GmmDenoiser, RngSeed, gaussian_noise, linear_beta_schedule
from test_oracles import per_row_posterior_mean, stacked_case
s = linear_beta_schedule(1000, 1e-4, 0.02)
for batch in (1, 2, 5):
    for one_frame in (True, False):
        d, stack = stacked_case(6100 + batch, batch, one_frame, False, (2, 1, 32, 32), 16)
        got = d.posterior_mean(stack, 600, s).tobytes()
        assert got == per_row_posterior_mean(d, stack, 600, s).tobytes(), (batch, one_frame)
        print(hashlib.sha256(got).hexdigest())
"""


def test_stacked_posterior_mean_bytes_do_not_depend_on_blas_threads():
    """16 components of 32x32 frames are enough for OpenBLAS to split each
    matrix-vector product over threads."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(ROOT / "src"), str(ROOT / "tests")],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 6
    assert digests[0] == digests[1]


def test_stacked_nc_sdedit_rows_equal_per_run_oracle(sched):
    rng = RngSeed(6200)
    d = GmmDenoiser([(0.5, gaussian_noise((2, 1, 6, 6), rng.substream(k)), 0.3) for k in (0, 1)])
    x_ref = gaussian_noise((2, 1, 6, 6), rng.substream(2))
    nus = [0.5, 1.0, 0.0, 0.5]
    cals = [CalibrationConfig(t0=600, n_iters=3, nu=nu, rng=rng.substream(10, b))
            for b, nu in enumerate(nus)]
    samps = [SamplerConfig(eta=1.0, num_steps=6, rng=rng.substream(20, b)) for b in range(4)]
    x0, traces = nc_sdedit(x_ref, cals, samps, d, sched)
    grid = ddim_grid(sched, 6, 600)
    assert x0.shape == (len(nus),) + x_ref.shape
    for row, trace, cal, samp in zip(x0, traces, cals, samps):
        want, objectives = per_run_nc_sdedit(x_ref, cal, samp, d, sched)
        assert row.tobytes() == want.tobytes()
        assert trace.objectives == objectives
        assert (trace.calibration_calls, trace.sampling_calls) == (3, len(grid))
        one, one_trace = nc_sdedit(x_ref, cal, samp, d, sched)  # the stack of one
        assert one.tobytes() == want.tobytes()
        assert one_trace.objectives == objectives


def write_sweep_workspace(root: Path) -> Path:
    """A 3-frame input, a 4-component mixture and a T=50 config under root."""
    rng = RngSeed(6300)
    raw = gaussian_noise((3, 1, 12, 12), rng.substream(0)) * 0.2 + 0.5
    write_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0, root / "input")
    raw = gaussian_noise((4, 1, 12, 12), rng.substream(1)) * 0.2 + 0.5
    write_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0, root / "data")
    cfg = {
        "schedule": {"T": 50, "beta_start": 0.001, "beta_end": 0.02},
        "sampler": {"num_steps": 5, "eta": 1.0, "seed": 7},
        "calibration": {"N": 2},
        "denoiser": {"kind": "dataset", "spec": "data"},
        "io": {"input": "input"},
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    return root / "cfg.json"


def sweep_rows(capsys, cfg, t0_list, nu_list, seeds):
    argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", nu_list]
    assert main(argv + ["--seeds", str(seeds)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    return {tuple(ln.split(",")[:3]): ln for ln in lines if ",mean," not in ln}


def test_sweep_row_equals_standalone_run(tmp_path, capsys):
    cfg_path = write_sweep_workspace(tmp_path)
    rows = sweep_rows(capsys, cfg_path, "20,40", "0.5,1.0", 4)
    cfg = load_config(cfg_path)
    x_ref = read_video(cfg.input_dir)
    d = GmmDenoiser.from_dataset(cfg.denoiser_spec)
    s = build_schedule(cfg)
    for t0, nu, k in [(20, 0.5, 0), (40, 1.0, 3), (40, 0.5, 2)]:
        rng = RngSeed(cfg.seed).substream(_STREAM_SWEEP, t0, _float_bits(nu), k)
        cal, samp = _run_configs(cfg, rng, t0, nu)
        x0, objectives = per_run_nc_sdedit(x_ref, cal, samp, d, s)
        r = metric_report(x0, x_ref)
        values = [r.mse_low, r.mse, r.ssim, r.d_sf] + objectives
        want = ",".join([str(t0), repr(nu), str(k)] + [repr(v) for v in values])
        assert rows[(str(t0), repr(nu), str(k))] == want


def test_sweep_rows_do_not_depend_on_batch_composition(tmp_path, capsys):
    cfg = write_sweep_workspace(tmp_path)
    full = sweep_rows(capsys, cfg, "20,40", "0.5,1.0", 4)
    for nu_list, seeds in (("0.5,1.0", 1), ("0.5", 4), ("1.0", 2), ("0.5", 1)):
        part = sweep_rows(capsys, cfg, "20,40", nu_list, seeds)
        assert len(part) == 2 * len(nu_list.split(",")) * seeds
        assert all(full[key] == line for key, line in part.items())


def test_read_video_order_moves_metrics_only_in_the_last_digits(tmp_path):
    """read_video returns C order; before, RGB came channels-last.  Every
    metric_report field agrees across the two orders within 1e-12 absolute
    (measured: under 1e-15 on 6x3x64x64 frames)."""
    for seed, shape in ((6400, (4, 3, 32, 32)), (6401, (2, 3, 17, 23))):
        pair_ = [np.floor(np.clip(gaussian_noise(shape, RngSeed(seed, k)) * 0.2 + 0.5, 0, 1)
                          * 255) / 255.0 for k in (0, 1)]
        for k, x in enumerate(pair_):
            write_video(x, tmp_path / f"{seed}-{k}")
        a, b = (read_video(tmp_path / f"{seed}-{k}") for k in (0, 1))
        last = [np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2) for x in (a, b)]
        got, old = metric_report(a, b), metric_report(*last)
        for key, value in json.loads(got.to_json()).items():
            assert value == pytest.approx(getattr(old, key), rel=0, abs=1e-12), key
