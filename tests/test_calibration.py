"""Noise calibration loop, its affine twin (kept in test_oracles), and the full pipeline."""

import numpy as np
import pytest

import noisecal.calibration
from doubles import CountingDenoiser
from memory import traced_peak
from noisecal import (
    CalibrationConfig,
    GmmDenoiser,
    NoiseSchedule,
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
    nc_sdedit,
)
from test_oracles import replace_low_freq


def one_pixel(v):
    return as_video(np.array([[[[v]]]]))


@pytest.fixture(scope="module")
def toy_gmm():
    rng = RngSeed(60)
    return GmmDenoiser(
        [
            (0.5, gaussian_noise((1, 1, 4, 4), rng.substream(0)), 0.1),
            (0.5, gaussian_noise((1, 1, 4, 4), rng.substream(1)), 0.1),
        ]
    )


def cal_cfg(t0=8, n_iters=2, nu=0.5, seed=0):
    return CalibrationConfig(t0=t0, n_iters=n_iters, nu=nu, rng=RngSeed(seed))


def test_config_validation(tiny_sched, toy_gmm):
    # t0 is checked against the schedule, where one is at hand
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(63))
    with pytest.raises(ValueError, match="timestep 0 outside"):
        calibrate_noise(x_ref, x_ref, cal_cfg(t0=0), toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="t0=0 is outside"):
        nc_sdedit(x_ref, cal_cfg(t0=0), sampler_cfg(), toy_gmm, tiny_sched)
    with pytest.raises(ValueError):
        CalibrationConfig(t0=5, n_iters=-1, nu=0.5, rng=RngSeed(0))
    with pytest.raises(ValueError):
        CalibrationConfig(t0=5, n_iters=1, nu=1.5, rng=RngSeed(0))


# ---------------------------------------------------------------- calibrate


def test_zero_iterations_passes_noise_through(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(61))
    eps0 = gaussian_noise((1, 1, 4, 4), RngSeed(62))
    eps, trace = calibrate_noise(x_ref, eps0, cal_cfg(n_iters=0), toy_gmm, tiny_sched)
    assert eps is eps0
    assert trace.objectives == []
    assert trace.calibration_calls == 0


def test_full_band_update_is_pure_prediction(tiny_sched, toy_gmm):
    # nu=1 empties the high band, so the update keeps only the model's eps
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(63))
    eps0 = gaussian_noise((1, 1, 4, 4), RngSeed(64))
    cfg = cal_cfg(n_iters=1, nu=1.0)
    eps, _ = calibrate_noise(x_ref, eps0, cfg, toy_gmm, tiny_sched)
    x_t0 = forward_noise(x_ref, cfg.t0, eps0, tiny_sched)
    expected = toy_gmm.predict_eps(x_t0, cfg.t0, tiny_sched)
    np.testing.assert_array_equal(eps, expected)


def test_single_pixel_worked_update():
    s = NoiseSchedule(alpha_bar=np.array([1.0, 0.25]))
    d = GmmDenoiser([(1.0, one_pixel(0.0), 1.0)])
    cfg = CalibrationConfig(t0=1, n_iters=1, nu=1.0, rng=RngSeed(0))
    eps, trace = calibrate_noise(one_pixel(1.0), one_pixel(2.0), cfg, d, s)
    assert eps.ravel()[0] == pytest.approx(1.9330127, abs=1e-7)
    # baseline objective: |x_ref - x0_hat| with x0_hat = (x_t0 - sqrt(.75)*eps_pred)/0.5
    assert trace.objectives[0] == pytest.approx(0.1160254, abs=1e-7)


def test_trace_shape_and_call_accounting(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(65))
    eps0 = gaussian_noise((1, 1, 4, 4), RngSeed(66))
    for n in (0, 1, 3):
        counter = CountingDenoiser(toy_gmm)
        _, trace = calibrate_noise(x_ref, eps0, cal_cfg(n_iters=n), counter, tiny_sched)
        assert counter.calls == n
        assert trace.calibration_calls == n
        assert len(trace.objectives) == n


def test_calibration_rejects_shape_mismatch(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(67))
    eps0 = gaussian_noise((1, 1, 4, 5), RngSeed(68))
    with pytest.raises(ValueError):
        calibrate_noise(x_ref, eps0, cal_cfg(), toy_gmm, tiny_sched)


@pytest.mark.parametrize("nu,ffts", [(0.5, 1), (1.0, 0)])
def test_one_low_pass_per_iteration(tiny_sched, toy_gmm, monkeypatch, nu, ffts):
    # the objective and the update share one filter of the gap; nu=1 needs no FFT
    calls = {"low_pass": 0, "rfft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(noisecal.calibration, "low_pass", counted("low_pass", low_pass))
    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(84))
    eps0 = gaussian_noise((1, 1, 4, 4), RngSeed(85))
    for n in (0, 1, 3):
        calls.update(low_pass=0, rfft=0)
        calibrate_noise(x_ref, eps0, cal_cfg(n_iters=n, nu=nu), toy_gmm, tiny_sched)
        assert calls == {"low_pass": n, "rfft": ffts * n}


def test_stack_filters_each_row_at_its_own_nu(tiny_sched, toy_gmm, monkeypatch):
    # a nu=1 row of a stack stays the FFT-free copy; each row equals its run
    ffts = []
    real = np.fft.rfft

    def counted(*args, **kwargs):
        ffts.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(87))
    eps0 = gaussian_noise((3, 1, 1, 4, 4), [RngSeed(88, b) for b in range(3)])
    cals = [cal_cfg(n_iters=2, nu=nu) for nu in (1.0, 0.5, 1.0)]
    eps, traces = calibrate_noise(x_ref, eps0, cals, toy_gmm, tiny_sched)
    assert len(ffts) == 2  # the nu=0.5 row, once per iteration
    for row, trace, cal, row0 in zip(eps, traces, cals, eps0):
        want, want_trace = calibrate_noise(x_ref, row0, cal, toy_gmm, tiny_sched)
        assert row.tobytes() == want.tobytes()
        assert trace.objectives == want_trace.objectives


def test_stack_makes_one_fft_per_iteration_for_each_nu_below_1(tiny_sched, toy_gmm, monkeypatch):
    # the three nu=0.5 rows, adjacent or not, share one filter call per iteration
    ffts = []
    real = np.fft.rfft

    def counted(x, *args, **kwargs):
        ffts.append(x.shape[0])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(89))
    eps0 = gaussian_noise((4, 1, 1, 4, 4), [RngSeed(90, b) for b in range(4)])
    cals = [cal_cfg(n_iters=3, nu=nu) for nu in (0.5, 1.0, 0.5, 0.5)]
    eps, traces = calibrate_noise(x_ref, eps0, cals, toy_gmm, tiny_sched)
    assert ffts == [3, 3, 3]  # one forward FFT of the three nu=0.5 rows per iteration
    for row, trace, cal, row0 in zip(eps, traces, cals, eps0):
        want, want_trace = calibrate_noise(x_ref, row0, cal, toy_gmm, tiny_sched)
        assert row.tobytes() == want.tobytes()
        assert trace.objectives == want_trace.objectives


@pytest.mark.parametrize("v", [0.03, 0.3, 3.0])
@pytest.mark.parametrize("t0", [300, 600, 900])
@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_one_gaussian_contraction_law(v, t0, nu):
    """For one component N(m, v I), Tweedie's formula makes the clean estimate
    affine in x_t0 with gain sqrt(abar) * v / (abar * v + 1 - abar).  An update
    moves the low band of x_t0 by -sqrt(abar) * f_l(gap), so every update scales
    the objective by exactly (1 - abar) / (abar * v + 1 - abar)."""
    s = linear_beta_schedule(1000, 1e-4, 0.02)
    rng = RngSeed(86)
    shape = (2, 1, 8, 8)
    d = GmmDenoiser([(1.0, gaussian_noise(shape, rng.substream(0)), v)])
    x_ref = gaussian_noise(shape, rng.substream(1))
    eps0 = gaussian_noise(shape, rng.substream(2))
    _, trace = calibrate_noise(x_ref, eps0, cal_cfg(t0=t0, n_iters=3, nu=nu), d, s)
    abar = float(s.alpha_bar[t0])
    law = (1.0 - abar) / (abar * v + 1.0 - abar)
    obj = np.array(trace.objectives)
    assert len(obj) == 3
    np.testing.assert_allclose(obj[1:] / obj[:-1], law, rtol=1e-9, atol=0)


# ---------------------------------------------------------------- replace


def test_replace_noop_when_estimate_matches_reference(tiny_sched):
    x_t0 = gaussian_noise((1, 1, 4, 4), RngSeed(69))
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(70))
    out = replace_low_freq(x_t0, x_ref, x_ref, 8, 0.5, tiny_sched)
    np.testing.assert_allclose(out, x_t0, atol=1e-12)


def test_replace_noop_at_nu0(tiny_sched):
    x_t0 = gaussian_noise((1, 1, 4, 4), RngSeed(71))
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(72))
    x0_hat = gaussian_noise((1, 1, 4, 4), RngSeed(73))
    out = replace_low_freq(x_t0, x_ref, x0_hat, 8, 0.0, tiny_sched)
    np.testing.assert_allclose(out, x_t0, atol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_update_equivalence(tiny_sched, toy_gmm, nu):
    """Recomposing x_t0 from the calibrated noise equals the direct
    low-band replacement on the previous iterate."""
    rng = RngSeed(74)
    x_ref = gaussian_noise((1, 1, 4, 4), rng.substream(0))
    eps0 = gaussian_noise((1, 1, 4, 4), rng.substream(1))
    t0 = 8
    x_t0 = forward_noise(x_ref, t0, eps0, tiny_sched)
    eps_pred = toy_gmm.predict_eps(x_t0, t0, tiny_sched)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, tiny_sched)
    eps_new, _ = calibrate_noise(
        x_ref, eps0, cal_cfg(t0=t0, n_iters=1, nu=nu), toy_gmm, tiny_sched
    )
    lhs = forward_noise(x_ref, t0, eps_new, tiny_sched)
    rhs = replace_low_freq(x_t0, x_ref, x0_hat, t0, nu, tiny_sched)
    assert l2_norm(lhs - rhs) <= 1e-9 * l2_norm(rhs)


def test_nu0_leaves_noised_reference_unchanged(tiny_sched, toy_gmm):
    # at nu=0 the update is exactly eps in real arithmetic: neither the noise
    # nor the recomposed x_t0 moves beyond roundoff
    rng = RngSeed(75)
    x_ref = gaussian_noise((1, 1, 4, 4), rng.substream(0))
    eps0 = gaussian_noise((1, 1, 4, 4), rng.substream(1))
    t0 = 8
    eps, _ = calibrate_noise(
        x_ref, eps0, cal_cfg(t0=t0, n_iters=3, nu=0.0), toy_gmm, tiny_sched
    )
    before = forward_noise(x_ref, t0, eps0, tiny_sched)
    after = forward_noise(x_ref, t0, eps, tiny_sched)
    assert l2_norm(after - before) <= 1e-9 * l2_norm(before)
    assert l2_norm(eps - eps0) <= 1e-12 * l2_norm(eps0)


# ---------------------------------------------------------------- pipeline


def sampler_cfg(seed=1, eta=1.0):
    return SamplerConfig(eta=eta, num_steps=5, rng=RngSeed(seed))


def test_pipeline_call_totals_and_trace_length(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(77))
    grid = ddim_grid(tiny_sched, 5, 8)
    for n in (0, 1, 2, 3):
        counter = CountingDenoiser(toy_gmm)
        _, trace = nc_sdedit(
            x_ref, cal_cfg(n_iters=n), sampler_cfg(), counter, tiny_sched
        )
        assert counter.calls == n + len(grid)
        assert trace.total_calls == n + len(grid)
        assert trace.calibration_calls == n
        assert trace.sampling_calls == len(grid)
        assert len(trace.objectives) == n + 1


def test_stack_runs_must_share_level_budget_and_eta(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(89))
    two = gaussian_noise((2, 1, 1, 4, 4), [RngSeed(90), RngSeed(91)])
    with pytest.raises(ValueError, match="share n_iters"):
        calibrate_noise(x_ref, two, [cal_cfg(n_iters=1), cal_cfg()], toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="per-run values"):
        calibrate_noise(x_ref, two, [cal_cfg()], toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="shape mismatch"):
        calibrate_noise(x_ref[:, :, :3], two, [cal_cfg()] * 2, toy_gmm, tiny_sched)
    cals = [cal_cfg(), cal_cfg(seed=1)]
    with pytest.raises(ValueError, match="share eta"):
        nc_sdedit(x_ref, cals, [sampler_cfg(), sampler_cfg(eta=0.0)], toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="sampler configs"):
        nc_sdedit(x_ref, cals, [sampler_cfg()], toy_gmm, tiny_sched)
    # one argument a stack and the other a run: the same ValueError
    with pytest.raises(ValueError, match="sampler configs"):
        nc_sdedit(x_ref, cals, sampler_cfg(), toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="sampler configs"):
        nc_sdedit(x_ref, [cal_cfg()], sampler_cfg(), toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="sampler configs"):
        nc_sdedit(x_ref, cal_cfg(), [sampler_cfg()] * 2, toy_gmm, tiny_sched)
    with pytest.raises(ValueError, match="at least one run"):
        nc_sdedit(x_ref, [], [], toy_gmm, tiny_sched)


def test_pipeline_n0_equals_plain_sdedit(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(78))
    cal = cal_cfg(n_iters=0, seed=5)
    samp = sampler_cfg(seed=6)
    out, _ = nc_sdedit(x_ref, cal, samp, toy_gmm, tiny_sched)

    eps0 = gaussian_noise(x_ref.shape, cal.rng)
    x_t0 = forward_noise(x_ref, cal.t0, eps0, tiny_sched)
    grid = ddim_grid(tiny_sched, samp.num_steps, cal.t0)
    baseline = denoise_from(x_t0, grid, toy_gmm, tiny_sched, samp)
    assert out.tobytes() == baseline.tobytes()


def test_pipeline_deterministic(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(79))
    a, ta = nc_sdedit(x_ref, cal_cfg(n_iters=2, seed=9), sampler_cfg(seed=10), toy_gmm, tiny_sched)
    b, tb = nc_sdedit(x_ref, cal_cfg(n_iters=2, seed=9), sampler_cfg(seed=10), toy_gmm, tiny_sched)
    assert a.tobytes() == b.tobytes()
    assert ta.objectives == tb.objectives


def test_trace_csv_layout(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(81))
    _, trace = nc_sdedit(x_ref, cal_cfg(n_iters=2), sampler_cfg(), toy_gmm, tiny_sched)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "iteration,objective"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 3
    for k, ln in enumerate(data):
        it, obj = ln.split(",")
        assert int(it) == k
        assert float(obj) == trace.objectives[k]  # repr() round-trips
    assert footers[0] == f"# calibration_calls={trace.calibration_calls}"
    assert footers[1] == f"# sampling_calls={trace.sampling_calls}"
    assert footers[2] == f"# total_calls={trace.total_calls}"


def test_pipeline_starts_at_first_grid_step(sched):
    # a 4-step grid is [1000, 750, 500, 250]: t0=600 starts where t0=500 does
    rng = RngSeed(82)
    d = GmmDenoiser([(0.5, gaussian_noise((1, 1, 4, 4), rng.substream(k)), 0.3) for k in (0, 1)])
    x_ref = gaussian_noise((1, 1, 4, 4), rng.substream(2))
    samp = SamplerConfig(eta=1.0, num_steps=4, rng=RngSeed(83))
    off, t_off = nc_sdedit(x_ref, cal_cfg(t0=600, n_iters=2), samp, d, sched)
    on, t_on = nc_sdedit(x_ref, cal_cfg(t0=500, n_iters=2), samp, d, sched)
    assert off.tobytes() == on.tobytes()
    assert t_off.objectives == t_on.objectives


def pipeline_peak(sched, n_iters, num_steps, t0s=(600,)):
    """tracemalloc peak of nc_sdedit on an 8x3x32x32 reference, over the bytes
    of its stack of len(t0s) runs (a run when t0s has one start)."""
    rng = RngSeed(31)
    d = GmmDenoiser([(1.0, gaussian_noise((1, 3, 32, 32), rng.substream(k)), 0.3) for k in (0, 1)])
    x_ref = gaussian_noise((8, 3, 32, 32), rng.substream(9))
    cal = [CalibrationConfig(t0=t0, n_iters=n_iters, nu=0.5, rng=rng.substream(10, b))
           for b, t0 in enumerate(t0s)]
    samp = [SamplerConfig(eta=1.0, num_steps=num_steps, rng=rng.substream(11, b))
            for b in range(len(t0s))]
    if len(t0s) == 1:
        cal, samp = cal[0], samp[0]
    peak, _ = traced_peak(nc_sdedit, x_ref, cal, samp, d, sched)
    return peak / (len(t0s) * x_ref.nbytes)


def test_pipeline_holds_no_dead_video_sized_arrays(sched):
    """Each buffer goes after its last read, and each stage builds its result
    in a buffer it owns: the noise goes once the rows are noised, each step's
    input after its clean estimate, each start's first estimate once its last
    objective is read, and the band split runs a chunk of planes at a time.
    A run with one update and a 2-step pass reads 3.58x the input's bytes
    (5.03x when a step kept its input and the pass its first estimate, 7.16x
    when buffers outlived their last read)."""
    assert ddim_grid(sched, 4, 600) == [500, 250]
    assert pipeline_peak(sched, n_iters=1, num_steps=4) < 4.0


@pytest.mark.parametrize(
    "n_iters,num_steps,t0s",
    [
        (3, 4, (600,)),  # reads 3.58x; was 5.22x, and 9.16x before that
        (3, 10, (600,)),  # 3.58x; was 6.03x, and 10.04x
        (3, 10, (900, 600, 300, 600)),  # 3.56x the stack's bytes; was 7.01x, and 9.14x
    ],
    ids=["N3", "N3-10-steps", "mixed-start-stack"],
)
def test_pipeline_peak_holds_with_more_updates_steps_and_starts(sched, n_iters, num_steps, t0s):
    # more updates, more steps and more starts add no buffer
    if len(t0s) > 1:
        assert len({ddim_grid(sched, num_steps, t0)[0] for t0 in t0s}) == 3  # three starts
    assert pipeline_peak(sched, n_iters, num_steps, t0s) < 4.0
