"""Noise calibration loop, its affine twin, and the full pipeline."""

import numpy as np
import pytest

from noisecal import (
    CalibrationConfig,
    CountingDenoiser,
    GmmDenoiser,
    NoiseSchedule,
    RngSeed,
    SamplerConfig,
    as_video,
    calibrate_noise,
    ddim_grid,
    denoise_from,
    estimate_x0,
    gaussian_noise,
    l2_norm,
    nc_sdedit,
    replace_low_freq,
    sdedit_init,
)


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


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(t0=0, n_iters=1, nu=0.5, rng=RngSeed(0))
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
    x_t0 = sdedit_init(x_ref, cfg.t0, eps0, tiny_sched)
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
    x_t0 = sdedit_init(x_ref, t0, eps0, tiny_sched)
    eps_pred = toy_gmm.predict_eps(x_t0, t0, tiny_sched)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, tiny_sched)
    eps_new, _ = calibrate_noise(
        x_ref, eps0, cal_cfg(t0=t0, n_iters=1, nu=nu), toy_gmm, tiny_sched
    )
    lhs = sdedit_init(x_ref, t0, eps_new, tiny_sched)
    rhs = replace_low_freq(x_t0, x_ref, x0_hat, t0, nu, tiny_sched)
    assert l2_norm(lhs - rhs) <= 1e-9 * l2_norm(rhs)


def test_nu0_leaves_noised_reference_unchanged(tiny_sched, toy_gmm):
    # the noise itself moves, but the recomposed x_t0 does not
    rng = RngSeed(75)
    x_ref = gaussian_noise((1, 1, 4, 4), rng.substream(0))
    eps0 = gaussian_noise((1, 1, 4, 4), rng.substream(1))
    t0 = 8
    eps, _ = calibrate_noise(
        x_ref, eps0, cal_cfg(t0=t0, n_iters=3, nu=0.0), toy_gmm, tiny_sched
    )
    before = sdedit_init(x_ref, t0, eps0, tiny_sched)
    after = sdedit_init(x_ref, t0, eps, tiny_sched)
    assert l2_norm(after - before) <= 1e-9 * l2_norm(before)
    assert not np.array_equal(eps, eps0)


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


def test_pipeline_n0_equals_plain_sdedit(tiny_sched, toy_gmm):
    x_ref = gaussian_noise((1, 1, 4, 4), RngSeed(78))
    cal = cal_cfg(n_iters=0, seed=5)
    samp = sampler_cfg(seed=6)
    out, _ = nc_sdedit(x_ref, cal, samp, toy_gmm, tiny_sched)

    eps0 = gaussian_noise(x_ref.shape, cal.rng)
    x_t0 = sdedit_init(x_ref, cal.t0, eps0, tiny_sched)
    grid = ddim_grid(tiny_sched, samp.num_steps, cal.t0)
    baseline, _ = denoise_from(x_t0, grid, toy_gmm, tiny_sched, samp)
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
