"""Forward noising, reverse steps, and full reverse passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import ConstantDenoiser, CountingDenoiser
from noisecal import (
    GmmDenoiser,
    NoiseSchedule,
    RngSeed,
    SamplerConfig,
    as_video,
    ddim_grid,
    ddim_step,
    denoise_from,
    estimate_x0,
    forward_noise,
    gaussian_noise,
    linear_beta_schedule,
)


@pytest.fixture(scope="module")
def quarter_sched():
    # alpha_bar[1] = 0.25: signal and noise scales are 0.5 and sqrt(0.75)
    return NoiseSchedule(alpha_bar=np.array([1.0, 0.25]))


def one_pixel(v):
    return as_video(np.array([[[[v]]]]))


def cfg_for(eta, seed=0):
    return SamplerConfig(eta=eta, num_steps=30, rng=RngSeed(seed))


# ---------------------------------------------------------------- forward


def test_forward_noise_t0_is_identity(sched):
    x0 = gaussian_noise((2, 1, 4, 4), RngSeed(1))
    eps = gaussian_noise((2, 1, 4, 4), RngSeed(2))
    out = forward_noise(x0, 0, eps, sched)
    np.testing.assert_array_equal(out, x0)


def test_forward_noise_zero_eps(sched):
    x0 = gaussian_noise((1, 1, 4, 4), RngSeed(3))
    out = forward_noise(x0, 500, np.zeros_like(x0), sched)
    np.testing.assert_allclose(out, sched.signal_scale(500) * x0, atol=1e-15)


def test_forward_noise_scalar_example(quarter_sched):
    out = forward_noise(one_pixel(1.0), 1, one_pixel(2.0), quarter_sched)
    assert out.ravel()[0] == pytest.approx(2.2320508, abs=1e-7)


def test_forward_noise_shape_mismatch(sched):
    x0 = gaussian_noise((1, 1, 4, 4), RngSeed(4))
    eps = gaussian_noise((1, 1, 4, 5), RngSeed(5))
    with pytest.raises(ValueError):
        forward_noise(x0, 100, eps, sched)


def test_estimate_x0_scalar_example(quarter_sched):
    out = estimate_x0(one_pixel(2.2320508075688772), 1, one_pixel(2.0), quarter_sched)
    assert out.ravel()[0] == pytest.approx(1.0, abs=1e-12)


def test_estimate_x0_exact_eps_gives_zero(sched):
    x_t = gaussian_noise((1, 1, 3, 3), RngSeed(6))
    eps = x_t / sched.noise_scale(700)
    out = estimate_x0(x_t, 700, eps, sched)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_estimate_x0_rejects_t0(sched):
    x = gaussian_noise((1, 1, 2, 2), RngSeed(7))
    with pytest.raises(ValueError):
        estimate_x0(x, 0, x, sched)


_ROUNDTRIP_SCHED = linear_beta_schedule(10, 0.01, 0.1)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_forward_estimate_roundtrip(seed, t):
    s = _ROUNDTRIP_SCHED
    rng = RngSeed(seed)
    x0 = gaussian_noise((1, 2, 4, 4), rng.substream(0))
    eps = gaussian_noise((1, 2, 4, 4), rng.substream(1))
    back = estimate_x0(forward_noise(x0, t, eps, s), t, eps, s)
    np.testing.assert_allclose(back, x0, atol=1e-10)


# ---------------------------------------------------------------- ddim_step


def test_ddim_step_eta0_matches_formula(tiny_sched):
    x = gaussian_noise((1, 1, 4, 4), RngSeed(15))
    eps = gaussian_noise((1, 1, 4, 4), RngSeed(16))
    t, t_prev = 8, 3
    out, x0_out = ddim_step(x, t, t_prev, ConstantDenoiser(eps), tiny_sched, cfg_for(0.0))
    abar_t = tiny_sched.alpha_bar[t]
    abar_p = tiny_sched.alpha_bar[t_prev]
    x0_hat = (x - np.sqrt(1 - abar_t) * eps) / np.sqrt(abar_t)
    expected = np.sqrt(abar_p) * x0_hat + np.sqrt(1 - abar_p) * eps
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(x0_out, x0_hat, atol=1e-12)


def test_ddim_step_exact_eps_recovers_prev_level(tiny_sched):
    """With the true noise known, the deterministic step lands exactly on the
    forward-noised tensor at the earlier level."""
    rng = RngSeed(17)
    x0 = gaussian_noise((2, 1, 4, 4), rng.substream(0))
    eps = gaussian_noise((2, 1, 4, 4), rng.substream(1))
    x_t = forward_noise(x0, 9, eps, tiny_sched)
    out, x0_hat = ddim_step(x_t, 9, 4, ConstantDenoiser(eps), tiny_sched, cfg_for(0.0))
    np.testing.assert_allclose(out, forward_noise(x0, 4, eps, tiny_sched), atol=1e-10)
    np.testing.assert_allclose(x0_hat, x0, atol=1e-10)


def test_ddim_step_eta1_reproducible(tiny_sched):
    x = gaussian_noise((1, 1, 4, 4), RngSeed(18))
    d = ConstantDenoiser(gaussian_noise((1, 1, 4, 4), RngSeed(19)))
    a, _ = ddim_step(x, 8, 3, d, tiny_sched, cfg_for(1.0, seed=5))
    b, _ = ddim_step(x, 8, 3, d, tiny_sched, cfg_for(1.0, seed=5))
    np.testing.assert_array_equal(a, b)


def test_ddim_step_rejects_oversized_eta():
    # a step's eta comes from a SamplerConfig, which holds it to [0, 1]: for
    # those, sigma^2 never exceeds 1 - alpha_bar[t_prev]
    for eta in (4.0, 1.5):
        with pytest.raises(ValueError, match=f"eta must be in \\[0, 1\\], got {eta}"):
            cfg_for(eta)


def test_ddim_step_rejects_bad_ordering(tiny_sched):
    x = gaussian_noise((1, 1, 4, 4), RngSeed(21))
    d = ConstantDenoiser(np.zeros_like(x))
    with pytest.raises(ValueError):
        ddim_step(x, 5, 5, d, tiny_sched, cfg_for(0.0))
    with pytest.raises(ValueError):
        ddim_step(x, 5, -1, d, tiny_sched, cfg_for(0.0))


def test_ddim_step_rejects_a_timestep_per_row(tiny_sched):
    # the reverse pass steps a whole stack at one level; a per-row t or t_prev
    # is a ValueError that says so, before any denoiser call
    x = gaussian_noise((2, 1, 1, 4, 4), [RngSeed(21), RngSeed(22)])
    counter = CountingDenoiser(ConstantDenoiser(np.zeros((1, 1, 4, 4))))
    cfgs = [cfg_for(0.0, seed=0), cfg_for(0.0, seed=1)]
    for t, t_prev in (([5, 6], 0), ((5, 6), 0), (6, [0, 1])):
        with pytest.raises(ValueError, match="one level per step"):
            ddim_step(x, t, t_prev, counter, tiny_sched, cfgs)
    assert counter.calls == 0


def test_ddim_step_stack_rows_equal_each_run_stepped_alone(tiny_sched):
    # each row draws step t's noise from its own config's rng.substream(t)
    x = gaussian_noise((3, 2, 1, 4, 4), [RngSeed(30 + b) for b in range(3)])
    d = GmmDenoiser([(1.0, gaussian_noise((2, 1, 4, 4), RngSeed(33)), 0.3)])
    cfgs = [cfg_for(1.0, seed=b) for b in (7, 8, 7 << 40)]
    out, x0_hat = ddim_step(x, 8, 3, d, tiny_sched, cfgs)
    for b, cfg in enumerate(cfgs):
        alone, alone_x0 = ddim_step(x[b], 8, 3, d, tiny_sched, cfg)
        assert out[b].tobytes() == alone.tobytes()
        assert x0_hat[b].tobytes() == alone_x0.tobytes()
    assert out[0].tobytes() != out[1].tobytes()


def test_ddim_step_checks_the_stack_against_its_configs(tiny_sched):
    # mixed eta or a config count other than B fails before any denoiser call
    x = gaussian_noise((2, 1, 1, 4, 4), [RngSeed(21), RngSeed(22)])
    counter = CountingDenoiser(ConstantDenoiser(np.zeros((1, 1, 4, 4))))
    with pytest.raises(ValueError, match="share eta"):
        ddim_step(x, 8, 3, counter, tiny_sched, [cfg_for(0.0), cfg_for(1.0)])
    for cfgs in ([cfg_for(1.0)], [cfg_for(1.0)] * 3):
        with pytest.raises(ValueError, match="per-run values"):
            ddim_step(x, 8, 3, counter, tiny_sched, cfgs)
    assert counter.calls == 0


def test_ddim_step_to_zero_returns_clean_estimate(tiny_sched):
    # alpha_bar[0] = 1: no residual noise and no fresh draw at the last step,
    # so the iterate is the estimate itself, not a copy
    x = gaussian_noise((1, 1, 4, 4), RngSeed(21))
    d = ConstantDenoiser(gaussian_noise((1, 1, 4, 4), RngSeed(40)))
    x0_hat = estimate_x0(x, 5, d.predict_eps(x, 5, tiny_sched), tiny_sched)
    for seed in (0, 99):
        out, x0_out = ddim_step(x, 5, 0, d, tiny_sched, cfg_for(1.0, seed=seed))
        assert out.tobytes() == x0_hat.tobytes()
        assert out is x0_out


def test_ddim_sigma_matches_ddpm_on_consecutive_steps(sched):
    # eta=1 with a gap of one step must reproduce the ancestral noise scale
    abar = sched.alpha_bar
    betas = np.linspace(1e-4, 0.02, 1000)  # the sched fixture's per-step rates
    for t in range(2, sched.num_steps + 1):
        sigma_ddim = np.sqrt((1 - abar[t - 1]) / (1 - abar[t])) * np.sqrt(1 - abar[t] / abar[t - 1])
        sigma_ddpm = np.sqrt((1 - abar[t - 1]) / (1 - abar[t]) * betas[t - 1])
        assert sigma_ddim == pytest.approx(sigma_ddpm, abs=1e-12)


# ---------------------------------------------------------------- SDEdit start


def test_sdedit_init_scalar_example(quarter_sched):
    out = forward_noise(one_pixel(1.0), 1, one_pixel(2.0), quarter_sched)
    assert out.ravel()[0] == pytest.approx(2.2320508, abs=1e-7)


def test_sdedit_init_small_t0_stays_close(sched):
    x = gaussian_noise((1, 1, 8, 8), RngSeed(24))
    eps = gaussian_noise((1, 1, 8, 8), RngSeed(25))
    drift = np.linalg.norm(forward_noise(x, 1, eps, sched) - x)
    assert drift < 0.05 * np.linalg.norm(eps) + 1e-3 * np.linalg.norm(x)


# ---------------------------------------------------------------- denoise_from


def test_denoise_from_empty_grid_is_identity(sched):
    x = gaussian_noise((1, 1, 4, 4), RngSeed(27))
    d = ConstantDenoiser(np.zeros_like(x))
    with pytest.raises(ValueError, match="nonempty"):
        denoise_from(x, [], d, sched, cfg_for(1.0))


def test_denoise_from_rejects_a_timestep_per_row(sched):
    x = gaussian_noise((2, 1, 1, 4, 4), [RngSeed(27), RngSeed(28)])
    counter = CountingDenoiser(ConstantDenoiser(np.zeros((1, 1, 4, 4))))
    cfgs = [cfg_for(1.0, seed=0), cfg_for(1.0, seed=1)]
    for grid, stop in (([[5], [6]], 0), ([600, (500, 400)], 0), ([600, 500], [1, 2])):
        with pytest.raises(ValueError, match="one level per step"):
            denoise_from(x, grid, counter, sched, cfgs, stop=stop)
    assert counter.calls == 0


def test_denoise_from_single_component_lands_on_mean(sched):
    # a zero-variance single-component model pins the clean estimate to mu
    mu = gaussian_noise((1, 1, 4, 4), RngSeed(29))
    d = GmmDenoiser([(1.0, mu, 0.0)])
    x_start = gaussian_noise((1, 1, 4, 4), RngSeed(30))
    grid = ddim_grid(sched, 30, sched.num_steps)
    out = denoise_from(x_start, grid, d, sched, cfg_for(0.0))
    np.testing.assert_allclose(out, mu, atol=1e-9)


def test_denoise_from_bit_identical_across_runs(sched):
    rng = RngSeed(31)
    d = GmmDenoiser(
        [
            (0.5, gaussian_noise((1, 1, 4, 4), rng.substream(0)), 0.1),
            (0.5, gaussian_noise((1, 1, 4, 4), rng.substream(1)), 0.1),
        ]
    )
    x = gaussian_noise((1, 1, 4, 4), rng.substream(2))
    grid = ddim_grid(sched, 30, 600)
    a = denoise_from(x, grid, d, sched, cfg_for(1.0, seed=3))
    b = denoise_from(x, grid, d, sched, cfg_for(1.0, seed=3))
    assert a.tobytes() == b.tobytes()


def test_denoise_from_one_call_per_grid_entry(sched):
    mu = gaussian_noise((1, 1, 4, 4), RngSeed(32))
    counter = CountingDenoiser(GmmDenoiser([(1.0, mu, 0.2)]))
    x = gaussian_noise((1, 1, 4, 4), RngSeed(33))
    grid = ddim_grid(sched, 30, 600)
    denoise_from(x, grid, counter, sched, cfg_for(1.0))
    assert counter.calls == len(grid)


@pytest.mark.parametrize("rows", [None, 3])
def test_denoise_from_split_at_a_grid_step_is_the_whole_pass(sched, rows):
    # the pass down to grid[k], continued along grid[k:], is the whole pass,
    # byte for byte, for a run and for a stack, at one call per grid entry
    rng = RngSeed(40)
    counter = CountingDenoiser(GmmDenoiser([(1.0, gaussian_noise((1, 1, 4, 4), rng), 0.2)]))
    if rows is None:
        x, cfg = gaussian_noise((1, 1, 4, 4), rng.substream(0)), cfg_for(1.0, seed=0)
    else:
        x = gaussian_noise((rows, 1, 1, 4, 4), [rng.substream(b) for b in range(rows)])
        cfg = [cfg_for(1.0, seed=b) for b in range(rows)]
    grid = ddim_grid(sched, 30, 600)
    whole = denoise_from(x, grid, counter, sched, cfg)
    for k in (1, 2, len(grid) // 2, len(grid) - 1):
        counter.calls = 0
        mid = denoise_from(x, grid[:k], counter, sched, cfg, stop=grid[k])
        out = denoise_from(mid, grid[k:], counter, sched, cfg)
        assert counter.calls == len(grid)
        assert out.tobytes() == whole.tobytes()
    for stop in (grid[-1], grid[-1] + 1, -1):
        with pytest.raises(ValueError, match="t_prev"):
            denoise_from(x, grid, counter, sched, cfg, stop=stop)


@pytest.mark.parametrize("scale", [1e6, -1e6])
def test_steps_finite_at_large_magnitude(sched, scale):
    x = np.full((1, 1, 4, 4), scale, dtype=np.float64)
    d = ConstantDenoiser(np.zeros_like(x))
    assert np.isfinite(forward_noise(x, 900, np.zeros_like(x), sched)).all()
    assert np.isfinite(estimate_x0(x, 900, np.zeros_like(x), sched)).all()
    for out in ddim_step(x, 900, 500, d, sched, cfg_for(1.0)):
        assert np.isfinite(out).all()


def test_sampler_config_validation():
    # the step budget is checked against the schedule by ddim_grid
    # (test_schedule.py::test_ddim_grid_validation)
    with pytest.raises(ValueError):
        SamplerConfig(eta=-0.1, num_steps=30, rng=RngSeed(0))
