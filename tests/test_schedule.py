import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doubles import ConstantDenoiser
from noisecal import (
    GmmDenoiser,
    NoiseSchedule,
    RngSeed,
    ddim_grid,
    estimate_x0,
    forward_noise,
    gaussian_noise,
    linear_beta_schedule,
)


def test_alpha_bar_starts_at_one():
    assert linear_beta_schedule(50, 1e-4, 0.02).alpha_bar[0] == 1.0


def test_hand_product_example():
    # betas 0.1..0.4 over T=4: alphas (0.9, 0.8, 0.7, 0.6)
    s = linear_beta_schedule(4, 0.1, 0.4)
    assert np.allclose(s.alpha_bar, [1.0, 0.9, 0.72, 0.504, 0.3024], atol=1e-15)


def test_single_step_schedule():
    s = linear_beta_schedule(1, 0.5, 0.5)
    assert s.alpha_bar[1] == pytest.approx(0.5)
    assert s.num_steps == 1


def test_parameter_validation():
    with pytest.raises(ValueError):
        linear_beta_schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.02, 0.01)
    with pytest.raises(ValueError):
        linear_beta_schedule(10, 0.5, 1.0)


def test_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        NoiseSchedule(alpha_bar=np.array([0.9, 0.5]))  # must start at 1
    with pytest.raises(ValueError):
        NoiseSchedule(alpha_bar=np.array([1.0, 0.5, 0.5]))  # not strictly decreasing
    with pytest.raises(ValueError):
        NoiseSchedule(alpha_bar=np.array([1.0, 0.5, 0.0]))  # terminal must stay positive
    with pytest.raises(ValueError):
        NoiseSchedule(alpha_bar=np.array([[1.0, 0.5]]))  # not 1-D
    with pytest.raises(ValueError):
        NoiseSchedule(alpha_bar=np.array([1.0]))  # T=0: no noise level at all


def test_scale_queries(sched):
    t = 600
    ab = sched.alpha_bar[t]
    assert sched.signal_scale(t) == pytest.approx(np.sqrt(ab))
    assert sched.noise_scale(t) == pytest.approx(np.sqrt(1 - ab))
    assert sched.signal_scale(0) == 1.0
    assert sched.noise_scale(0) == 0.0


def test_timestep_range_checks(sched):
    with pytest.raises(ValueError):
        sched.signal_scale(1001)
    with pytest.raises(ValueError):
        sched.signal_scale(2.5)


def test_ddim_grid_full_range(sched):
    assert ddim_grid(sched, 10, 1000) == [1000, 900, 800, 700, 600, 500, 400, 300, 200, 100]


def test_ddim_grid_filtered(sched):
    assert ddim_grid(sched, 10, 600) == [600, 500, 400, 300, 200, 100]


def test_ddim_grid_empty_below_first_point(sched):
    # a grid that would be empty is an error that names the lowest step
    for t0 in (0, 99):
        with pytest.raises(ValueError, match=rf"t0={t0} is outside \[100, 1000\]"):
            ddim_grid(sched, 10, t0)
    assert ddim_grid(sched, 10, 100) == [100]


def test_ddim_grid_validation(sched):
    with pytest.raises(ValueError):
        ddim_grid(sched, 0, 600)
    with pytest.raises(ValueError):
        ddim_grid(sched, 1001, 600)
    with pytest.raises(ValueError):
        ddim_grid(sched, 10, 1001)


@given(st.integers(1, 200), st.data())
def test_ddim_grid_prefix_filter_property(num_steps, data):
    s = linear_beta_schedule(1000, 1e-4, 0.02)
    lowest = ddim_grid(s, num_steps, 1000)[-1]
    lo, hi = sorted(data.draw(st.integers(lowest, 1000)) for _ in range(2))
    grid_lo = ddim_grid(s, num_steps, lo)
    grid_hi = ddim_grid(s, num_steps, hi)
    assert grid_lo[-1] == grid_hi[-1] == lowest
    assert grid_hi[-len(grid_lo):] == grid_lo
    assert all(x > y for x, y in zip(grid_hi, grid_hi[1:]))  # strictly decreasing
    with pytest.raises(ValueError, match=f"{lowest} is the lowest step"):
        ddim_grid(s, num_steps, data.draw(st.integers(0, lowest - 1)))


@given(
    st.integers(1, 400),
    st.floats(1e-6, 0.4, allow_nan=False),
    st.floats(0.0, 0.59, allow_nan=False),
)
def test_alpha_bar_monotone_for_valid_parameters(num_steps, beta_start, extra):
    s = linear_beta_schedule(num_steps, beta_start, beta_start + extra)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert 0.0 < s.alpha_bar[-1] < 1.0


# ---------------------------------------------------------------- a timestep per row


def per_row_callers(s, x=None):
    """Each caller of the timestep rule on x, by default a 4-row stack, with
    its lowest level."""
    if x is None:
        x = gaussian_noise((4, 1, 1, 2, 2), [RngSeed(b) for b in range(4)])
    run = x if x.ndim == 4 else x[0]
    d = GmmDenoiser([(1.0, run, 0.5)])
    return {
        "posterior_mean": (1, lambda t: d.posterior_mean(x, t, s)),
        "predict_eps": (1, lambda t: d.predict_eps(x, t, s)),
        "constant": (1, lambda t: ConstantDenoiser(run).predict_eps(x, t, s)),
        "forward_noise": (0, lambda t: forward_noise(x, t, x, s)),
        "estimate_x0": (1, lambda t: estimate_x0(x, t, x, s)),
    }


SHAPED = ["posterior_mean", "predict_eps", "forward_noise", "estimate_x0"]


@pytest.mark.parametrize("caller", SHAPED + ["constant"])
def test_per_row_t_is_taken_by_every_caller(tiny_sched, caller):
    low, call = per_row_callers(tiny_sched)[caller]
    assert call([10, low + 1, 5, 10]).shape == (4, 1, 1, 2, 2)


@pytest.mark.parametrize("caller", SHAPED)
@pytest.mark.parametrize(
    "ts,message",
    [([5, 5, 5], "no timestep for row 3 of a 4-row stack"),
     ([5, 5, 5, 5, 7], "timestep 7 given for row 4 of a 4-row stack")],
    ids=["short", "long"],
)
def test_per_row_t_of_wrong_length_names_the_row(tiny_sched, caller, ts, message):
    with pytest.raises(ValueError, match=message):
        per_row_callers(tiny_sched)[caller][1](ts)


@pytest.mark.parametrize("caller", SHAPED + ["constant"])
@pytest.mark.parametrize("bad", [2.0, "5", None])
def test_per_row_t_entry_not_an_int_names_the_row(tiny_sched, caller, bad):
    with pytest.raises(ValueError, match=rf"row 2 timestep must be an integer, got {bad!r}"):
        per_row_callers(tiny_sched)[caller][1]([5, 5, bad, 5])


@pytest.mark.parametrize("caller", SHAPED + ["constant"])
def test_per_row_t_entry_outside_its_range_names_the_row(tiny_sched, caller):
    low, call = per_row_callers(tiny_sched)[caller]
    for bad in (low - 1, 11):
        with pytest.raises(ValueError, match=rf"row 1 timestep {bad} outside \[{low}, 10\]"):
            call([5, bad, 5, 5])


@pytest.mark.parametrize("caller", SHAPED)
def test_per_row_t_needs_a_stack(tiny_sched, caller):
    call = per_row_callers(tiny_sched, gaussian_noise((1, 1, 2, 2), RngSeed(9)))[caller][1]
    with pytest.raises(ValueError, match=r"a timestep per row needs a \(B, F, C, H, W\) stack"):
        call([5])
