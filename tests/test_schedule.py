import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisecal import NoiseSchedule, ddim_grid, linear_beta_schedule


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
    assert ddim_grid(sched, 10, 0) == []
    assert ddim_grid(sched, 10, 99) == []
    assert ddim_grid(sched, 10, 100) == [100]


def test_ddim_grid_validation(sched):
    with pytest.raises(ValueError):
        ddim_grid(sched, 0, 600)
    with pytest.raises(ValueError):
        ddim_grid(sched, 1001, 600)
    with pytest.raises(ValueError):
        ddim_grid(sched, 10, 1001)


@given(st.integers(1, 200), st.integers(0, 999), st.integers(0, 999))
def test_ddim_grid_prefix_filter_property(num_steps, a, b):
    s = linear_beta_schedule(1000, 1e-4, 0.02)
    lo, hi = sorted((a, b))
    grid_lo = ddim_grid(s, num_steps, lo)
    grid_hi = ddim_grid(s, num_steps, hi)
    assert set(grid_lo) <= set(grid_hi)
    assert grid_hi[-len(grid_lo):] == grid_lo if grid_lo else True
    assert all(x > y for x, y in zip(grid_hi, grid_hi[1:]))  # strictly decreasing


@given(
    st.integers(1, 400),
    st.floats(1e-6, 0.4, allow_nan=False),
    st.floats(0.0, 0.59, allow_nan=False),
)
def test_alpha_bar_monotone_for_valid_parameters(num_steps, beta_start, extra):
    s = linear_beta_schedule(num_steps, beta_start, beta_start + extra)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert 0.0 < s.alpha_bar[-1] < 1.0
