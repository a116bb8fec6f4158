"""Diffusion noise schedules and timestep subsequence selection.

Timesteps are 1-based: t runs over 1..T, and index 0 of the cumulative
product array is the identity (no noise) level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal-retention curve of a forward noising process.

    alpha_bar[t] is the product of per-step retention factors through step t,
    with alpha_bar[0] == 1.  Monotone decrease guarantees every query below
    is well defined (all square roots of positive quantities).
    """

    alpha_bar: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.alpha_bar, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("alpha_bar must be a 1-D array of length T+1 with T >= 1")
        if arr[0] != 1.0:
            raise ValueError(f"alpha_bar[0] must be exactly 1, got {arr[0]}")
        if not np.all(np.diff(arr) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not 0.0 < arr[-1] < 1.0:
            raise ValueError(f"alpha_bar[T] must lie in (0, 1), got {arr[-1]}")
        arr.flags.writeable = False
        object.__setattr__(self, "alpha_bar", arr)

    @property
    def num_steps(self) -> int:
        return self.alpha_bar.shape[0] - 1

    def _check_t(self, t, low: int = 1, shape: tuple[int, ...] | None = None) -> None:
        """The one home of the timestep rule: t is one int in [low, T], or a
        list or tuple of them, one per row of a stack (B, F, C, H, W).  shape,
        when given, is the tensor t is for, whose B rows need B timesteps."""
        per_row = isinstance(t, (list, tuple))
        if per_row:
            if shape is not None and len(shape) != 5:
                raise ValueError(f"a timestep per row needs a (B, F, C, H, W) stack, got {shape}")
            rows = len(t) if shape is None else shape[0]
            if len(t) < rows:
                raise ValueError(f"no timestep for row {len(t)} of a {rows}-row stack")
            if len(t) > rows:
                raise ValueError(f"timestep {t[rows]!r} given for row {rows} of a {rows}-row stack")
        for b, t_b in enumerate(t if per_row else [t]):
            if isinstance(t_b, (int, np.integer)) and low <= t_b <= self.num_steps:
                continue
            what = f"row {b} timestep" if per_row else "timestep"  # named only on failure
            if not isinstance(t_b, (int, np.integer)):
                raise ValueError(f"{what} must be an integer, got {t_b!r}")
            raise ValueError(f"{what} {t_b} outside [{low}, {self.num_steps}]")

    def _alpha_bar_at(self, t, low: int = 1, shape: tuple[int, ...] | None = None):
        """alpha_bar at t, checked by _check_t: one float64, or for a timestep
        per row a (B, 1, 1, 1, 1) column that broadcasts over the stack, so
        each element goes through the same operations as on one run."""
        self._check_t(t, low, shape)
        if isinstance(t, (list, tuple)):
            return self.alpha_bar[list(t)].reshape(-1, 1, 1, 1, 1)
        return self.alpha_bar[t]

    def signal_scale(self, t):
        """sqrt(alpha_bar[t]), coefficient of the clean signal at level t:
        a float, or a (B, 1, 1, 1, 1) array for a timestep per row."""
        return np.sqrt(self._alpha_bar_at(t, low=0))

    def noise_scale(self, t):
        """sqrt(1 - alpha_bar[t]), coefficient of the unit noise at level t:
        a float, or a (B, 1, 1, 1, 1) array for a timestep per row."""
        return np.sqrt(1.0 - self._alpha_bar_at(t, low=0))


def linear_beta_schedule(num_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule whose per-step noise rates interpolate linearly.

    beta[t] runs from beta_start at t=1 to beta_end at t=T;
    alpha_bar[t] = prod_{s<=t} (1 - beta[s]), which must stay strictly
    decreasing in float64 through t=T (with betas from 1e-4 to 0.02, T <= 73252).
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    betas = np.linspace(beta_start, beta_end, num_steps, dtype=np.float64)
    alpha_bar = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    flat = np.flatnonzero(np.diff(alpha_bar) >= 0)  # the product underflows, or 1 - beta rounds to 1
    if flat.size:
        t = int(flat[0]) + 1
        raise ValueError(
            f"alpha_bar must be strictly decreasing, but with T={num_steps} and betas from "
            f"{beta_start} to {beta_end} it stops decreasing at step {t}, where it is "
            f"{alpha_bar[t]:.3g}; use a smaller T or other betas"
        )
    return NoiseSchedule(alpha_bar=alpha_bar)


def ddim_grid(schedule: NoiseSchedule, num_steps: int, t0: int) -> list[int]:
    """Decreasing subsequence of timesteps for accelerated sampling.

    Builds the evenly spaced grid round(i * T / num_steps) for i = 1..num_steps
    (integer-exact rounding; num_steps <= T keeps the entries distinct), keeps
    only entries <= t0, and returns them in decreasing order.  A t0 below the
    first grid point would leave sampling nothing to do, and is an error.
    """
    big_t = schedule.num_steps
    if not 1 <= num_steps <= big_t:
        raise ValueError(f"num_steps must be in [1, {big_t}], got {num_steps}")
    # round(i*T/n) without float roundoff, ties away from zero
    grid = [(2 * i * big_t + num_steps) // (2 * num_steps) for i in range(1, num_steps + 1)]
    if not grid[0] <= t0 <= big_t:
        raise ValueError(
            f"t0={t0} is outside [{grid[0]}, {big_t}]; "
            f"{grid[0]} is the lowest step of the {num_steps}-step sampling grid"
        )
    return [t for t in reversed(grid) if t <= t0]
