"""Fixed-point refinement of the initial noise for reference-guided sampling.

Plain SDEdit noises a reference to an intermediate level t0 and denoises
back; the output trades faithfulness for realism as t0 grows.  The
calibration loop here iteratively replaces the initial noise so that the
sampler's first clean estimate agrees with the reference in the low
frequency band, at the cost of one extra denoiser evaluation per iteration,
while the high-frequency content stays free for the sampler to enhance.

Each iteration maps the current noise eps to

    eps' = predict(x_t0) + (signal_scale/noise_scale) * f_h(x0_hat - x_ref)

with x_t0 rebuilt from eps and x0_hat the one-shot clean estimate.  One
low_pass of the gap x0_hat - x_ref gives the objective (its norm) and f_h
(the gap minus it).  The equivalent view (replace_low_freq) overwrites the
low band of x_t0 with the reference's; both agree to roundoff.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import Denoiser
from .diffusion import SamplerConfig, denoise_from, estimate_x0, forward_noise
from .frequency import content_objective, low_pass
from .schedule import NoiseSchedule, ddim_grid
from .tensor import (
    RngSeed,
    VideoTensor,
    _freeze,
    _require_same_shape,
    _Runs,
    _shared,
    gaussian_noise,
    l2_norm,
)


@dataclass(frozen=True)
class CalibrationConfig:
    """Start level t0, iteration count, band cutoff, and noise-draw stream.
    nc_sdedit starts at the largest sampling grid step <= t0."""

    t0: int
    n_iters: int
    nu: float
    rng: RngSeed

    def __post_init__(self) -> None:
        if self.t0 < 1:
            raise ValueError(f"t0 must be >= 1, got {self.t0}")
        if self.n_iters < 0:
            raise ValueError(f"n_iters must be >= 0, got {self.n_iters}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"nu must be in [0, 1], got {self.nu}")


@dataclass
class CalibrationTrace:
    """Objective descent record plus call accounting.

    objectives[k] is the objective of the noise after k updates; entry 0 is
    the uncalibrated baseline.  The full pipeline appends the post-loop entry
    by reusing its first sampling evaluation, so a run with N iterations
    carries N+1 entries while spending exactly N extra evaluations.
    """

    objectives: list[float] = field(default_factory=list)
    calibration_calls: int = 0
    sampling_calls: int = 0

    @property
    def total_calls(self) -> int:
        return self.calibration_calls + self.sampling_calls

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("iteration,objective\n")
        for k, obj in enumerate(self.objectives):
            buf.write(f"{k},{obj!r}\n")
        buf.write(f"# calibration_calls={self.calibration_calls}\n")
        buf.write(f"# sampling_calls={self.sampling_calls}\n")
        buf.write(f"# total_calls={self.total_calls}\n")
        return buf.getvalue()


def calibrate_noise(
    x_ref: VideoTensor,
    eps0: VideoTensor,
    cfg: CalibrationConfig | Sequence[CalibrationConfig],
    d: Denoiser,
    s: NoiseSchedule,
) -> tuple[VideoTensor, CalibrationTrace | list[CalibrationTrace]]:
    """Run n_iters noise updates; one denoiser evaluation per iteration.

    Returns the calibrated noise and a trace whose objectives[k] is the
    objective of the noise after k updates (measured by iteration k+1's
    evaluation); with n_iters=0 the noise and trace pass through untouched.

    For a stack, eps0 is (B, *x_ref.shape) and cfg a sequence of B
    CalibrationConfigs that share t0 and n_iters; each row is filtered at its
    own nu, and a list of B traces comes back.
    """
    runs = _Runs(cfg)
    if runs.run_shape(eps0.shape) != x_ref.shape:
        raise ValueError(f"shape mismatch: {x_ref.shape} vs {eps0.shape}")
    stack = (len(runs),) + x_ref.shape  # a run is the stack of one
    t0, n_iters = _shared(runs, "t0"), _shared(runs, "n_iters")
    s._check_t(t0)
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    traces = [CalibrationTrace(calibration_calls=n_iters) for _ in runs]
    ref = np.broadcast_to(x_ref, eps0.shape)
    eps = eps0
    for _ in range(n_iters):
        x_t0 = forward_noise(ref, t0, eps, s)
        eps_pred = d.predict_eps(x_t0, t0, s)
        gap = estimate_x0(x_t0, t0, eps_pred, s) - ref
        low = np.empty_like(gap)
        rows = zip(runs, traces, gap.reshape(stack), low.reshape(stack))
        for run, trace, gap_row, low_row in rows:  # each run's band at its own nu
            low_row[...] = low_pass(gap_row, run.nu)
            trace.objectives.append(l2_norm(low_row))
        eps = _freeze(eps_pred + coef * (gap - low))
    return eps, runs.given(traces)


def replace_low_freq(
    x_t0: VideoTensor,
    x_ref: VideoTensor,
    x0_hat: VideoTensor,
    t0: int,
    nu: float,
    s: NoiseSchedule,
) -> VideoTensor:
    """Overwrite the low band of a noisy iterate with the reference's.

    Affine form of one calibration iteration acting on x_t0 directly:
    x_t0 + signal_scale(t0) * (f_l(x_ref) - f_l(x0_hat)).
    """
    _require_same_shape(x_t0, x_ref)
    _require_same_shape(x_t0, x0_hat)
    return _freeze(x_t0 + s.signal_scale(t0) * low_pass(x_ref - x0_hat, nu))


def start_grid(s: NoiseSchedule, num_steps: int, t0: int) -> list[int]:
    """The num_steps sampling grid from t0 down; a t0 below its lowest step is an error."""
    grid = ddim_grid(s, num_steps, t0)
    if not grid:
        lowest = ddim_grid(s, num_steps, s.num_steps)[-1]
        raise ValueError(
            f"t0={t0} is below {lowest}, the lowest step of the {num_steps}-step sampling grid"
        )
    return grid


def nc_sdedit(
    x_ref: VideoTensor,
    cfg: CalibrationConfig | Sequence[CalibrationConfig],
    sampler: SamplerConfig | Sequence[SamplerConfig],
    d: Denoiser,
    s: NoiseSchedule,
) -> tuple[VideoTensor, CalibrationTrace | list[CalibrationTrace]]:
    """Full enhancement pipeline: draw noise, calibrate, noise, sample.

    All of it starts at grid[0], the largest sampling grid step <= cfg.t0, so
    every objective is read at one level.  With n_iters=0 this is the plain
    SDEdit baseline.  The returned trace carries the objective after every
    update (n_iters+1 entries) and exact call totals: n_iters calibration
    evaluations plus one per grid entry.

    cfg and sampler are one run's configs, or equal-length sequences of B
    runs' configs on the one reference.  The runs then advance as one
    (B, F, C, H, W) stack, one denoiser call per step for all of them, and
    must share t0, n_iters, eta and num_steps; x0 is the stack, with a list
    of B traces.  A single run is the stack of one.
    """
    cals, samps = _Runs(cfg), _Runs(sampler)
    if (cals.stacked, len(cals)) != (samps.stacked, len(samps)):
        raise ValueError(
            "cfg and sampler must be one run's configs or two sequences of one length, "
            f"got {len(cals)} calibration and {len(samps)} sampler configs"
        )
    grid = start_grid(s, _shared(samps, "num_steps"), _shared(cals, "t0"))
    stack = [replace(cal, t0=grid[0]) for cal in cals]  # a run is the stack of one
    eps0 = gaussian_noise((len(stack),) + x_ref.shape, [cal.rng for cal in stack])
    eps, traces = calibrate_noise(x_ref, eps0, stack, d, s)
    x_t0 = forward_noise(np.broadcast_to(x_ref, eps.shape), grid[0], eps, s)
    x0, first_x0_hat = denoise_from(x_t0, grid, d, s, list(samps))
    for cal, trace, x0_hat in zip(stack, traces, first_x0_hat):
        # first sampling evaluation doubles as the final objective reading
        trace.objectives.append(content_objective(x_ref, x0_hat, cal.nu))
        trace.sampling_calls = len(grid)
    return cals.given(x0), cals.given(traces)
