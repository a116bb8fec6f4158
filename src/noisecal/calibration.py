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
(the gap minus it).  In terms of x_t0 the update overwrites the low band of
x_t0 with the reference's; tests/test_oracles.py keeps that form
(replace_low_freq) as the oracle the loop must agree with to roundoff.

A stack of runs is calibrated together, each row at its own t0 (the
denoiser takes a timestep per row), so a stack of any mix of starts costs N
calls; it is filtered with one low_pass call per distinct nu in each
iteration, and each run's objective is the norm of its own row.  The final
objective reading costs no call: nc_sdedit takes it from the estimate of each
start's first sampling step, with one low_pass call per start and nu.
"""

from __future__ import annotations

import io
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import Denoiser
from .diffusion import SamplerConfig, ddim_step, denoise_from, estimate_x0, forward_noise
from .frequency import low_pass
from .schedule import NoiseSchedule, ddim_grid
from .tensor import (
    RngSeed,
    VideoTensor,
    _freeze,
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
        if self.n_iters < 0:
            raise ValueError(f"N (n_iters) must be >= 0, got {self.n_iters}")
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


def _low_pass_rows(x: np.ndarray, nus: Sequence[float]) -> np.ndarray:
    """low_pass of each row of a stack x at its own nu, one call per distinct nu.

    When every row has one nu this is low_pass's own result; otherwise the
    rows of each nu, adjacent or not, are filtered together into one buffer.
    """
    if len(set(nus)) == 1:
        return low_pass(x, nus[0])
    low = np.empty_like(x)
    for nu in dict.fromkeys(nus):
        rows = [b for b, row_nu in enumerate(nus) if row_nu == nu]
        low[rows] = low_pass(x[rows], nu)
    return low


def _read_objectives(traces: Sequence[CalibrationTrace], low: np.ndarray) -> None:
    """Append to each run's trace the norm of its row of the gap's low band."""
    for trace, low_row in zip(traces, low):
        trace.objectives.append(l2_norm(low_row))


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
    CalibrationConfigs that share n_iters; each row is noised and denoised at
    its own t0, with one denoiser call per iteration for the whole stack, and
    filtered at its own nu, with one low_pass call per distinct nu and
    iteration, and a list of B traces comes back.
    """
    runs = _Runs(cfg)
    if runs.run_shape(eps0.shape) != x_ref.shape:
        raise ValueError(f"shape mismatch: {x_ref.shape} vs {eps0.shape}")
    stack = (len(runs),) + x_ref.shape  # a run is the stack of one
    t0, n_iters = runs.given([run.t0 for run in runs]), _shared(runs, "n_iters")
    s._check_t(t0)
    coef = s.signal_scale(t0) / s.noise_scale(t0)  # a column of B for a stack
    traces = [CalibrationTrace(calibration_calls=n_iters) for _ in runs]
    nus = [run.nu for run in runs]
    ref = np.broadcast_to(x_ref, eps0.shape)
    eps = eps0
    del eps0  # each buffer goes after its last read
    for _ in range(n_iters):
        x_t0 = forward_noise(ref, t0, eps, s)
        del eps
        eps_pred = d.predict_eps(x_t0, t0, s)
        x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
        del x_t0
        gap = x0_hat - ref
        del x0_hat
        low = _low_pass_rows(gap.reshape(stack), nus)  # each run's band at its own nu
        gap -= low.reshape(gap.shape)  # eps_pred + coef * (gap - low), in the gap's buffer
        gap *= coef
        gap += eps_pred
        eps = _freeze(gap)
        del gap, eps_pred
        _read_objectives(traces, low)
        del low
    return eps, runs.given(traces)


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
    runs' configs on the one reference, which must share n_iters, eta and
    num_steps; x0 is then the stack, with a list of B traces, both in the
    order given.  A single run is the stack of one.  Only here may the runs
    of a stack start at different levels: each grid is a suffix of the
    longest (ddim_grid filters one list).  Every row is drawn, calibrated at
    its own start (n_iters calls for the whole stack) and noised to it
    together; the rows then join the reverse pass in decreasing order of
    start, and the stack runs the pass down to the next start, one call per
    step.  Each row draws its step noise from its own stream, so it steps as
    it would alone.  Each start's first step is taken here, and its estimate
    gives the joining rows' last objective at once; the rest of the pass down
    to the next start goes to denoise_from.
    """
    cals, samps = _Runs(cfg), _Runs(sampler)
    if (cals.stacked, len(cals)) != (samps.stacked, len(samps)):
        raise ValueError(
            "cfg and sampler must be one run's configs or two sequences of one length, "
            f"got {len(cals)} calibration and {len(samps)} sampler configs"
        )
    num_steps = _shared(samps, "num_steps")
    _shared(samps, "eta")  # a stack of mixed eta fails before calibration spends its calls
    grids = [ddim_grid(s, num_steps, cal.t0) for cal in cals]
    order = sorted(range(len(cals)), key=lambda b: -grids[b][0])  # stable
    stack = [replace(cals[b], t0=grids[b][0]) for b in order]
    t0s = [cal.t0 for cal in stack]  # nonincreasing, so each start's rows follow the last's
    eps, traces = calibrate_noise(
        x_ref, gaussian_noise((len(stack),) + x_ref.shape, [cal.rng for cal in stack]), stack, d, s
    )
    x_t0 = forward_noise(np.broadcast_to(x_ref, eps.shape), t0s, eps, s)
    del eps  # the rows are noised
    nus = [cal.nu for cal in stack]
    starts = sorted(set(t0s), reverse=True)
    flight, lo = [], 0  # the one reference to the stack in flight: a step or a pass takes it out
    for t0, stop in zip(starts, starts[1:] + [0]):
        hi = lo + t0s.count(t0)  # this start's rows join those in flight
        flight.append(x_t0[lo:hi])
        if hi == len(t0s):
            del x_t0  # every row is in flight
        if lo:
            flight = [_freeze(np.concatenate(flight))]
        rest = [t for t in grids[order[0]] if stop < t < t0]  # the pass after the step from t0
        runs = [samps[b] for b in order[:hi]]
        x, x0_hat = ddim_step(flight.pop(), t0, rest[0] if rest else stop, d, s, runs)
        flight.append(x)
        del x
        # the first sampling evaluation doubles as the joining rows' final objective reading
        gap = x0_hat[lo:] - x_ref
        del x0_hat
        low = _low_pass_rows(gap, nus[lo:hi])
        del gap
        _read_objectives(traces[lo:hi], low)
        del low
        if rest:  # a pass split at a grid step is the whole pass
            flight.append(denoise_from(flight.pop(), rest, d, s, runs, stop))
        lo = hi
    x = flight.pop()
    for b, trace in zip(order, traces):
        trace.sampling_calls = len(grids[b])
    if order != sorted(order):  # back to the order given
        back = np.argsort(order)
        x, traces = _freeze(x[back]), [traces[i] for i in back]
    return cals.given(x), cals.given(traces)
