"""Forward noising and reverse sampling.

The reverse direction has one step, ddim_step, over an arbitrary timestep
gap; its noise scale is eta * the largest variance consistent with the
marginals, for eta in [0, 1].  eta=0 is the deterministic limit, and eta=1
on consecutive steps is the DDPM ancestral step.  A step to t_prev=0 returns
its clean estimate itself as the iterate, so every reverse pass, the full
ancestral chain included, is denoise_from over a grid; a pass stopped at a
grid step and continued from there is the whole pass.  Each stage builds its
result in a buffer it owns, and a step drops its input once its estimate is
made, so a pass holds one iterate between steps.

Every function here takes one run (F, C, H, W) or a stack of runs
(B, F, C, H, W) that step together; each run of a stack draws from its own
streams, so its bytes are those it has alone.  forward_noise and
estimate_x0 also take a timestep per row of a stack, as the denoiser does;
ddim_step and denoise_from step the whole stack at one level.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser
from .schedule import NoiseSchedule
from .tensor import (
    RngSeed,
    VideoTensor,
    _freeze,
    _normal,
    _require_same_shape,
    _Runs,
    _shared,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-pass parameters: stochasticity, step budget, seed.
    ddim_grid checks the step budget against the schedule."""

    eta: float
    num_steps: int
    rng: RngSeed

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


def forward_noise(x0: VideoTensor, t, eps: VideoTensor, s: NoiseSchedule) -> VideoTensor:
    """Noise a clean tensor to level t: signal_scale(t)*x0 + noise_scale(t)*eps.
    A stack's t is one int or a timestep per row."""
    _require_same_shape(x0, eps)
    s._check_t(t, low=0, shape=x0.shape)
    out = s.noise_scale(t) * eps  # addition commutes: the bytes of the signal term plus the noise's
    out += s.signal_scale(t) * x0
    return _freeze(out)


def estimate_x0(x_t: VideoTensor, t, eps_pred: VideoTensor, s: NoiseSchedule) -> VideoTensor:
    """One-shot clean estimate: invert forward_noise given the predicted noise.
    A stack's t is one int or a timestep per row."""
    _require_same_shape(x_t, eps_pred)
    s._check_t(t, shape=x_t.shape)  # t=0 carries no noise to remove
    x0 = s.noise_scale(t) * eps_pred  # (x_t - noise_scale * eps) / signal_scale in one buffer
    np.subtract(x_t, x0, out=x0)
    x0 /= s.signal_scale(t)
    return _freeze(x0)


def _one_level(*levels) -> None:
    """The reverse pass steps a whole stack at one level: no timestep per row."""
    for t in levels:
        if isinstance(t, (list, tuple)):
            raise ValueError(f"the reverse pass steps the whole stack at one level per step: {t!r}")


def ddim_step(
    x_t: VideoTensor,
    t: int,
    t_prev: int,
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig | Sequence[SamplerConfig],
) -> tuple[VideoTensor, VideoTensor]:
    """Generalized reverse step t -> t_prev across an arbitrary gap.

    Returns the iterate at t_prev and the clean estimate x0_hat at t that the
    step is built on.  At t_prev=0 both noise terms vanish: the iterate is
    x0_hat itself and no noise is drawn.  cfg is one SamplerConfig for a run,
    or one per row for a stack; the runs of a stack share eta.  Per-step noise
    draws use substreams keyed by timestep, rng.substream(t) for each run, so
    the step budget does not reshuffle unrelated draws.  x_t goes once the
    estimate is made, so a caller that hands over its only reference holds no
    input through the update.
    """
    _one_level(t, t_prev)
    s._check_t(t)
    if not 0 <= t_prev < t:
        raise ValueError(f"need 0 <= t_prev < t, got t_prev={t_prev}, t={t}")
    runs = _Runs(cfg)
    runs.run_shape(x_t.shape)
    eta = _shared(runs, "eta")
    abar_t = float(s.alpha_bar[t])
    abar_prev = float(s.alpha_bar[t_prev])
    eps = d.predict_eps(x_t, t, s)
    x0_hat = estimate_x0(x_t, t, eps, s)
    shape = x_t.shape
    del x_t
    if t_prev == 0:  # alpha_bar[0] is exactly 1, and 1.0 * x0_hat is x0_hat
        return x0_hat, x0_hat
    sigma = (
        eta
        * np.sqrt((1.0 - abar_prev) / (1.0 - abar_t))
        * np.sqrt(1.0 - abar_t / abar_prev)
    )
    residual_var = 1.0 - abar_prev - sigma**2  # >= 0 for eta <= 1, up to roundoff
    if residual_var > 0:  # addition commutes: these are the bytes of x0's term plus eps's
        out = np.sqrt(residual_var) * eps
        del eps
        out += np.sqrt(abar_prev) * x0_hat
    else:
        del eps
        out = np.sqrt(abar_prev) * x0_hat
    if sigma > 0:
        noise = _normal(shape, runs.given([run.rng.substream(t) for run in runs]))
        noise *= sigma
        out += noise
    return _freeze(out), x0_hat


def denoise_from(
    x_t0: VideoTensor,
    grid: list[int],
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig | Sequence[SamplerConfig],
    stop: int = 0,
) -> VideoTensor:
    """Run the reverse pass along a nonempty decreasing timestep grid to stop.

    Steps pairwise along the grid and then from its smallest timestep to
    stop, below it; at stop=0 that lands on the step's clean estimate.  The
    pass along grid[:k] to stop=grid[k], continued along grid[k:], is the
    whole pass, since each step keys its draws by its own timestep.  Exactly
    one denoiser evaluation per grid entry.

    cfg is ddim_step's: one SamplerConfig for a run, or one per row for a
    stack.  Returns the iterate at stop.  Each step takes the only reference
    this function holds to its input, so a caller that hands over its own
    holds one iterate between steps.
    """
    if not grid:
        raise ValueError("denoise_from needs a nonempty timestep grid")
    _one_level(*grid, stop)
    flight = [x_t0]  # the one reference to the iterate: a step takes it out
    del x_t0
    for t, t_prev in zip(grid, grid[1:] + [stop]):
        flight.append(ddim_step(flight.pop(), t, t_prev, d, s, cfg)[0])
    return flight.pop()
