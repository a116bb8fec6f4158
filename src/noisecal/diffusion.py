"""Forward noising and reverse sampling.

The reverse direction offers a stochastic ancestral step (ddpm_step) and a
generalized step over arbitrary timestep gaps (ddim_step) whose noise scale
is eta * the largest variance consistent with the marginals; eta=0 is the
deterministic limit, eta=1 recovers ancestral sampling on consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Denoiser
from .schedule import NoiseSchedule, TimestepGrid
from .tensor import RngSeed, VideoTensor, _freeze, _require_same_shape


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-pass parameters: stochasticity, step budget, start level, seed."""

    eta: float
    num_steps: int
    t0: int
    rng: RngSeed

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")


def forward_noise(x0: VideoTensor, t: int, eps: VideoTensor, s: NoiseSchedule) -> VideoTensor:
    """Noise a clean tensor to level t: signal_scale(t)*x0 + noise_scale(t)*eps."""
    _require_same_shape(x0, eps)
    s._check_t(t, low=0)
    return _freeze(s.signal_scale(t) * x0 + s.noise_scale(t) * eps)


def estimate_x0(x_t: VideoTensor, t: int, eps_pred: VideoTensor, s: NoiseSchedule) -> VideoTensor:
    """One-shot clean estimate: invert forward_noise given the predicted noise."""
    _require_same_shape(x_t, eps_pred)
    s._check_t(t)  # t=0 carries no noise to remove
    return _freeze((x_t - s.noise_scale(t) * eps_pred) / s.signal_scale(t))


def ddpm_step(
    x_t: VideoTensor, t: int, d: Denoiser, s: NoiseSchedule, rng: RngSeed
) -> VideoTensor:
    """Ancestral reverse step t -> t-1 with the posterior variance."""
    s._check_t(t)
    alpha = s.alpha(t)
    abar_t = float(s.alpha_bar[t])
    abar_prev = float(s.alpha_bar[t - 1])
    eps = d.predict_eps(x_t, t, s)
    mean = (x_t - ((1.0 - alpha) / np.sqrt(1.0 - abar_t)) * eps) / np.sqrt(alpha)
    if t == 1:
        return _freeze(mean)
    var = ((1.0 - abar_prev) / (1.0 - abar_t)) * (1.0 - alpha)
    z = rng.generator().standard_normal(size=x_t.shape, dtype=np.float64)
    return _freeze(mean + np.sqrt(var) * z)


def ddim_step(
    x_t: VideoTensor,
    t: int,
    t_prev: int,
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngSeed,
) -> tuple[VideoTensor, VideoTensor]:
    """Generalized reverse step t -> t_prev across an arbitrary gap.

    Returns the iterate at t_prev and the clean estimate x0_hat at t that the
    step is built on.
    """
    s._check_t(t)
    if not 1 <= t_prev < t:
        raise ValueError(f"need 1 <= t_prev < t, got t_prev={t_prev}, t={t}")
    abar_t = float(s.alpha_bar[t])
    abar_prev = float(s.alpha_bar[t_prev])
    eps = d.predict_eps(x_t, t, s)
    x0_hat = estimate_x0(x_t, t, eps, s)
    sigma = (
        cfg.eta
        * np.sqrt((1.0 - abar_prev) / (1.0 - abar_t))
        * np.sqrt(1.0 - abar_t / abar_prev)
    )
    residual_var = 1.0 - abar_prev - sigma**2
    if residual_var < 0:
        raise ValueError(
            f"eta={cfg.eta} gives sigma^2={sigma**2:.6g} > 1-alpha_bar[{t_prev}]={1.0 - abar_prev:.6g}"
        )
    out = np.sqrt(abar_prev) * x0_hat + np.sqrt(residual_var) * eps
    if cfg.eta > 0 and sigma > 0:
        z = rng.generator().standard_normal(size=x_t.shape, dtype=np.float64)
        out = out + sigma * z
    return _freeze(out), x0_hat


def sdedit_init(x_ref: VideoTensor, t0: int, eps: VideoTensor, s: NoiseSchedule) -> VideoTensor:
    """Noise a reference up to the intermediate start level t0."""
    s._check_t(t0)
    return forward_noise(x_ref, t0, eps, s)


def denoise_from(
    x_t0: VideoTensor,
    grid: TimestepGrid,
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig,
) -> tuple[VideoTensor, VideoTensor | None]:
    """Run the reverse pass along a decreasing timestep grid down to t=0.

    Steps pairwise along the grid, then projects to the clean estimate at the
    smallest grid timestep (no noise injected at the end).  Per-step noise
    draws use substreams keyed by timestep, so the step budget does not
    reshuffle unrelated draws.  Exactly one denoiser evaluation per grid entry.

    Returns the clean output and the clean estimate from the first denoiser
    evaluation, which costs nothing extra.  An empty grid returns
    (x_t0, None).
    """
    if not grid:
        return x_t0, None
    if grid[0] > cfg.t0:
        raise ValueError(f"grid max {grid[0]} exceeds configured t0 {cfg.t0}")
    x, first_x0_hat = x_t0, None
    for t, t_prev in zip(grid, grid[1:]):
        x, x0_hat = ddim_step(x, t, t_prev, d, s, cfg, cfg.rng.substream(t))
        if first_x0_hat is None:
            first_x0_hat = x0_hat
    t_last = grid[-1]
    x0 = estimate_x0(x, t_last, d.predict_eps(x, t_last, s), s)
    return x0, x0 if first_x0_hat is None else first_x0_hat


def ddpm_chain(x_start: VideoTensor, d: Denoiser, s: NoiseSchedule, rng: RngSeed) -> VideoTensor:
    """Full ancestral chain from t=T down to t=0."""
    x = x_start
    for t in range(s.num_steps, 0, -1):
        x = ddpm_step(x, t, d, s, rng.substream(t))
    return x
