"""Forward noising and reverse sampling.

The reverse direction has one step, ddim_step, over an arbitrary timestep
gap; its noise scale is eta * the largest variance consistent with the
marginals.  eta=0 is the deterministic limit, and eta=1 on consecutive
steps is the DDPM ancestral step.  A step to t_prev=0 lands on its clean
estimate, so every reverse pass, the full ancestral chain included, is
denoise_from over a grid.

Every function here takes one run (F, C, H, W) or a stack of runs
(B, F, C, H, W) that step together; each run of a stack draws from its own
streams, so its bytes are those it has alone.
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
    _require_same_shape,
    _Runs,
    _shared,
    gaussian_noise,
)


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-pass parameters: stochasticity, step budget, seed."""

    eta: float
    num_steps: int
    rng: RngSeed

    def __post_init__(self) -> None:
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")


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


def ddim_step(
    x_t: VideoTensor,
    t: int,
    t_prev: int,
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig,
    rng: RngSeed | Sequence[RngSeed],
) -> tuple[VideoTensor, VideoTensor]:
    """Generalized reverse step t -> t_prev across an arbitrary gap.

    Returns the iterate at t_prev and the clean estimate x0_hat at t that the
    step is built on.  At t_prev=0 both noise terms vanish: the iterate is
    x0_hat and no noise is drawn.  rng is one RngSeed for a run, or one per
    row for a stack; every row steps with cfg.eta.
    """
    s._check_t(t)
    if not 0 <= t_prev < t:
        raise ValueError(f"need 0 <= t_prev < t, got t_prev={t_prev}, t={t}")
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
    out = np.sqrt(abar_prev) * x0_hat
    if residual_var > 0:
        out = out + np.sqrt(residual_var) * eps
    if sigma > 0:
        out = out + sigma * gaussian_noise(x_t.shape, rng)
    return _freeze(out), x0_hat


def denoise_from(
    x_t0: VideoTensor,
    grid: list[int],
    d: Denoiser,
    s: NoiseSchedule,
    cfg: SamplerConfig | Sequence[SamplerConfig],
) -> tuple[VideoTensor, VideoTensor]:
    """Run the reverse pass along a nonempty decreasing timestep grid to t=0.

    Steps pairwise along the grid and then from its smallest timestep to 0,
    which lands on that step's clean estimate.  Per-step noise draws use
    substreams keyed by timestep, so the step budget does not reshuffle
    unrelated draws.  Exactly one denoiser evaluation per grid entry.

    cfg is one SamplerConfig for a run, or one per row for a stack; the runs
    of a stack share eta.  Returns the clean output and the clean estimate
    from the first denoiser evaluation, which costs nothing extra.
    """
    if not grid:
        raise ValueError("denoise_from needs a nonempty timestep grid")
    runs = _Runs(cfg)
    runs.run_shape(x_t0.shape)
    _shared(runs, "eta")  # so that runs[0] steps for all of them
    x, first_x0_hat = x_t0, None
    for t, t_prev in zip(grid, grid[1:] + [0]):
        rng = runs.given([run.rng.substream(t) for run in runs])
        x, x0_hat = ddim_step(x, t, t_prev, d, s, runs[0], rng)
        if first_x0_hat is None:
            first_x0_hat = x0_hat
    return x, first_x0_hat
