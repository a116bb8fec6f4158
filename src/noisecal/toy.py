"""Synthetic desk-scale data: band-limited random fields and closed-form
denoisers over them.

The benchmark setup mirrors the enhancement problem at toy size: the model
knows a small dataset of sharp textured fields, and the reference to enhance
is a blurry field from the same family.  The exact Bayes denoiser for the
dataset (plus a small isotropic variance so the model is a density rather
than a point set) is closed-form, so enhancement quality is measurable
without training.

Amplitudes sit well inside [0, 1]: the calibration map's contraction factor
scales with the data spread, and full-range fields at moderate noise levels
push it past the stable region.
"""

from __future__ import annotations

import numpy as np

from .denoiser import GmmDenoiser
from .frequency import low_pass
from .schedule import NoiseSchedule, linear_beta_schedule
from .tensor import RngSeed, VideoTensor, _freeze, gaussian_noise


def band_limited_field(
    shape: tuple[int, int, int, int],
    rng: RngSeed,
    cutoff: float = 0.65,
    lo: float = 0.25,
    hi: float = 0.75,
) -> VideoTensor:
    """Random field with spectrum confined below `cutoff`, rescaled to [lo, hi]."""
    return blurred(gaussian_noise(shape, rng), cutoff, lo, hi)


def blurred(x: VideoTensor, cutoff: float = 0.2, lo: float = 0.25, hi: float = 0.75) -> VideoTensor:
    """Low-passed copy of x, rescaled back to [lo, hi]."""
    field = low_pass(x, cutoff)
    f_lo, f_hi = float(field.min()), float(field.max())
    if f_hi - f_lo < 1e-12:
        return _freeze(np.full(x.shape, (lo + hi) / 2.0))
    return _freeze(lo + (hi - lo) * (field - f_lo) / (f_hi - f_lo))


def toy_schedule() -> NoiseSchedule:
    """Gentle schedule for 16x16 toys: keeps roughly half the signal at
    t=600 so mid-range start levels carry usable signal."""
    return linear_beta_schedule(1000, 1e-5, 2e-3)


def toy_benchmark(
    rng: RngSeed,
    n_dataset: int = 16,
    shape: tuple[int, int, int, int] = (1, 1, 16, 16),
    sigma2: float = 0.03,
    sharp_cutoff: float = 0.65,
    blur_cutoff: float = 0.2,
) -> tuple[GmmDenoiser, VideoTensor]:
    """Standard toy pair: mixture denoiser over sharp fields plus a blurry
    held-out reference from the same family.

    sigma2 > 0 keeps the model a density: without it the reverse chain
    terminates exactly on a dataset point and enhancement differences
    collapse.  sigma2 = 0 gives the empirical denoiser.
    """
    fields = [
        band_limited_field(shape, rng.substream(1).substream(i), sharp_cutoff)
        for i in range(n_dataset)
    ]
    d = GmmDenoiser([(1.0 / n_dataset, f, sigma2) for f in fields])
    reference = blurred(band_limited_field(shape, rng.substream(2), sharp_cutoff), blur_cutoff)
    return d, reference
