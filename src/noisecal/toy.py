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


def band_limited_field(shape: tuple[int, int, int, int], rng: RngSeed) -> VideoTensor:
    """Random field with spectrum confined below 0.65, rescaled to [0.25, 0.75]."""
    return blurred(gaussian_noise(shape, rng), 0.65)


def blurred(x: VideoTensor, cutoff: float = 0.2) -> VideoTensor:
    """Low-passed copy of x, rescaled back to [0.25, 0.75]."""
    field = low_pass(x, cutoff)
    f_lo, f_hi = float(field.min()), float(field.max())
    if f_hi - f_lo < 1e-12:
        return _freeze(np.full(x.shape, 0.5))
    return _freeze(0.25 + 0.5 * (field - f_lo) / (f_hi - f_lo))


def toy_schedule() -> NoiseSchedule:
    """Gentle schedule for 16x16 toys: keeps roughly half the signal at
    t=600 so mid-range start levels carry usable signal."""
    return linear_beta_schedule(1000, 1e-5, 2e-3)


def toy_benchmark(rng: RngSeed, sigma2: float = 0.03) -> tuple[GmmDenoiser, VideoTensor]:
    """Standard toy pair: mixture denoiser over 16 sharp one-frame 16x16
    fields plus a blurry held-out reference from the same family.

    sigma2 > 0 keeps the model a density: without it the reverse chain
    terminates exactly on a dataset point and enhancement differences
    collapse.  sigma2 = 0 gives the empirical denoiser.
    """
    shape = (1, 1, 16, 16)
    fields = [band_limited_field(shape, rng.substream(1).substream(i)) for i in range(16)]
    d = GmmDenoiser([(1.0 / 16, f, sigma2) for f in fields])
    reference = blurred(band_limited_field(shape, rng.substream(2)))
    return d, reference
