"""Consistency and detail metrics for enhancement outputs.

All metrics operate in the tensors' own value space (frames in [0, 1]);
no report scaling is applied.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frequency import low_pass
from .tensor import VideoTensor, _require_same_shape

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01) ** 2  # (K1 * L)^2 with dynamic range L = 1
_SSIM_C2 = (0.03) ** 2


@dataclass(frozen=True)
class MetricReport:
    """One row of the evaluation suite for a (candidate, reference) pair."""

    mse: float
    mse_low: float
    ssim: float
    sf_a: float
    sf_b: float
    d_sf: float  # detail gain: sf_a - sf_b

    CSV_HEADER = "mse,mse_low,ssim,sf_a,sf_b,d_sf"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_csv_row(self) -> str:
        return ",".join(repr(v) for v in astuple(self))


def mse(a: VideoTensor, b: VideoTensor) -> float:
    """Mean squared elementwise difference over all elements."""
    _require_same_shape(a, b)
    diff = a - b
    return float(np.mean(diff * diff))


def mse_low(a: VideoTensor, b: VideoTensor, nu: float = 0.5) -> float:
    """Mean squared difference restricted to the low-frequency band."""
    _require_same_shape(a, b)
    diff = low_pass(a - b, nu)
    return float(np.mean(diff * diff))


def _gaussian_kernel() -> np.ndarray:
    half = (_SSIM_WINDOW - 1) / 2.0
    u = np.arange(_SSIM_WINDOW, dtype=np.float64) - half
    k = np.exp(-(u * u) / (2.0 * _SSIM_SIGMA**2))
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _filter_valid(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian filter, valid mode: (H, W) -> (H-10, W-10)."""
    out = sliding_window_view(img, _SSIM_WINDOW, axis=0) @ _KERNEL
    return sliding_window_view(out, _SSIM_WINDOW, axis=1) @ _KERNEL


def ssim(a: VideoTensor, b: VideoTensor) -> float:
    """Mean structural similarity with the standard 11x11 Gaussian window.

    Computed per frame and channel over valid window positions, then
    averaged; expects values in [0, 1] (dynamic range 1).
    """
    _require_same_shape(a, b)
    frames, channels, height, width = a.shape
    if height < _SSIM_WINDOW or width < _SSIM_WINDOW:
        raise ValueError(
            f"frames are {height}x{width}; the {_SSIM_WINDOW}x{_SSIM_WINDOW} window does not fit"
        )
    total = 0.0
    for f in range(frames):
        for c in range(channels):
            x, y = a[f, c], b[f, c]
            mu_x = _filter_valid(x)
            mu_y = _filter_valid(y)
            var_x = _filter_valid(x * x) - mu_x * mu_x
            var_y = _filter_valid(y * y) - mu_y * mu_y
            cov = _filter_valid(x * y) - mu_x * mu_y
            num = (2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
            den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
            total += float(np.mean(num / den))
    return total / (frames * channels)


def spatial_frequency(x: VideoTensor) -> float:
    """RMS of horizontal and vertical neighbor differences, per frame/channel.

    Sums of squared differences are normalized by the full H*W pixel count
    (boundary rows/columns contribute zero); 1x1 frames give 0.
    """
    frames, channels, height, width = x.shape
    n = float(height * width)
    row_diff = np.diff(x, axis=3)  # horizontal neighbors
    col_diff = np.diff(x, axis=2)  # vertical neighbors
    rf_sq = np.sum(row_diff * row_diff, axis=(2, 3)) / n  # (F, C)
    cf_sq = np.sum(col_diff * col_diff, axis=(2, 3)) / n
    return float(np.mean(np.sqrt(rf_sq + cf_sq)))


def metric_report(a: VideoTensor, b: VideoTensor) -> MetricReport:
    """Full suite for candidate a against reference b."""
    sf_a = spatial_frequency(a)
    sf_b = spatial_frequency(b)
    return MetricReport(
        mse=mse(a, b),
        mse_low=mse_low(a, b),
        ssim=ssim(a, b),
        sf_a=sf_a,
        sf_b=sf_b,
        d_sf=sf_a - sf_b,
    )
