"""Consistency and detail metrics for enhancement outputs.

metric_report is the one scorer: it gives every field of a MetricReport for
a candidate against a reference, in the tensors' own value space (frames in
[0, 1]; no report scaling is applied).  It also scores a stack of
candidates (B, F, C, H, W) against one reference in one call, and each of
its B reports has the bytes of that row's report alone.  Its frames must fit
SSIM's 11x11 window; mse_low(a, b, nu) is the one pairwise band metric, and
at nu=1 it is the plain MSE of frames of any size.

SSIM's Gaussian filter runs as per-row BLAS matrix-vector products (GEMV),
never as a matrix-matrix product (GEMM).  A banded-matrix GEMM filter is
faster, but its bits change between OPENBLAS_NUM_THREADS=1 and 2 from 96x96
frames up; each GEMV output is one 11-tap dot whatever the thread count, so
the metric's bits do not depend on it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frequency import low_pass
from .tensor import VideoTensor, _require_same_shape

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01) ** 2  # (K1 * L)^2 with dynamic range L = 1
_SSIM_C2 = (0.03) ** 2
_MSE_LOW_NU = 0.5  # band cutoff of mse_low and of metric_report's mse_low


@dataclass(frozen=True)
class MetricReport:
    """One row of the evaluation suite for a (candidate, reference) pair."""

    mse: float
    mse_low: float
    # mean SSIM with the standard 11x11 Gaussian window (sigma 1.5) over valid
    # positions, per frame and channel, averaged in frame-major order;
    # dynamic range 1, so values are expected in [0, 1]
    ssim: float
    sf_a: float
    sf_b: float
    d_sf: float  # detail gain: sf_a - sf_b

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def mse_low(a: VideoTensor, b: VideoTensor, nu: float = _MSE_LOW_NU) -> float:
    """Mean squared difference restricted to the low-frequency band; at nu=1
    the band is every bin, no FFT runs, and this is the plain MSE."""
    _require_same_shape(a, b)
    diff = low_pass(a - b, nu)
    return float(np.mean(diff * diff))


def _gaussian_kernel() -> np.ndarray:
    half = (_SSIM_WINDOW - 1) / 2.0
    u = np.arange(_SSIM_WINDOW, dtype=np.float64) - half
    k = np.exp(-(u * u) / (2.0 * _SSIM_SIGMA**2))
    return k / k.sum()


_KERNEL = _gaussian_kernel()


# Bytes of one chunk's (5, k, H, W) stack of maps: k (frame, channel) pairs,
# at least one, so the working set stays in cache and memory does not grow
# with the frame count.
_STACK_BYTES = 256 * 1024


def _filter_rows(s: np.ndarray) -> np.ndarray:
    """Valid 11-tap Gaussian filter along axis -2, returned with the last two
    axes swapped, in C order: (..., H, W) -> (..., W, H-10).  Twice gives
    the valid 2-D filter, (..., H, W) -> (..., H-10, W-10).  A pass is one
    GEMV per output row, on the (W, 11) view of that row's windows."""
    out = sliding_window_view(s, _SSIM_WINDOW, axis=-2) @ _KERNEL
    return np.ascontiguousarray(np.swapaxes(out, -1, -2))


def check_ssim_window(shape: tuple[int, ...]) -> None:
    """Raise ValueError when frames of `shape` (..., H, W) are smaller than
    SSIM's window; the CLI checks its input here before any run starts."""
    height, width = shape[-2:]
    if height < _SSIM_WINDOW or width < _SSIM_WINDOW:
        raise ValueError(
            f"frames are {height}x{width}; the {_SSIM_WINDOW}x{_SSIM_WINDOW} window does not fit"
        )


def _ssim_plane_means(a: np.ndarray, b: VideoTensor) -> np.ndarray:
    """Mean SSIM map of each (frame, channel) pair of a against b, in C order.

    a is a stack of videos of b's shape: the pairs of each row are compared
    with b's pairs in turn.  The maps x, y, x*x, y*y and x*y of a chunk of
    pairs, which may span rows, are filtered as one stack.
    """
    check_ssim_window(b.shape)
    height, width = b.shape[-2:]
    xs = a.reshape(-1, height, width)  # a view of a C-order video or stack
    ys = b.reshape(-1, height, width)
    chunk = max(1, _STACK_BYTES // (5 * xs[0].nbytes))
    means = np.empty(len(xs))
    for start in range(0, len(xs), chunk):
        stop = min(start + chunk, len(xs))
        stack = np.empty((5, stop - start, height, width))
        x, y = stack[0], stack[1]
        x[...] = xs[start:stop]
        np.take(ys, range(start, stop), axis=0, out=y, mode="wrap")  # b's pairs, row after row
        np.multiply(x, x, out=stack[2])
        np.multiply(y, y, out=stack[3])
        np.multiply(x, y, out=stack[4])
        mu_x, mu_y, xx, yy, xy = _filter_rows(_filter_rows(stack))
        var_x = xx - mu_x * mu_x
        var_y = yy - mu_y * mu_y
        cov = xy - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
        means[start:stop] = np.mean(num / den, axis=(1, 2))
    return means


def _mean_in_order(means: np.ndarray) -> float:
    """Mean of a run's pair means, summed one by one in frame-major order."""
    total = 0.0
    for mean in means:
        total += float(mean)
    return total / len(means)


def spatial_frequency(x: VideoTensor) -> float:
    """RMS of horizontal and vertical neighbor differences, per frame/channel.

    Sums of squared differences are normalized by the full H*W pixel count
    (boundary rows/columns contribute zero); 1x1 frames give 0.
    """
    height, width = x.shape[-2:]
    n = float(height * width)
    row_diff = np.diff(x, axis=3)  # horizontal neighbors
    col_diff = np.diff(x, axis=2)  # vertical neighbors
    rf_sq = np.einsum("fchw,fchw->fc", row_diff, row_diff) / n  # (F, C)
    cf_sq = np.einsum("fchw,fchw->fc", col_diff, col_diff) / n
    return float(np.mean(np.sqrt(rf_sq + cf_sq)))


def metric_report(a: np.ndarray, b: VideoTensor) -> MetricReport | list[MetricReport]:
    """Full suite for candidate a against reference b.

    a may also be a stack (B, F, C, H, W) of candidates for the one
    reference; then a list of B reports comes back, each the report of its
    row alone.  The stack shares one difference, one mse and one mse_low
    reduction, one band filter, one pass of every row's SSIM pairs and one
    sf_b; sf_a is computed row by row.
    """
    rows = a if a.ndim == 5 else a[None]  # a run is the stack of one
    _require_same_shape(rows[0], b)
    diff = rows - b
    mses = np.mean(diff * diff, axis=(1, 2, 3, 4))
    low = low_pass(diff, _MSE_LOW_NU)
    del diff
    mse_lows = np.mean(low * low, axis=(1, 2, 3, 4))
    del low
    ssims = _ssim_plane_means(rows, b).reshape(len(rows), -1)
    sf_b = spatial_frequency(b)
    reports = []
    for row, row_mse, row_mse_low, row_ssims in zip(rows, mses, mse_lows, ssims):
        sf_a = spatial_frequency(row)
        reports.append(
            MetricReport(
                mse=float(row_mse),
                mse_low=float(row_mse_low),
                ssim=_mean_in_order(row_ssims),
                sf_a=sf_a,
                sf_b=sf_b,
                d_sf=sf_a - sf_b,
            )
        )
    return reports if a.ndim == 5 else reports[0]
