"""Consistency and detail metrics for enhancement outputs.

metric_report is the one scorer: it gives every field of a MetricReport for
a candidate against a reference, in the tensors' own value space (frames in
[0, 1]; no report scaling is applied).  It also scores a stack of
candidates (B, F, C, H, W) against one reference in one call, and each of
its B reports has the bytes of that row's report alone.  Its frames must fit
SSIM's 11x11 window; mse_low(a, b, nu) is the one pairwise band metric, and
at nu=1 it is the plain MSE of frames of any size.

A report's working set is the difference of its videos and that
difference's low band: the squares of both go into the difference's buffer.
SSIM works through chunks of (frame, channel) pairs in two buffers allocated
once per call, a stack of maps of at most _STACK_BYTES and one filter output
of about its size, and runs its formula in place in them; spatial_frequency
differences at most _DIFF_BYTES of frames (two at least) at a time.  So
neither pass grows with the frame count, and on 48x3x64x64 videos a report's
traced peak, 2.42x the candidate's bytes, is set by the band split.

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
# at least one.  An SSIM pass holds that stack and one GEMV output of about
# its size, both allocated once per call and reused by every chunk, so its
# working set is about twice this, whatever the frame count.  Chosen by the
# time of one pass on the benchmark's frames (2-vCPU Xeon VM, OpenBLAS on 2
# threads; 256 KiB / 512 KiB / 1 MiB, ranges over 2 runs of 40 passes):
# 48x3x64x64 took 23-25 / 18.3-18.5 / 18.2-19.3 ms, a 24x4x1x16x16 stack
# 0.68-0.69 / 0.57-0.63 / 0.57-0.70 ms, and 8x1x128x128, one pair a chunk
# at all three, 4.3-4.6 ms; 1 MiB would double the working set for nothing.
_STACK_BYTES = 512 * 1024

# spatial_frequency differences chunks of at most this many bytes of input,
# two frames at least, so its working set does not grow with the frame count
_DIFF_BYTES = 128 * 1024


def _filter_rows(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Valid 11-tap Gaussian filter along axis -2 of s, into a prefix of the
    flat buffer out: (..., H, W) -> (..., H-10, W).  One GEMV per output
    row, on the (W, 11) view of that row's windows."""
    *lead, height, width = s.shape
    rows = out[: s.size // height * (height - _SSIM_WINDOW + 1)]
    rows = rows.reshape(*lead, height - _SSIM_WINDOW + 1, width)
    np.matmul(sliding_window_view(s, _SSIM_WINDOW, axis=-2), _KERNEL, out=rows)
    return rows


def _swapped(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x with its last two axes swapped, copied in C order into a prefix of
    the flat buffer out."""
    swapped = out[: x.size].reshape(*x.shape[:-2], x.shape[-1], x.shape[-2])
    np.copyto(swapped, np.swapaxes(x, -1, -2))
    return swapped


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
    pairs, which may span rows, are filtered as one stack, and the SSIM
    formula runs in place on the filtered maps, each operation in the order
    of its textbook form (2*mu_x*mu_y is taken as 2*(mu_x*mu_y), the same
    bits, since doubling is exact).
    """
    check_ssim_window(b.shape)
    height, width = b.shape[-2:]
    xs = a.reshape(-1, height, width)  # a view of a C-order video or stack
    ys = b.reshape(-1, height, width)
    chunk = min(len(xs), max(1, _STACK_BYTES // (5 * xs[0].nbytes)))
    stack_buf = np.empty(5 * chunk * height * width)
    gemv_buf = np.empty(5 * chunk * (height - _SSIM_WINDOW + 1) * width)
    means = np.empty(len(xs))
    for start in range(0, len(xs), chunk):
        stop = min(start + chunk, len(xs))
        stack = stack_buf[: 5 * (stop - start) * height * width].reshape(5, -1, height, width)
        x, y = stack[0], stack[1]
        np.copyto(x, xs[start:stop])
        np.take(ys, range(start, stop), axis=0, out=y, mode="wrap")  # b's pairs, row after row
        np.multiply(x, x, out=stack[2])
        np.multiply(y, y, out=stack[3])
        np.multiply(x, y, out=stack[4])
        # the second pass filters along W, so each map comes out transposed,
        # (W-10, H-10); the formula is elementwise, and only its result is
        # swapped back for the mean
        cols = _swapped(_filter_rows(stack, gemv_buf), stack_buf)
        mu_x, mu_y, var_x, var_y, cov = _filter_rows(cols, gemv_buf)
        ratio = stack_buf[: mu_x.size].reshape(mu_x.shape)
        np.multiply(mu_x, mu_y, out=ratio)
        np.subtract(cov, ratio, out=cov)  # xy - mu_x*mu_y
        np.multiply(mu_x, mu_x, out=mu_x)
        np.multiply(mu_y, mu_y, out=mu_y)
        np.subtract(var_x, mu_x, out=var_x)  # xx - mu_x*mu_x
        np.subtract(var_y, mu_y, out=var_y)  # yy - mu_y*mu_y
        np.multiply(ratio, 2.0, out=ratio)  # num = (2 mu_x mu_y + C1) * (2 cov + C2)
        np.add(ratio, _SSIM_C1, out=ratio)
        np.multiply(cov, 2.0, out=cov)
        np.add(cov, _SSIM_C2, out=cov)
        np.multiply(ratio, cov, out=ratio)
        np.add(mu_x, mu_y, out=mu_x)  # den = (mu_x^2 + mu_y^2 + C1) * (var_x + var_y + C2)
        np.add(mu_x, _SSIM_C1, out=mu_x)
        np.add(var_x, var_y, out=var_x)
        np.add(var_x, _SSIM_C2, out=var_x)
        np.multiply(mu_x, var_x, out=mu_x)
        np.divide(ratio, mu_x, out=ratio)
        means[start:stop] = np.mean(_swapped(ratio, stack_buf[ratio.size :]), axis=(1, 2))
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
    (boundary rows/columns contribute zero); 1x1 frames give 0.  The
    differences are taken a chunk of frames at a time, and each chunk's sums
    fill its rows of the (F, C) sums, so no video-sized difference is built.
    Every chunk holds the same number of frames, two at least, so the last
    one may overlap its predecessor: numpy's einsum sums a lone plane of
    more than 8192 values in pieces but each plane of a larger chunk whole,
    so a chunk of one plane would move the last bits.
    """
    frames, _, height, width = x.shape
    n = float(height * width)
    sums = np.empty((2,) + x.shape[:2])  # horizontal and vertical, (F, C) each
    step = min(frames, max(2, _DIFF_BYTES // x[0].nbytes))
    for stop in range(step, frames + step, step):
        lo = min(stop, frames) - step
        for axis, out in ((3, sums[0]), (2, sums[1])):
            d = np.diff(x[lo : lo + step], axis=axis)
            np.einsum("fchw,fchw->fc", d, d, out=out[lo : lo + step])
            del d  # gone before the next difference is taken
    rf_sq, cf_sq = sums / n
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
    low = low_pass(diff, _MSE_LOW_NU)
    np.multiply(diff, diff, out=diff)  # low_pass has read diff; squares go into its buffer
    mses = np.mean(diff, axis=(1, 2, 3, 4))
    np.multiply(low, low, out=diff)
    mse_lows = np.mean(diff, axis=(1, 2, 3, 4))
    del diff, low
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
