"""Consistency and detail metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memory import traced_peak
from noisecal import (
    RngSeed,
    as_video,
    gaussian_noise,
    metric_report,
    mse_low,
)
from noisecal import metrics
from noisecal.metrics import spatial_frequency


SRC = Path(__file__).resolve().parents[1] / "src"


def frame(arr):
    a = np.asarray(arr, dtype=np.float64)
    return as_video(a.reshape((1, 1) + a.shape))


# ---------------------------------------------------------------- mse


def test_mse_zero_on_identical():
    x = gaussian_noise((2, 1, 4, 4), RngSeed(90))
    assert mse_low(x, x, 1.0) == 0.0


def test_mse_unit_example():
    assert mse_low(frame([[0.0, 0.0]]), frame([[1.0, 1.0]]), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_mse_hand_example():
    assert mse_low(frame([[0.0, 2.0]]), frame([[1.0, 0.0]]), 1.0) == pytest.approx(2.5, abs=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_low(frame([[0.0, 1.0]]), frame([[0.0, 1.0, 2.0]]), 1.0)


def test_mse_low_zero_on_identical():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(91))
    assert mse_low(x, x) == 0.0


def test_mse_low_full_band_equals_mse():
    a = gaussian_noise((1, 1, 8, 8), RngSeed(92))
    b = gaussian_noise((1, 1, 8, 8), RngSeed(93))
    assert mse_low(a, b, nu=1.0) == pytest.approx(float(np.mean((a - b) ** 2)), rel=1e-10)


@pytest.mark.parametrize("shape", [(1, 1, 1, 2), (2, 1, 7, 9), (2, 3, 6, 5)])
def test_mse_low_full_band_is_plain_mse_exactly(shape):
    """nu=1 passes every bin, so no FFT runs: the plain MSE, bit for bit."""
    a = gaussian_noise(shape, RngSeed(110, 0))
    b = gaussian_noise(shape, RngSeed(110, 1))
    assert mse_low(a, b, 1.0) == np.mean((a - b) ** 2)


def test_mse_low_ignores_nyquist_difference():
    # difference living entirely above the nu=0.5 box is filtered out
    base = gaussian_noise((1, 1, 8, 8), RngSeed(94))
    texture = np.cos(np.pi * np.arange(8))[None, None, None, :] * np.ones((1, 1, 8, 1))
    assert mse_low(base, as_video(base + texture), nu=0.5) == pytest.approx(0.0, abs=1e-12)
    assert mse_low(base, as_video(base + texture), 1.0) > 0.1


# ---------------------------------------------------------------- ssim


def test_ssim_identity():
    x = gaussian_noise((1, 1, 16, 16), RngSeed(95))
    assert metric_report(x, x).ssim == pytest.approx(1.0, abs=1e-9)


def test_ssim_constant_frames_hand_value():
    # zero variance: contrast/structure terms are 1, luminance term gives
    # (2*0.125 + 1e-4) / (0.3125 + 1e-4)
    a = as_video(np.full((1, 1, 12, 12), 0.5))
    b = as_video(np.full((1, 1, 12, 12), 0.25))
    expected = (2 * 0.5 * 0.25 + 1e-4) / (0.5**2 + 0.25**2 + 1e-4)
    assert expected == pytest.approx(0.80006, abs=1e-4)
    assert metric_report(a, b).ssim == pytest.approx(expected, abs=1e-9)


def test_ssim_below_one_for_inverted_signal():
    rng = RngSeed(96)
    a = as_video((gaussian_noise((1, 1, 16, 16), rng) * 0.2 + 0.5).clip(0, 1))
    b = as_video(1.0 - a)
    assert metric_report(a, b).ssim < 1.0


def test_ssim_symmetry():
    a = gaussian_noise((1, 1, 16, 16), RngSeed(97)) * 0.1 + 0.5
    b = gaussian_noise((1, 1, 16, 16), RngSeed(98)) * 0.1 + 0.5
    assert metric_report(as_video(a), as_video(b)).ssim == pytest.approx(
        metric_report(as_video(b), as_video(a)).ssim, abs=1e-10
    )


def test_ssim_window_must_fit():
    a = gaussian_noise((1, 1, 10, 16), RngSeed(99))
    with pytest.raises(ValueError, match="window"):
        metric_report(a, a)


_SSIM_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from noisecal import RngSeed, gaussian_noise, metric_report
for shape in ((2, 1, 40, 900), (1, 3, 900, 40)):
    a, b = (gaussian_noise(shape, RngSeed(108, k)) * 0.2 + 0.5 for k in (0, 1))
    print(repr(metric_report(a, b).ssim))
"""


def test_ssim_bits_do_not_depend_on_blas_threads():
    """Rows of 900 pixels are long enough for OpenBLAS to use both threads;
    the filter's per-row GEMVs give the same bits either way (a GEMM need not)."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _SSIM_PROBE, str(SRC)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def test_ssim_peak_memory_does_not_grow_with_frames():
    """Chunks of maps bound the working set of the SSIM pass: 16 frames peak
    like 2.  (metric_report's full-size difference and band grow with frames.)"""
    peaks = []
    for frames in (2, 16):
        a, b = (gaussian_noise((frames, 3, 64, 64), RngSeed(109, k)) for k in (0, 1))
        peaks.append(traced_peak(metrics._ssim_plane_means, a[None], b)[0])
    assert peaks[1] <= 1.1 * peaks[0]


def test_metric_report_peak_memory_is_the_difference_and_its_band():
    """A 48x3x64x64 report holds no video-sized array besides the difference
    and its low band: its peak stays within 2.5x the candidate's bytes
    (measured 2.42x; squaring into new arrays reads the same, as the band
    split sets the peak)."""
    a, b = (gaussian_noise((48, 3, 64, 64), RngSeed(111, k)) for k in (0, 1))
    peak, _ = traced_peak(metric_report, a, b)
    assert peak <= 2.5 * a.nbytes


# ---------------------------------------------------------------- sf


def test_sf_peak_memory_does_not_grow_with_frames():
    """Differences are taken a chunk of frames at a time: 48 frames peak like 2
    (differencing whole videos peaks at 24x the 2-frame figure)."""
    peaks = []
    for frames in (2, 48):
        x = gaussian_noise((frames, 3, 64, 64), RngSeed(112))
        peaks.append(traced_peak(spatial_frequency, x)[0])
    assert peaks[1] <= 1.1 * peaks[0]


def test_sf_constant_frame_is_zero():
    assert spatial_frequency(as_video(np.full((2, 3, 5, 5), 0.7))) == 0.0


def test_sf_hand_example():
    # [[0,1],[0,1]]: one unit horizontal step per row, no vertical steps
    assert spatial_frequency(frame([[0.0, 1.0], [0.0, 1.0]])) == pytest.approx(
        np.sqrt(0.5), abs=1e-7
    )


def test_sf_checkerboard_beats_single_edge():
    n = 8
    checker = frame(np.indices((n, n)).sum(axis=0) % 2)
    edge = frame(np.concatenate([np.zeros((n, n // 2)), np.ones((n, n // 2))], axis=1))
    assert spatial_frequency(checker) > spatial_frequency(edge)


def test_sf_translation_invariant():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(100))
    assert spatial_frequency(as_video(x + 3.7)) == pytest.approx(
        spatial_frequency(x), rel=1e-12
    )


def test_sf_degenerate_single_pixel():
    assert spatial_frequency(frame([[0.42]])) == 0.0


def test_d_sf_zero_on_identical():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(101))
    assert spatial_frequency(x) - spatial_frequency(x) == 0.0


def test_d_sf_positive_for_added_texture():
    smooth = as_video(np.full((1, 1, 8, 8), 0.5))
    texture = np.cos(np.pi * np.arange(8))[None, None, None, :] * np.full((1, 1, 8, 1), 0.1)
    assert spatial_frequency(as_video(smooth + texture)) > spatial_frequency(smooth)


# ---------------------------------------------------------------- report


def test_report_fields_and_json():
    a = as_video(gaussian_noise((1, 1, 16, 16), RngSeed(104)) * 0.1 + 0.5)
    b = as_video(gaussian_noise((1, 1, 16, 16), RngSeed(105)) * 0.1 + 0.5)
    rep = metric_report(a, b)
    assert rep.mse == pytest.approx(mse_low(a, b, 1.0))
    assert rep.mse_low == pytest.approx(mse_low(a, b, 0.5))
    assert rep.d_sf == rep.sf_a - rep.sf_b
    parsed = json.loads(rep.to_json())
    assert list(parsed) == ["mse", "mse_low", "ssim", "sf_a", "sf_b", "d_sf"]
    assert parsed["mse"] == rep.mse


# ---------------------------------------------------------------- properties


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_mse_metric_axioms(seed):
    rng = RngSeed(seed)
    a = gaussian_noise((1, 1, 6, 6), rng.substream(0))
    b = gaussian_noise((1, 1, 6, 6), rng.substream(1))
    assert mse_low(a, b, 1.0) >= 0.0
    assert mse_low(a, b, 1.0) == pytest.approx(mse_low(b, a, 1.0), abs=1e-12)
    assert mse_low(a, a, 1.0) <= 1e-12


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
def test_mse_low_never_exceeds_mse(seed, nu):
    rng = RngSeed(seed)
    a = gaussian_noise((1, 1, 8, 8), rng.substream(0))
    b = gaussian_noise((1, 1, 8, 8), rng.substream(1))
    assert mse_low(a, b, nu) <= mse_low(a, b, 1.0) * (1 + 1e-9) + 1e-15
