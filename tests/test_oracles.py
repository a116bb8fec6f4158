"""Band split, calibration update and ancestral chain against earlier forms.

The package filters on the real FFT's half-plane, takes the high band as the
residual of the low band, and filters the gap once per calibration step.  The
oracles below keep the earlier forms: a full-plane complex fft2/ifft2 masked
filter whose imaginary residue is checked, a calibration update that filters
reference and estimate separately, one that filters the gap twice (the
objective through its own low_pass, the update through a complement mask),
and the update's affine form on x_t0, replace_low_freq, which overwrites the
low band of the noisy iterate with the reference's.  The
package's ancestral chain is denoise_from on the full grid at eta=1; the
oracle keeps the dedicated DDPM step (posterior mean plus posterior variance)
and the T-to-0 chain built on it.  A mixture of one-frame means applies to
every frame of a video; the oracle repeats each mean along the frame axis.
The package's GMM posterior is per-frame matrix-vector products against the
centred means; the oracle keeps the broadcast form, which builds the residual
from every scaled mean, and runs it in long double as the exact reference.
At late levels the posterior's output product takes an output weight below
the smallest normal double as 0; the oracle keeps the product on the
unflushed weights, and the two must agree byte for byte.
Runs advance as one (B, F, C, H, W) stack, each joining the reverse pass at
its own start; the oracles keep the pipeline one run at a time and the
posterior as a loop over the stack's rows, and every stacked row must equal
its run byte for byte.  The mixture loader casts each float32 payload into
its row of one buffer; the oracle keeps the load that cast each mean alone
and stacked them.  l2_norm and the
posterior's whole-frame dots are numpy sums; the oracles keep the BLAS forms
they replace (np.linalg.norm, np.vdot and a matmul of two vectors).
SSIM filters the five maps of a chunk of (frame, channel) pairs as one stack,
and spatial frequency sums squared differences with einsum; the oracles keep
the per-pair, per-map separable filter and the squared np.diff sums.  The
scorer reuses two buffers for every SSIM chunk and runs the formula in place,
takes spatial frequency's differences a chunk of frames at a time, and
squares a report's difference and band in the difference's buffer; the
oracles keep the forms before, which allocate every chunk's maps and every
term anew in 256 KiB chunks, difference the whole video twice, and square
into new arrays, and the two must agree byte for byte.
low_pass runs the row-axis transforms on the half-plane columns its mask
keeps and zeroes the rest; the oracle keeps the rfft2/irfft2 form, which
transforms every column, and the two must agree byte for byte.
For one Gaussian component every stage is affine and commutes with the
band projector, so the whole pipeline is a few scalar recurrences;
one_gaussian_pipeline keeps that closed form, and calibrate_noise's noise
and nc_sdedit's output must agree with it to roundoff.
Each per-row job of a stack is one call per stack: the noise of every row
comes from one generator re-keyed per row, the band split is one low_pass
per distinct nu, and metric_report scores the whole stack against the one
reference.  The oracles keep the per-row forms (a fresh generator per row,
low_pass per row, and a run's report from its per-metric functions with the
chunked SSIM of one run), and every row must equal its oracle byte for byte.
The posterior takes every row's r . g in one stacked product; the oracle
keeps the loop over the rows.  The frame codecs carry bytes, and read_video
and write_video convert a whole video at once; the oracles keep the
per-frame float forms of read_pnm and write_pnm, and the files and tensors
must agree byte for byte.  read_pnm takes the header's three numbers by one
token pattern; the oracle keeps the byte scanner it replaces, and on any
header the two must give the same pixels or the same FormatError message.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from doubles import CountingDenoiser, write_frame_prior
from noisecal import (
    CalibrationConfig,
    GmmDenoiser,
    RngSeed,
    SamplerConfig,
    as_video,
    calibrate_noise,
    ddim_grid,
    ddim_step,
    denoise_from,
    estimate_x0,
    forward_noise,
    gaussian_noise,
    l2_norm,
    linear_beta_schedule,
    low_pass,
    metric_report,
    mse_low,
    nc_sdedit,
    read_tensor,
    read_video,
    toy_benchmark,
    toy_schedule,
    write_tensor,
    write_video,
)
from noisecal import metrics
from noisecal.calibration import _low_pass_rows
from noisecal.cli import _STREAM_SWEEP, _float_bits, _run_configs, build_schedule, load_config, main
from noisecal.frequency import frequency_mask
from noisecal.metrics import spatial_frequency
from noisecal.tensor import _freeze, _require_same_shape
from noisecal.vio import FormatError, read_pnm

ROOT = Path(__file__).resolve().parents[1]

NUS = [0.0, 0.3, 0.5, 0.77, 1.0]
SHAPES = [(8, 8), (7, 9), (6, 9), (9, 6), (7, 5)]
SCHED = linear_beta_schedule(1000, 1e-4, 0.02)


def oracle_pass_map(h, w, nu):
    """Full-plane box mask: bin radius max(|ky|, |kx|) <= nu, empty at nu=0."""
    ky = np.abs(np.fft.fftfreq(h) * h) / ((h + 1) // 2)
    kx = np.abs(np.fft.fftfreq(w) * w) / ((w + 1) // 2)
    if nu == 0.0:
        return np.zeros((h, w), dtype=bool)
    return np.maximum(ky[:, None], kx[None, :]) <= nu


def oracle_filter(x, pass_map):
    spectrum = np.fft.fft2(x, axes=(-2, -1)) * pass_map
    out = np.fft.ifft2(spectrum, axes=(-2, -1))
    assert np.linalg.norm(out.imag.ravel()) <= 1e-9 * max(np.linalg.norm(x.ravel()), 1.0)
    return out.real


def oracle_low(x, nu):
    return oracle_filter(x, oracle_pass_map(*x.shape[-2:], nu))


def oracle_high(x, nu):
    return oracle_filter(x, ~oracle_pass_map(*x.shape[-2:], nu))


def oracle_update(x_ref, eps, t0, nu, d, s):
    """One calibration step with four filters: objective and new noise."""
    x_t0 = forward_noise(x_ref, t0, eps, s)
    eps_pred = d.predict_eps(x_t0, t0, s)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
    objective = np.linalg.norm((oracle_low(x_ref, nu) - oracle_low(x0_hat, nu)).ravel())
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    return objective, eps_pred + coef * (oracle_high(x0_hat, nu) - oracle_high(x_ref, nu))


def replace_low_freq(x_t0, x_ref, x0_hat, t0, nu, s):
    """Overwrite the low band of a noisy iterate with the reference's.

    Affine form of one calibration iteration acting on x_t0 directly:
    x_t0 + signal_scale(t0) * (f_l(x_ref) - f_l(x0_hat)).
    """
    _require_same_shape(x_t0, x_ref)
    _require_same_shape(x_t0, x0_hat)
    return _freeze(x_t0 + s.signal_scale(t0) * low_pass(x_ref - x0_hat, nu))


def half_plane_filter(x, pass_map):
    """x filtered as numpy's rfft2 and irfft2 compose it: every column of the
    half-plane goes through the row-axis transforms, and the pass map zeroes
    the discarded ones after."""
    h, w = x.shape[-2:]
    spectrum = np.fft.rfft2(x)
    spectrum *= pass_map[:, : w // 2 + 1]
    return np.fft.irfft2(spectrum, s=(h, w))


def mask_edges(n):
    """Cutoffs on and just below each box radius of an n-bin axis."""
    radii = [k / ((n + 1) // 2) for k in range(1, (n + 1) // 2 + 1)]
    return [nu for r in radii for nu in (float(np.nextafter(r, 0.0)), r) if nu < 1.0]


def complement_high(x, nu):
    """The complement-mask high band on the real FFT's half-plane."""
    return half_plane_filter(x, ~frequency_mask(*x.shape[-2:], nu))


def two_filter_update(x_ref, eps, t0, nu, d, s):
    """One calibration step with two filters of the gap: objective and new noise."""
    x_t0 = forward_noise(x_ref, t0, eps, s)
    eps_pred = d.predict_eps(x_t0, t0, s)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    objective = l2_norm(low_pass(x0_hat - x_ref, nu))
    return objective, eps_pred + coef * complement_high(x0_hat - x_ref, nu)


def pair(h, w, seed):
    rng = RngSeed(seed)
    return (gaussian_noise((2, 2, h, w), rng.substream(0)),
            gaussian_noise((2, 2, h, w), rng.substream(1)))


@pytest.mark.parametrize("h,w", SHAPES)
def test_mask_matches_oracle(h, w):
    for nu in NUS:
        np.testing.assert_array_equal(frequency_mask(h, w, nu), oracle_pass_map(h, w, nu))


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_filters_and_band_distances_match_oracle(h, w, nu):
    a, b = pair(h, w, 1000 * h + w)
    np.testing.assert_allclose(low_pass(a, nu), oracle_low(a, nu), rtol=0, atol=1e-12)
    np.testing.assert_allclose(a - low_pass(a, nu), oracle_high(a, nu), rtol=0, atol=1e-12)
    gap = oracle_low(a, nu) - oracle_low(b, nu)
    assert l2_norm(low_pass(a - b, nu)) == pytest.approx(l2_norm(gap), rel=1e-12, abs=1e-12)
    assert mse_low(a, b, nu) == pytest.approx(float(np.mean(gap * gap)), rel=1e-12, abs=1e-12)
    shifted = replace_low_freq(a, a, b, 600, nu, SCHED)
    np.testing.assert_allclose(shifted, a + SCHED.signal_scale(600) * gap, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_calibration_step_matches_four_filter_oracle(h, w, nu):
    x_ref, eps0 = pair(h, w, 2000 * h + w)
    rng = RngSeed(7)
    d = GmmDenoiser([(0.5, gaussian_noise(x_ref.shape, rng.substream(k)), 0.3) for k in (0, 1)])
    cfg = CalibrationConfig(t0=600, n_iters=1, nu=nu, rng=RngSeed(0))
    eps, trace = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
    objective, eps_oracle = oracle_update(x_ref, eps0, 600, nu, d, SCHED)
    assert trace.objectives[0] == pytest.approx(objective, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(eps, eps_oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("nu", NUS)
def test_calibration_step_matches_two_filter_oracle(h, w, nu):
    x_ref, eps0 = pair(h, w, 2500 * h + w)
    rng = RngSeed(8)
    d = GmmDenoiser([(0.5, gaussian_noise(x_ref.shape, rng.substream(k)), 0.3) for k in (0, 1)])
    cfg = CalibrationConfig(t0=600, n_iters=1, nu=nu, rng=RngSeed(0))
    eps, trace = calibrate_noise(x_ref, eps0, cfg, d, SCHED)
    objective, eps_oracle = two_filter_update(x_ref, eps0, 600, nu, d, SCHED)
    assert trace.objectives[0] == objective  # the same low_pass of the same gap
    np.testing.assert_allclose(eps, eps_oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("h,w", SHAPES + [(17, 23), (33, 47), (1, 5), (6, 1)])
@pytest.mark.parametrize("stacked", [False, True], ids=["run", "stack"])
def test_low_pass_is_the_half_plane_form_byte_for_byte(h, w, stacked):
    """Transforming only the kept columns changes no byte for 0 < nu < 1, on
    and beside every mask edge, up to the cutoff that passes every bin (an odd
    axis has no Nyquist bin, and a full mask is a copy); at nu=0 the zeros are
    equal in value (the half-plane form can give -0.0)."""
    shape = (3, 2, 2, h, w) if stacked else (2, 2, h, w)
    x = gaussian_noise(shape, [RngSeed(h, w + b) for b in range(3)] if stacked else RngSeed(h, w))
    for nu in sorted({0.0, 0.25, 0.5, 0.77, 1e-9, *mask_edges(h), *mask_edges(w)}):
        keep = frequency_mask(h, w, nu)
        if nu == 0.0:
            np.testing.assert_array_equal(low_pass(x, nu), half_plane_filter(x, keep))
        elif not keep.all():
            assert low_pass(x, nu).tobytes() == half_plane_filter(x, keep).tobytes(), nu


def test_low_pass_in_chunks_is_the_half_plane_form_byte_for_byte():
    """Above 128 KiB of input low_pass goes a quarter of the planes at a time,
    here 15 planes in chunks of 4, 4, 4 and 3: the chunks move no byte."""
    x = gaussian_noise((5, 3, 40, 40), RngSeed(41))
    for nu in (0.25, 0.5, 0.77):
        want = half_plane_filter(x, frequency_mask(40, 40, nu))
        assert low_pass(x, nu).tobytes() == want.tobytes(), nu


@pytest.mark.parametrize("h,w", SHAPES)
def test_low_pass_full_band_is_a_read_only_copy(h, w):
    a, _ = pair(h, w, 3500 * h + w)
    out = low_pass(a, 1.0)
    assert out.tobytes() == a.tobytes()
    with pytest.raises(ValueError):
        out[0, 0, 0, 0] = 0.0


@pytest.mark.parametrize("h,w", SHAPES)
def test_high_pass_full_band_is_exactly_zero(h, w):
    a, _ = pair(h, w, 3000 * h + w)
    assert not (a - low_pass(a, 1.0)).any()


def test_cached_mask_is_read_only():
    m = frequency_mask(8, 8, 0.5)
    with pytest.raises(ValueError):
        m[0, 0] = False
    assert frequency_mask(8, 8, 0.5)[0, 0]


def ddpm_step(x_t, t, d, s, rng):
    """Ancestral reverse step t -> t-1 with the posterior variance."""
    s._check_t(t)
    alpha = float(s.alpha_bar[t] / s.alpha_bar[t - 1])
    abar_t = float(s.alpha_bar[t])
    abar_prev = float(s.alpha_bar[t - 1])
    eps = d.predict_eps(x_t, t, s)
    mean = (x_t - ((1.0 - alpha) / np.sqrt(1.0 - abar_t)) * eps) / np.sqrt(alpha)
    if t == 1:
        return _freeze(mean)
    var = ((1.0 - abar_prev) / (1.0 - abar_t)) * (1.0 - alpha)
    z = rng.generator().standard_normal(size=x_t.shape, dtype=np.float64)
    return _freeze(mean + np.sqrt(var) * z)


def ddpm_chain(x_start, d, s, rng):
    """Full ancestral chain from t=T down to t=0."""
    x = x_start
    for t in range(s.num_steps, 0, -1):
        x = ddpm_step(x, t, d, s, rng.substream(t))
    return x


@pytest.mark.parametrize("case", range(20))
def test_full_grid_denoise_matches_ancestral_chain(case):
    rng = RngSeed(4000 + case)
    gen = rng.generator()
    big_t = int(gen.integers(1, 65))
    s = linear_beta_schedule(big_t, 1e-4 * (1 + case), 0.02 + 0.01 * (case % 4))
    shape = (int(gen.integers(1, 3)), int(gen.integers(1, 4)), 5 + case % 3, 4 + case % 4)
    d = GmmDenoiser(
        [
            (float(gen.uniform(0.2, 1.0)), 0.5 * gaussian_noise(shape, rng.substream(k)),
             float(gen.uniform(0.0, 0.3)))
            for k in range(int(gen.integers(1, 4)))
        ]
    )
    x_start = gaussian_noise(shape, rng.substream(9))
    chain_rng = rng.substream(10)
    expected = ddpm_chain(x_start, d, s, chain_rng)
    cfg = SamplerConfig(eta=1.0, num_steps=big_t, rng=chain_rng)
    got = denoise_from(x_start, ddim_grid(s, big_t, big_t), d, s, cfg)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def tiled_mixture(d, n_frames):
    """The static-video prior built by repeating each one-frame mean n_frames times."""
    return GmmDenoiser(
        [
            (w, np.repeat(m, n_frames, axis=0), v)
            for w, m, v in zip(d.weights, d.means, d.variances)
        ]
    )


@pytest.mark.parametrize("frames", [1, 2, 5])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("t", [1, 500, 1000])
def test_one_frame_mixture_matches_tiled_oracle(frames, channels, t):
    rng = RngSeed(5000 + 10 * frames + channels)
    gen = rng.generator()
    means = [0.5 * gaussian_noise((1, channels, 6, 7), rng.substream(k)) for k in range(3)]
    d = GmmDenoiser(
        [(float(gen.uniform(0.2, 1.0)), m, v) for m, v in zip(means, [0.0, 0.05, 0.3])]
    )
    tiled = tiled_mixture(d, frames)
    x_t = gaussian_noise((frames, channels, 6, 7), rng.substream(9))
    for method in ("posterior_mean", "predict_eps"):
        got = getattr(d, method)(x_t, t, SCHED)
        want = getattr(tiled, method)(x_t, t, SCHED)
        assert got.shape == x_t.shape
        assert got.tobytes() == want.tobytes(), method


def broadcast_posterior_mean(d, x_t, t, schedule, dtype=np.float64):
    """E[x0 | x_t] from two (n, F, C, H, W) temporaries: the residual from
    every scaled mean, then every component's shrunk mean.  In np.longdouble
    it is the extended-precision reference."""
    abar = dtype(schedule.alpha_bar[t])
    root = np.sqrt(abar)
    means, variances = d.means.astype(dtype), d.variances.astype(dtype)
    s = abar * variances + (1 - abar)
    resid = x_t.astype(dtype)[None, ...] - root * means
    sq = np.sum(resid * resid, axis=(1, 2, 3, 4))
    log_r = np.log(d.weights.astype(dtype)) - sq / (2 * s) - dtype(0.5) * x_t.size * np.log(s)
    log_r -= log_r.max()
    r = np.exp(log_r)
    r /= r.sum()
    gain = root * variances / s
    comp_means = gain[:, None, None, None, None] * resid
    comp_means += means
    return np.tensordot(r, comp_means, axes=1)


def noised_mixture(rng, n, mean_shape, variances, offset, t, schedule, frames):
    """A mixture whose means share `offset`, and x_t drawn from component 0's marginal."""
    gen = rng.generator()
    means = [offset + 0.5 * gaussian_noise(mean_shape, rng.substream(k)) for k in range(n)]
    d = GmmDenoiser([(float(gen.uniform(0.2, 1.0)), m, v) for m, v in zip(means, variances)])
    abar = schedule.alpha_bar[t]
    shape = (frames,) + mean_shape[1:]
    x0 = d.means[0] + np.sqrt(d.variances[0]) * gaussian_noise(shape, rng.substream(n))
    return d, np.sqrt(abar) * x0 + np.sqrt(1 - abar) * gaussian_noise(shape, rng.substream(n + 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    one_frame=st.booleans(),
    zero_variance=st.booleans(),
    t=st.sampled_from([1, 1000]),
    toy=st.booleans(),
    offset=st.sampled_from([0.0, 1e3, -1e3]) | st.floats(-1e3, 1e3),
)
def test_posterior_mean_matches_broadcast_oracle(seed, one_frame, zero_variance, t, toy, offset):
    rng = RngSeed(seed)
    gen = rng.generator()
    n, frames, channels = (int(v) for v in gen.integers(1, [7, 4, 4]))
    variances = [0.0] * n if zero_variance else gen.choice([0.0, 0.05, 0.3, 1.0], size=n).tolist()
    schedule = toy_schedule() if toy else SCHED
    mean_shape = (1 if one_frame else frames, channels, 5, 6)
    d, x_t = noised_mixture(rng, n, mean_shape, variances, offset, t, schedule, frames)
    want = broadcast_posterior_mean(d, x_t, t, schedule)
    np.testing.assert_allclose(d.posterior_mean(x_t, t, schedule), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("schedule", [toy_schedule(), SCHED], ids=["toy", "ddpm"])
@pytest.mark.parametrize("t", [1, 300, 600, 999, 1000])
def test_posterior_mean_matches_longdouble_reference(schedule, t):
    """Within 1e-12 abs of the exact posterior on 8x1x32x32 with 16 components.
    The worst case, at t=999 on the DDPM schedule, measured 3.4e-13 (the
    broadcast form in float64: 4.0e-13); on the toy schedule, under 1e-15."""
    d, x_t = noised_mixture(RngSeed(11), 16, (8, 1, 32, 32), [0.3, 0.0] * 8, 0.0, t, schedule, 8)
    want = broadcast_posterior_mean(d, x_t, t, schedule, dtype=np.longdouble)
    err = np.abs(d.posterior_mean(x_t, t, schedule) - want).max()
    assert err <= 1e-12


def blas_posterior_mean(d, x_t, t, schedule):
    """posterior_mean of one video as it was while its two whole-frame dot
    products went through BLAS: ||c||^2 by np.vdot and each frame's mbar . c by
    a matmul of two vectors, where c = x_t - root * mbar."""
    n, f = len(d.means), x_t.shape[0]
    abar = float(schedule.alpha_bar[t])
    root = np.sqrt(abar)
    x = x_t.reshape(f, -1)
    flat = d.means.reshape(n, d.means.shape[1], -1)
    m = np.broadcast_to(flat, (n,) + x.shape).transpose(1, 0, 2)  # (F, n, D)
    mbar = np.broadcast_to(flat.mean(axis=0), x.shape)
    c = x - root * mbar
    dots = np.matmul(m, c[..., None])[..., 0] - np.matmul(mbar[:, None, :], c[..., None])[..., 0]
    msq = np.square(m - mbar[:, None, :]).sum(axis=2)  # (F, n)
    sq = np.vdot(c, c) - 2.0 * root * dots.sum(axis=0) + abar * msq.sum(axis=0)
    s = abar * d.variances + (1.0 - abar)
    log_r = np.log(d.weights) - sq / (2.0 * s) - 0.5 * x.size * np.log(s)
    r = np.exp(log_r - log_r.max())
    r /= r.sum()
    gain = root * d.variances / s
    out = np.matmul((r * (1.0 - gain * root))[None, None, :], m)[:, 0] + (r @ gain) * x
    return out.reshape(x_t.shape)


@pytest.mark.parametrize("one_frame", [True, False], ids=["one-frame", "per-frame"])
@pytest.mark.parametrize("shape", [(3, 2, 6, 7), (8, 1, 128, 128)], ids=["small", "128x128"])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_sums_of_squares_match_blas_forms(one_frame, shape, offset):
    """l2_norm and the posterior's whole-frame dots are numpy sums, which
    OpenBLAS cannot split over threads; the oracles keep the BLAS forms they
    replace, np.linalg.norm, np.vdot and a matmul of two vectors."""
    rng = RngSeed(6500)
    x = offset + gaussian_noise(shape, rng)
    assert l2_norm(x) == pytest.approx(float(np.linalg.norm(x.ravel())), rel=1e-12, abs=0)
    mean_shape = (1,) + shape[1:] if one_frame else shape
    d, x_t = noised_mixture(rng.substream(1), 4, mean_shape, [0.3, 0.0, 0.05, 1.0], offset,
                            600, SCHED, shape[0])
    want = blas_posterior_mean(d, x_t, 600, SCHED)
    np.testing.assert_allclose(d.posterior_mean(x_t, 600, SCHED), want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- late levels

TINY = np.finfo(np.float64).tiny


def unflushed_posterior_mean(d, x_t, t, schedule):
    """posterior_mean as it was while subnormal output weights went into the
    output product: (E[x0 | x_t], the (B, n) weights of that product)."""
    abar = schedule._alpha_bar_at(t, shape=x_t.shape).reshape(-1, 1)
    xs = x_t[None] if x_t.ndim == 4 else x_t
    n, (b, f) = len(d.means), xs.shape[:2]
    root = np.sqrt(abar)
    x = xs.reshape(b, f, -1)
    m = np.broadcast_to(d.means.reshape(n, len(d._mbar), -1), (n,) + x.shape[1:])
    m = m.transpose(1, 0, 2)
    mbar = np.broadcast_to(d._mbar, x.shape[1:])
    c = np.multiply(root[..., None], d._mbar, out=np.empty(x.shape))
    np.subtract(x, c, out=c)
    dots = np.matmul(m, c[..., None])[..., 0]
    cm = np.empty((b, c.shape[2]))
    for k in range(f):
        dots[:, k] -= np.multiply(c[:, k], mbar[k], out=cm).sum(axis=1)[:, None]
    msq = np.ascontiguousarray(np.broadcast_to(d._msq.T, (f, n)))
    cc = np.square(c, out=c).reshape(b, -1).sum(axis=1)[:, None]
    sq = cc - 2.0 * root * dots.sum(axis=1) + abar * msq.sum(axis=0)
    s = abar * d.variances + (1.0 - abar)
    log_r = np.log(d.weights) - sq / (2.0 * s) - 0.5 * x[0].size * np.log(s)
    log_r -= log_r.max(axis=1, keepdims=True)
    r = np.exp(log_r)
    r /= r.sum(axis=1, keepdims=True)
    gain = root * d.variances / s
    weights = r * (1.0 - gain * root)
    out = np.matmul(weights[:, None, None, :], m)[:, :, 0]
    rg = per_row_rg(r, np.broadcast_to(gain, r.shape))
    for k in range(f):
        out[:, k] += rg * x[:, k]
    return out.reshape(x_t.shape), weights


def per_row_rg(r, gains):
    """The (B, 1) column of r . g as a Python loop over the rows."""
    return np.array([float(row @ g) for row, g in zip(r, gains)])[:, None]


def late_level_case(rows, t, shape=(2, 1, 8, 8), n=48):
    """A mixture whose far components' output weights underflow to subnormals
    at late levels, and x_t: one run (rows=None) or a stack of rows at t.

    The means are graded along one field u, m_k = base + a_k u, with a_k^2 |u|^2
    rising evenly from 0 to about 800, and x0 is drawn from component 0; so
    at t in [20, 100] of SCHED the log-responsibility gaps, about
    abar a_k^2 |u|^2 / (2 s), step through -745 to -708, the exponents whose
    exp is subnormal, whatever the frame size."""
    rng = RngSeed(6600)
    u = gaussian_noise(shape, rng.substream(0))
    base = 0.5 * gaussian_noise(shape, rng.substream(1))
    reach = np.sqrt(800.0 / u.size)
    d = GmmDenoiser([(1.0, base + reach * np.sqrt(k / (n - 1)) * u, 0.3) for k in range(n)])
    runs = [rng.substream(2, b) for b in range(rows or 1)]
    x0 = base + np.sqrt(0.3) * gaussian_noise((len(runs),) + shape, runs)
    eps = gaussian_noise(x0.shape, [run.substream(1) for run in runs])
    x_t = forward_noise(x0, t, eps, SCHED)
    return d, (x_t if rows else x_t[0])


LATE_T = [20, 50, 100]
# one run and a 3-row stack at each late level, and a stack with a level per row
LATE_CASES = (
    [pytest.param(None, t, id=f"run-t{t}") for t in LATE_T]
    + [pytest.param(3, t, id=f"stack-t{t}") for t in LATE_T]
    + [pytest.param(3, LATE_T, id="stack-t-per-row")]
)


@pytest.mark.parametrize("rows,t", LATE_CASES)
def test_flushed_output_weights_keep_the_unflushed_bytes(rows, t):
    """Output weights below the smallest normal double go to 0 before the
    output product; each one's addend is below half an ulp of the sums it
    joins, so the bytes are the unflushed product's."""
    d, x_t = late_level_case(rows, t)
    want, weights = unflushed_posterior_mean(d, x_t, t, SCHED)
    assert np.any((weights > 0) & (weights < TINY))  # the case reaches the flush
    assert d.posterior_mean(x_t, t, SCHED).tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 2, 24])
@pytest.mark.parametrize("per_row_t", [False, True], ids=["one-level", "level-per-row"])
def test_stacked_rg_keeps_the_per_row_loop_bytes(batch, per_row_t):
    """posterior_mean takes every row's r . g in one stacked product; each
    row's product is the loop's dot, byte for byte."""
    d, stack = stacked_case(6080 + batch, batch, False, False)
    t = [(600, 1000, 250, 800)[b % 4] for b in range(batch)] if per_row_t else 600
    want, _ = unflushed_posterior_mean(d, stack, t, SCHED)
    assert d.posterior_mean(stack, t, SCHED).tobytes() == want.tobytes()


# ---------------------------------------------------------------- stacked runs


def per_row_posterior_mean(d, stack, t, schedule):
    """The posterior of a (B, F, C, H, W) stack as B separate calls, at one t
    or at a list of timesteps, one per row."""
    ts = t if isinstance(t, list) else [t] * len(stack)
    return np.stack([d.posterior_mean(row, t_b, schedule) for row, t_b in zip(stack, ts)])


def per_run_nc_sdedit(x_ref, cal, samp, d, s):
    """The pipeline for one run on its own: (output, objectives)."""
    grid = ddim_grid(s, samp.num_steps, cal.t0)
    t0 = grid[0]
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    eps = gaussian_noise(x_ref.shape, cal.rng)
    objectives = []
    for _ in range(cal.n_iters):
        x_t0 = forward_noise(x_ref, t0, eps, s)
        eps_pred = d.predict_eps(x_t0, t0, s)
        gap = estimate_x0(x_t0, t0, eps_pred, s) - x_ref
        low = low_pass(gap, cal.nu)
        objectives.append(l2_norm(low))
        eps = _freeze(eps_pred + coef * (gap - low))
    x, first_x0_hat = forward_noise(x_ref, t0, eps, s), None
    for t, t_prev in zip(grid, grid[1:] + [0]):
        x, x0_hat = ddim_step(x, t, t_prev, d, s, samp)
        first_x0_hat = x0_hat if first_x0_hat is None else first_x0_hat
    objectives.append(l2_norm(low_pass(first_x0_hat - x_ref, cal.nu)))
    return x, objectives


def stacked_case(seed, batch, one_frame, zero_variance, shape=(3, 2, 6, 7), n=4):
    rng = RngSeed(seed)
    gen = rng.generator()
    variances = [0.0] * n if zero_variance else [0.0, 0.05, 0.3, 1.0][:n]
    mean_shape = (1,) + shape[1:] if one_frame else shape
    d = GmmDenoiser(
        [(float(gen.uniform(0.2, 1.0)), 0.5 * gaussian_noise(mean_shape, rng.substream(k)), v)
         for k, v in enumerate(variances)]
    )
    rows = [RngSeed(seed, 100 + b) for b in range(batch)]
    return d, gaussian_noise((batch,) + shape, rows)


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("one_frame", [True, False], ids=["one-frame", "per-frame"])
@pytest.mark.parametrize("zero_variance", [True, False], ids=["zero-var", "nonzero-var"])
@pytest.mark.parametrize("t", [1, 600, 1000])
def test_stacked_posterior_mean_equals_per_row_calls(batch, one_frame, zero_variance, t):
    d, stack = stacked_case(6000 + batch, batch, one_frame, zero_variance)
    got = d.posterior_mean(stack, t, SCHED)
    assert got.shape == stack.shape
    assert got.tobytes() == per_row_posterior_mean(d, stack, t, SCHED).tobytes()
    eps = np.stack([d.predict_eps(row, t, SCHED) for row in stack])
    assert d.predict_eps(stack, t, SCHED).tobytes() == eps.tobytes()


@pytest.mark.parametrize("one_frame", [True, False], ids=["one-frame", "per-frame"])
def test_stacked_posterior_mean_equals_per_row_calls_on_large_frames(one_frame):
    """Whole-row sums of 8x128x128 rows: a reduction over the stack at once,
    such as an einsum to shape (B,), adds a row in another order than the row alone."""
    d, stack = stacked_case(6050, 5, one_frame, False, (8, 1, 128, 128))
    got = d.posterior_mean(stack, 600, SCHED)
    assert got.tobytes() == per_row_posterior_mean(d, stack, 600, SCHED).tobytes()


# a timestep per row: both ends of the schedule, a repeat, and rows out of order
MIXED_T = [600, 1, 1000, 250, 600]


@pytest.mark.parametrize("batch", [2, 5])
@pytest.mark.parametrize("one_frame", [True, False], ids=["one-frame", "per-frame"])
@pytest.mark.parametrize("zero_variance", [True, False], ids=["zero-var", "nonzero-var"])
def test_mixed_t_posterior_mean_equals_per_row_calls(batch, one_frame, zero_variance):
    d, stack = stacked_case(6000 + batch, batch, one_frame, zero_variance)
    ts = MIXED_T[:batch]
    got = d.posterior_mean(stack, ts, SCHED)
    assert got.tobytes() == per_row_posterior_mean(d, stack, ts, SCHED).tobytes()
    assert d.posterior_mean(stack, tuple(ts), SCHED).tobytes() == got.tobytes()
    eps = np.stack([d.predict_eps(row, t, SCHED) for row, t in zip(stack, ts)])
    assert d.predict_eps(stack, ts, SCHED).tobytes() == eps.tobytes()


def test_mixed_t_forward_noise_and_estimate_x0_equal_per_row_calls():
    shape = (5, 2, 1, 5, 6)
    x0 = gaussian_noise(shape, [RngSeed(6300, b) for b in range(5)])
    eps = gaussian_noise(shape, [RngSeed(6301, b) for b in range(5)])
    ts = [600, 0, 1000, 250, 600]  # t=0 is the clean level
    got = forward_noise(x0, ts, eps, SCHED)
    want = np.stack([forward_noise(a, t, e, SCHED) for a, t, e in zip(x0, ts, eps)])
    assert got.tobytes() == want.tobytes()
    ts = MIXED_T  # estimate_x0 needs t >= 1
    got = estimate_x0(x0, ts, eps, SCHED)
    want = np.stack([estimate_x0(a, t, e, SCHED) for a, t, e in zip(x0, ts, eps)])
    assert got.tobytes() == want.tobytes()


def test_mixed_t0_calibration_equals_each_row_alone():
    """Rows of four starts, with repeats and out of order, calibrate in N calls
    for the stack, and each row's noise and objectives are those it has alone."""
    rng = RngSeed(6400)
    d = GmmDenoiser([(0.5, gaussian_noise((2, 1, 6, 6), rng.substream(k)), 0.3) for k in (0, 1)])
    x_ref = gaussian_noise((2, 1, 6, 6), rng.substream(2))
    t0s, nus = [500, 167, 833, 500, 1000], [0.5, 1.0, 0.25, 0.0, 0.5]
    cals = [CalibrationConfig(t0=t0, n_iters=3, nu=nu, rng=rng.substream(10, b))
            for b, (t0, nu) in enumerate(zip(t0s, nus))]
    eps0 = gaussian_noise((len(cals),) + x_ref.shape, [cal.rng for cal in cals])
    counter = CountingDenoiser(d)
    eps, traces = calibrate_noise(x_ref, eps0, cals, counter, SCHED)
    assert counter.calls == 3
    for row, row_eps0, trace, cal in zip(eps, eps0, traces, cals):
        alone, alone_trace = calibrate_noise(x_ref, row_eps0, cal, d, SCHED)
        assert row.tobytes() == alone.tobytes()
        assert trace.objectives == alone_trace.objectives
        assert len(trace.objectives) == 3


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from noisecal import GmmDenoiser, RngSeed, gaussian_noise, linear_beta_schedule
from test_oracles import (
    LATE_T, TINY, late_level_case, per_row_posterior_mean, stacked_case, unflushed_posterior_mean,
)
s = linear_beta_schedule(1000, 1e-4, 0.02)
for batch in (1, 2, 5):
    for one_frame in (True, False):
        d, stack = stacked_case(6100 + batch, batch, one_frame, False, (2, 1, 32, 32), 16)
        got = d.posterior_mean(stack, 600, s).tobytes()
        assert got == per_row_posterior_mean(d, stack, 600, s).tobytes(), (batch, one_frame)
        print(hashlib.sha256(got).hexdigest())
d, stack = stacked_case(6150, 5, False, False, (2, 1, 32, 32), 16)
ts = [600, 1, 1000, 250, 600]
got = d.posterior_mean(stack, ts, s).tobytes()
assert got == per_row_posterior_mean(d, stack, ts, s).tobytes(), ts
print(hashlib.sha256(got).hexdigest())
d, stack = late_level_case(3, LATE_T, (2, 1, 32, 32))
got = d.posterior_mean(stack, LATE_T, s).tobytes()
assert got == per_row_posterior_mean(d, stack, LATE_T, s).tobytes(), LATE_T
weights = unflushed_posterior_mean(d, stack, LATE_T, s)[1]
assert ((weights > 0) & (weights < TINY)).any(), "no output weight underflows"
print(hashlib.sha256(got).hexdigest())
"""


def test_stacked_posterior_mean_bytes_do_not_depend_on_blas_threads():
    """16 components of 32x32 frames are enough for OpenBLAS to split each
    matrix-vector product over threads; the seventh stack has a timestep per
    row, and the eighth, at late levels, has output weights that are flushed."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(ROOT / "src"), str(ROOT / "tests")],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 8
    assert digests[0] == digests[1]


def test_stacked_nc_sdedit_rows_equal_per_run_oracle(sched):
    """Runs of mixed, unsorted t0 advance as one staggered stack: every row is
    calibrated at its own start in the same 3 calls, and the reverse pass
    makes one call per step of the longest grid."""
    rng = RngSeed(6200)
    d = GmmDenoiser([(0.5, gaussian_noise((2, 1, 6, 6), rng.substream(k)), 0.3) for k in (0, 1)])
    x_ref = gaussian_noise((2, 1, 6, 6), rng.substream(2))
    t0s, nus = [400, 600, 200, 600, 650], [0.5, 1.0, 0.0, 0.5, 0.77]
    cals = [CalibrationConfig(t0=t0, n_iters=3, nu=nu, rng=rng.substream(10, b))
            for b, (t0, nu) in enumerate(zip(t0s, nus))]
    samps = [SamplerConfig(eta=1.0, num_steps=6, rng=rng.substream(20, b)) for b in range(5)]
    counter = CountingDenoiser(d)
    x0, traces = nc_sdedit(x_ref, cals, samps, counter, sched)
    starts = {ddim_grid(sched, 6, t0)[0] for t0 in t0s}
    assert sorted(starts) == [167, 333, 500]  # 600 and 650 share a start
    assert counter.calls == 3 + len(ddim_grid(sched, 6, 650))
    assert x0.shape == (len(nus),) + x_ref.shape
    for row, trace, cal, samp in zip(x0, traces, cals, samps):
        want, objectives = per_run_nc_sdedit(x_ref, cal, samp, d, sched)
        assert row.tobytes() == want.tobytes()
        assert trace.objectives == objectives
        own_grid = ddim_grid(sched, 6, cal.t0)
        assert (trace.calibration_calls, trace.sampling_calls) == (3, len(own_grid))
        one, one_trace = nc_sdedit(x_ref, cal, samp, d, sched)  # the stack of one
        assert one.tobytes() == want.tobytes()
        assert one_trace.objectives == objectives


def one_gaussian_pipeline(x_ref, m, v, cal, samp, s):
    """calibrate_noise's noise and nc_sdedit's output for one run under the
    one component N(m, v I), from scalars and low_pass alone.

    The clean estimate is affine, m + g*(x_t - sqrt(abar)*m), so every stage
    is affine and commutes with the band projector P = low_pass at nu.  With
    u = x_ref - m and k = (1-abar)/(abar*v + 1-abar) at the grid start, each
    update takes the noise's low band a factor k of the way from its fixed
    point sigma/(sqrt(abar)*v)*P u and leaves its high band where it is.
    Each reverse step maps d_t = x_t - sqrt(abar_t)*m to
    (sqrt(abar_prev)*g_t + c_t*k_t/sigma_t)*d_t + s_t*z_t, with s_t the
    step's noise scale, c_t = sqrt(1 - abar_prev - s_t^2) and z_t the step's
    own draw; the step to 0 returns m + g*d."""
    grid = ddim_grid(s, samp.num_steps, cal.t0)
    abar = float(s.alpha_bar[grid[0]])
    sigma = np.sqrt(1.0 - abar)
    k = (1.0 - abar) / (abar * v + 1.0 - abar)
    u = x_ref - m
    eps0 = gaussian_noise(x_ref.shape, cal.rng)
    fixed_low = sigma / (np.sqrt(abar) * v) * low_pass(u, cal.nu)
    eps = eps0 - (1.0 - k**cal.n_iters) * (low_pass(eps0, cal.nu) - fixed_low)
    d = np.sqrt(abar) * u + sigma * eps
    for t, t_prev in zip(grid, grid[1:] + [0]):
        a, a_prev = float(s.alpha_bar[t]), float(s.alpha_bar[t_prev])
        g = np.sqrt(a) * v / (a * v + 1.0 - a)
        if t_prev == 0:
            return eps, m + g * d
        k_t = (1.0 - a) / (a * v + 1.0 - a)
        s_t = samp.eta * np.sqrt((1.0 - a_prev) / (1.0 - a)) * np.sqrt(1.0 - a / a_prev)
        c_t = np.sqrt(max(1.0 - a_prev - s_t**2, 0.0))
        d = (np.sqrt(a_prev) * g + c_t * k_t / np.sqrt(1.0 - a)) * d
        if s_t > 0:
            d = d + s_t * gaussian_noise(x_ref.shape, samp.rng.substream(t))


def one_gaussian_case(v, seed=7000):
    """The one component's denoiser and mean, the first field of toy instance
    RngSeed(seed), and that instance's reference."""
    den, ref = toy_benchmark(RngSeed(seed), sigma2=v)
    m = den.means[0]
    return GmmDenoiser([(1.0, m, v)]), m, ref


def assert_within_roundoff(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def one_gaussian_runs(t0s, nus, n, eta):
    cals = [CalibrationConfig(t0=t0, n_iters=n, nu=nu, rng=RngSeed(100 + b).substream(1))
            for b, (t0, nu) in enumerate(zip(t0s, nus))]
    samps = [SamplerConfig(eta=eta, num_steps=30, rng=RngSeed(100 + b).substream(2))
             for b in range(len(t0s))]
    return cals, samps


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("n", [0, 3, 20, 200])
@pytest.mark.parametrize("t0", [600, 800])
@pytest.mark.parametrize("v", [0.03, 0.3])
def test_one_gaussian_run_is_its_closed_form(v, t0, n, eta):
    d, m, ref = one_gaussian_case(v)
    s = toy_schedule()
    (cal,), (samp,) = one_gaussian_runs([t0], [0.5], n, eta)
    want_eps, want_out = one_gaussian_pipeline(ref, m, v, cal, samp, s)
    start = replace(cal, t0=ddim_grid(s, samp.num_steps, t0)[0])  # where nc_sdedit calibrates
    eps, _ = calibrate_noise(ref, gaussian_noise(ref.shape, cal.rng), start, d, s)
    assert_within_roundoff(eps, want_eps)
    out, _ = nc_sdedit(ref, cal, samp, d, s)
    assert_within_roundoff(out, want_out)


@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.parametrize("t0s", [(600, 600, 600), (800, 600, 800)], ids=["stack", "mixed-start"])
@pytest.mark.parametrize("v", [0.03, 0.3])
def test_one_gaussian_stack_rows_are_their_closed_forms(v, t0s, eta):
    d, m, ref = one_gaussian_case(v)
    s = toy_schedule()
    cals, samps = one_gaussian_runs(t0s, [0.5, 0.25, 0.5], 3, eta)
    starts = [replace(cal, t0=ddim_grid(s, 30, cal.t0)[0]) for cal in cals]
    eps0 = gaussian_noise((len(cals),) + ref.shape, [cal.rng for cal in cals])
    eps, _ = calibrate_noise(ref, eps0, starts, d, s)
    out, _ = nc_sdedit(ref, cals, samps, d, s)
    for eps_row, out_row, cal, samp in zip(eps, out, cals, samps):
        want_eps, want_out = one_gaussian_pipeline(ref, m, v, cal, samp, s)
        assert_within_roundoff(eps_row, want_eps)
        assert_within_roundoff(out_row, want_out)


def stacked_load(path):
    """The mixture as the loader built it before: each float32 payload cast to
    float64 alone, checked again as a video, and the means copied by np.stack."""
    spec = json.loads(Path(path).read_text())
    means = [read_tensor(Path(path).parent / entry["mean"]) for entry in spec]
    return GmmDenoiser(
        [(entry["weight"], m, entry.get("variance", 0.0)) for entry, m in zip(spec, means)]
    )


@pytest.mark.parametrize("mean_frames", [1, 3])
def test_one_buffer_load_equals_stacked_load(tmp_path, mean_frames):
    rng = RngSeed(6250)
    spec = []
    for k in range(5):
        mean = gaussian_noise((mean_frames, 2, 5, 7), rng.substream(k))
        write_tensor(mean, tmp_path / f"m{k}.vnt")
        spec.append({"weight": 0.5 + k, "mean": f"m{k}.vnt", "variance": 0.1 * k})
    (tmp_path / "gmm.json").write_text(json.dumps(spec))
    got = GmmDenoiser.from_json_spec(tmp_path / "gmm.json")
    want = stacked_load(tmp_path / "gmm.json")
    assert got.means.tobytes() == want.means.tobytes()
    assert (got.means.shape, got.means.dtype) == (want.means.shape, want.means.dtype)
    assert not got.means.flags.writeable
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.variances.tobytes() == want.variances.tobytes()
    x_t = gaussian_noise((3, 2, 5, 7), rng.substream(9))
    assert got.posterior_mean(x_t, 600, SCHED).tobytes() == (
        want.posterior_mean(x_t, 600, SCHED).tobytes()
    )


def write_sweep_workspace(root: Path) -> Path:
    """A 3-frame input, a 4-component mixture and a T=50 config under root."""
    rng = RngSeed(6300)
    raw = gaussian_noise((3, 1, 12, 12), rng.substream(0)) * 0.2 + 0.5
    write_video(np.floor(np.clip(raw, 0, 1) * 255) / 255.0, root / "input")
    raw = gaussian_noise((4, 1, 12, 12), rng.substream(1)) * 0.2 + 0.5
    write_frame_prior(np.floor(np.clip(raw, 0, 1) * 255) / 255.0, root)
    cfg = {
        "schedule": {"T": 50, "beta_start": 0.001, "beta_end": 0.02},
        "sampler": {"num_steps": 5, "eta": 1.0, "seed": 7},
        "calibration": {"N": 2},
        "denoiser": {"kind": "gmm", "spec": "prior.json"},
        "io": {"input": "input"},
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    return root / "cfg.json"


def sweep_rows(capsys, cfg, t0_list, nu_list, seeds):
    argv = ["sweep", "--config", str(cfg), "--t0-list", t0_list, "--nu-list", nu_list]
    assert main(argv + ["--seeds", str(seeds)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    return {tuple(ln.split(",")[:3]): ln for ln in lines if ",mean," not in ln}


def test_sweep_row_equals_standalone_run(tmp_path, capsys):
    cfg_path = write_sweep_workspace(tmp_path)
    rows = sweep_rows(capsys, cfg_path, "20,40", "0.5,1.0", 4)
    cfg = load_config(cfg_path)
    x_ref = read_video(cfg.input_dir)
    d = GmmDenoiser.from_json_spec(cfg.denoiser_spec)
    s = build_schedule(cfg)
    for t0, nu, k in [(20, 0.5, 0), (40, 1.0, 3), (40, 0.5, 2)]:
        rng = RngSeed(cfg.seed).substream(_STREAM_SWEEP, t0, _float_bits(nu), k)
        cal, samp = _run_configs(cfg, rng, t0, nu)
        x0, objectives = per_run_nc_sdedit(x_ref, cal, samp, d, s)
        r = metric_report(x0, x_ref)
        values = [r.mse_low, r.mse, r.ssim, r.d_sf] + objectives
        want = ",".join([str(t0), repr(nu), str(k)] + [repr(v) for v in values])
        assert rows[(str(t0), repr(nu), str(k))] == want


def test_sweep_rows_do_not_depend_on_batch_composition(tmp_path, capsys):
    # the t0 lists "40,20" and "30,40,20" put the groups of a stack out of list order
    cfg = write_sweep_workspace(tmp_path)
    full = sweep_rows(capsys, cfg, "20,30,40", "0.5,1.0", 4)
    for t0_list, nu_list, seeds in (
        ("20,40", "0.5,1.0", 1),
        ("20,40", "1.0,0.5", 3),
        ("20,40", "0.5", 4),
        ("20,40", "1.0", 2),
        ("20,40", "0.5", 1),
        ("40,20", "0.5,1.0", 2),
        ("30,40,20", "1.0", 3),
    ):
        part = sweep_rows(capsys, cfg, t0_list, nu_list, seeds)
        assert len(part) == len(t0_list.split(",")) * len(nu_list.split(",")) * seeds
        assert all(full[key] == line for key, line in part.items())


def test_read_video_order_moves_metrics_only_in_the_last_digits(tmp_path):
    """read_video returns C order; before, RGB came channels-last.  Every
    metric_report field agrees across the two orders within 1e-12 absolute
    (measured: under 1e-15 on 6x3x64x64 frames)."""
    for seed, shape in ((6400, (4, 3, 32, 32)), (6401, (2, 3, 17, 23))):
        pair_ = [np.floor(np.clip(gaussian_noise(shape, RngSeed(seed, k)) * 0.2 + 0.5, 0, 1)
                          * 255) / 255.0 for k in (0, 1)]
        for k, x in enumerate(pair_):
            write_video(x, tmp_path / f"{seed}-{k}")
        a, b = (read_video(tmp_path / f"{seed}-{k}") for k in (0, 1))
        last = [np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2) for x in (a, b)]
        got, old = metric_report(a, b), metric_report(*last)
        for key, value in json.loads(got.to_json()).items():
            assert value == pytest.approx(getattr(old, key), rel=0, abs=1e-12), key


# ---------------------------------------------------------------- frame I/O


def float_read_pnm(path):
    """read_pnm as it was: one frame's (C, H, W) float64 values v/255."""
    frame = np.ascontiguousarray(read_pnm(path).transpose(2, 0, 1), dtype=np.float64)
    frame /= 255.0
    return frame


def scanned_pnm_header(blob, path):
    """read_pnm's header as a byte scanner read it: (magic, width, height,
    maxval, payload offset)."""
    if blob[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM file")
    magic = blob[:2]
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(blob):
            raise FormatError(f"{path}: truncated header")
        ch = blob[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            if pos - start > 9:
                raise FormatError(f"{path}: header number has {pos - start} digits")
            fields.append(int(blob[start:pos]))
        else:
            raise FormatError(f"{path}: unexpected byte {ch!r} in header")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise FormatError(f"{path}: header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")
    return magic, width, height, maxval, pos


def scanned_read_pnm(blob, path):
    """read_pnm with the scanned header: (H, W, C) uint8 pixels."""
    magic, width, height, _, pos = scanned_pnm_header(blob, path)
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    if len(blob) - pos != need:
        raise FormatError(f"{path}: payload has {len(blob) - pos} bytes, expected {need}")
    return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(height, width, channels)


SEPARATORS = [b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"]
HEADER_GAP = st.lists(
    st.sampled_from(SEPARATORS)
    | st.binary(max_size=4).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    min_size=1,
    max_size=3,
)
HEADER_NUMBER = st.integers(1, 5).map(lambda n: str(n).encode()) | st.text(
    "0123456789", min_size=1, max_size=12
).map(str.encode)


@st.composite
def pnm_headers(draw):
    """Header bytes from the format's token kinds: magic, separators and
    comments, numbers, a stray byte now and then, and a cut at any point."""
    rarely = st.sampled_from([False] * 7 + [True])
    parts = [draw(st.sampled_from([b"P5", b"P6"]))]
    if draw(rarely):
        parts = [draw(st.sampled_from([b"P4", b"", b"P"]))]
    maxval = (st.sampled_from([b"0255", b"65535"]) | HEADER_NUMBER) if draw(rarely) else st.just(b"255")
    for number in (HEADER_NUMBER, HEADER_NUMBER, maxval):
        gap = draw(HEADER_GAP)
        if draw(rarely):  # "#" alone runs its comment on into what follows
            stray = draw(st.sampled_from([b"\x00", b"x", b"-", b"+", b"\xff", b"#"]))
            gap.insert(draw(st.integers(0, len(gap))), stray)
        parts += gap + [draw(number)]
    parts += draw(HEADER_GAP) if draw(rarely) else [draw(st.sampled_from(SEPARATORS))]
    header = b"".join(parts)
    return header[: draw(st.integers(0, len(header)))] if draw(rarely) else header


@settings(max_examples=400, deadline=None)
@given(header=pnm_headers())
def test_read_pnm_header_matches_the_byte_scanner(tmp_path_factory, header):
    path = tmp_path_factory.getbasetemp() / "header.pnm"
    try:
        magic, width, height, _, _ = scanned_pnm_header(header, path)
        need = width * height * (1 if magic == b"P5" else 3)
    except FormatError:
        need = 0
    # a frame too large to write gets a short payload, and the payload error
    blob = header + (np.arange(min(need, 4096)) % 251).astype(np.uint8).tobytes()
    path.write_bytes(blob)
    try:
        want = scanned_read_pnm(blob, path)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            read_pnm(path)
        assert str(got.value) == str(e)
    else:
        got = read_pnm(path)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def float_write_pnm(frame, path):
    """write_pnm as it was: one (C, H, W) frame clamped, quantized round-half-up
    and written; returns the frame read back."""
    channels, height, width = frame.shape
    data = np.floor(np.clip(frame, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")
    path.write_bytes(header + data.transpose(1, 2, 0).tobytes())
    return data / 255.0


def per_frame_write_video(x, dir_path):
    dir_path.mkdir()
    ext = "pgm" if x.shape[1] == 1 else "ppm"
    return np.stack([float_write_pnm(f, dir_path / f"frame_{i:05d}.{ext}") for i, f in enumerate(x)])


def per_frame_read_video(dir_path):
    return np.stack([float_read_pnm(p) for p in sorted(dir_path.iterdir())])


def frame_bytes(dir_path):
    return {p.name: p.read_bytes() for p in dir_path.iterdir()}


@pytest.mark.parametrize("shape", [(3, 1, 5, 7), (2, 3, 5, 7), (4, 3, 8, 6), (1, 1, 1, 1)])
@pytest.mark.parametrize("threads", [1, 3])
def test_video_io_keeps_the_bytes_of_its_per_frame_float_forms(tmp_path, shape, threads):
    """write_video quantizes and read_video converts the whole video at once;
    the oracles keep the per-frame float forms of read_pnm and write_pnm."""
    x = gaussian_noise(shape, RngSeed(6500)) * 0.6 + 0.5
    # exact ties at every other element: v * 255 is k + 0.5 with no rounding
    k = np.arange(255)
    ties = (k + 0.5) / 255.0
    assert np.array_equal(ties * 255.0, k + 0.5)
    x.flat[::2] = np.resize(ties[::-1], x.flat[::2].size)
    assert x.size == 1 or (x.min() < 0.0 and x.max() > 1.0)
    want = per_frame_write_video(x, tmp_path / "oracle")
    got = write_video(x, tmp_path / "v", threads)
    assert got.tobytes() == want.tobytes()
    assert frame_bytes(tmp_path / "v") == frame_bytes(tmp_path / "oracle")
    assert read_video(tmp_path / "v").tobytes() == per_frame_read_video(tmp_path / "v").tobytes()


def filter_valid(img):
    """Separable Gaussian filter, valid mode: (H, W) -> (H-10, W-10)."""
    out = sliding_window_view(img, 11, axis=0) @ metrics._KERNEL
    return sliding_window_view(out, 11, axis=1) @ metrics._KERNEL


def per_pair_ssim(a, b):
    total = 0.0
    for f in range(a.shape[0]):
        for c in range(a.shape[1]):
            x, y = a[f, c], b[f, c]
            mu_x, mu_y = filter_valid(x), filter_valid(y)
            var_x = filter_valid(x * x) - mu_x * mu_x
            var_y = filter_valid(y * y) - mu_y * mu_y
            cov = filter_valid(x * y) - mu_x * mu_y
            num = (2.0 * mu_x * mu_y + metrics._SSIM_C1) * (2.0 * cov + metrics._SSIM_C2)
            den = (mu_x * mu_x + mu_y * mu_y + metrics._SSIM_C1) * (var_x + var_y + metrics._SSIM_C2)
            total += float(np.mean(num / den))
    return total / (a.shape[0] * a.shape[1])


def diff_spatial_frequency(x):
    n = float(x.shape[2] * x.shape[3])
    row_diff, col_diff = np.diff(x, axis=3), np.diff(x, axis=2)
    rf_sq = np.sum(row_diff * row_diff, axis=(2, 3)) / n
    cf_sq = np.sum(col_diff * col_diff, axis=(2, 3)) / n
    return float(np.mean(np.sqrt(rf_sq + cf_sq)))


def metric_pair(seed, shape):
    return [as_video(np.clip(gaussian_noise(shape, RngSeed(seed, k)) * 0.2 + 0.5, 0, 1))
            for k in (0, 1)]


@pytest.mark.parametrize("shape", [(1, 1, 11, 11), (3, 1, 17, 23), (5, 3, 64, 64), (2, 1, 128, 128)])
@pytest.mark.parametrize("pairs_per_chunk", [None, 4], ids=["default-chunk", "4-pair-chunk"])
def test_ssim_and_spatial_frequency_match_per_pair_oracles(monkeypatch, shape, pairs_per_chunk):
    """Measured: within 2.3e-16.  At 4 pairs a chunk, 5x3 frames end on a chunk of 3."""
    if pairs_per_chunk is not None:
        monkeypatch.setattr(metrics, "_STACK_BYTES", pairs_per_chunk * 5 * shape[2] * shape[3] * 8)
    a, b = metric_pair(6500 + shape[0], shape)
    assert metric_report(a, b).ssim == pytest.approx(per_pair_ssim(a, b), rel=0, abs=1e-12)
    assert metric_report(b, a).ssim == pytest.approx(per_pair_ssim(b, a), rel=0, abs=1e-12)
    for x in (a, b):
        assert spatial_frequency(x) == pytest.approx(diff_spatial_frequency(x), rel=0, abs=1e-12)


def test_stacked_noise_rows_equal_fresh_generator_draws():
    """One generator, re-keyed per row, against a fresh generator per row: a
    short stack after a long one, a row that ends inside a Philox block, and
    keys that repeat (the same object too) must not carry state between rows."""
    a, b, c = RngSeed(6600), RngSeed(6600, 1).substream(3), RngSeed(2**64 - 1, 2**64 - 1)
    for shape, seeds in (
        ((3, 2, 1, 7, 9), [a, b, a]),
        ((4, 1, 1, 1, 3), [b, b, c, b]),
        ((2, 1, 1, 1, 1), [c, RngSeed(2**64 - 1, 2**64 - 1)]),
        ((1, 1, 1, 5, 5), [a]),
    ):
        stack = gaussian_noise(shape, seeds)
        for row, seed in zip(stack, seeds):
            assert row.tobytes() == seed.generator().standard_normal(shape[1:]).tobytes()
    assert gaussian_noise((1, 1, 5, 5), a).tobytes() == a.generator().standard_normal(
        (1, 1, 5, 5)
    ).tobytes()


def test_per_nu_filter_equals_low_pass_per_row():
    """Rows of one nu need not be adjacent; each row equals low_pass of it alone."""
    nus = [0.5, 1.0, 0.5, 0.25]
    x = gaussian_noise((4, 2, 1, 9, 8), [RngSeed(6700, b) for b in range(4)])
    for row_nus in (nus, [0.5] * 4, [1.0] * 4):
        low = _low_pass_rows(x, row_nus)
        assert low.shape == x.shape
        for got, row, nu in zip(low, x, row_nus):
            assert got.tobytes() == low_pass(row, nu).tobytes()


def fresh_filter_rows(s):
    """The filter pass that returns a new array: a GEMV per output row, then
    a C-order copy with the last two axes swapped."""
    out = sliding_window_view(s, 11, axis=-2) @ metrics._KERNEL
    return np.ascontiguousarray(np.swapaxes(out, -1, -2))


def fresh_ssim_plane_means(a, b, stack_bytes=256 * 1024):
    """Pair means with a new stack, new filter outputs and a new array for
    every term of the formula, chunk by chunk."""
    height, width = b.shape[-2:]
    xs, ys = a.reshape(-1, height, width), b.reshape(-1, height, width)
    chunk = max(1, stack_bytes // (5 * xs[0].nbytes))
    means = np.empty(len(xs))
    for start in range(0, len(xs), chunk):
        stop = min(start + chunk, len(xs))
        stack = np.empty((5, stop - start, height, width))
        x, y = stack[0], stack[1]
        x[...] = xs[start:stop]
        np.take(ys, range(start, stop), axis=0, out=y, mode="wrap")
        np.multiply(x, x, out=stack[2])
        np.multiply(y, y, out=stack[3])
        np.multiply(x, y, out=stack[4])
        mu_x, mu_y, xx, yy, xy = fresh_filter_rows(fresh_filter_rows(stack))
        var_x = xx - mu_x * mu_x
        var_y = yy - mu_y * mu_y
        cov = xy - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + metrics._SSIM_C1) * (2.0 * cov + metrics._SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + metrics._SSIM_C1) * (var_x + var_y + metrics._SSIM_C2)
        means[start:stop] = np.mean(num / den, axis=(1, 2))
    return means


def two_diff_spatial_frequency(x):
    """Spatial frequency from one np.diff of the whole video per direction."""
    n = float(x.shape[2] * x.shape[3])
    row_diff, col_diff = np.diff(x, axis=3), np.diff(x, axis=2)
    rf_sq = np.einsum("fchw,fchw->fc", row_diff, row_diff) / n
    cf_sq = np.einsum("fchw,fchw->fc", col_diff, col_diff) / n
    return float(np.mean(np.sqrt(rf_sq + cf_sq)))


def fresh_report(a, b):
    """metric_report with diff*diff and low*low as new arrays and the two
    fresh forms above; a report or a list of them, as metric_report gives."""
    rows = a if a.ndim == 5 else a[None]
    diff = rows - b
    mses = np.mean(diff * diff, axis=(1, 2, 3, 4))
    low = low_pass(diff, 0.5)
    mse_lows = np.mean(low * low, axis=(1, 2, 3, 4))
    ssims = fresh_ssim_plane_means(rows, b).reshape(len(rows), -1)
    sf_b = two_diff_spatial_frequency(b)
    reports = []
    for row, mse, mse_low_, pair_means in zip(rows, mses, mse_lows, ssims):
        sf_a = two_diff_spatial_frequency(row)
        ssim = 0.0
        for mean in pair_means:
            ssim += float(mean)
        reports.append(metrics.MetricReport(
            mse=float(mse), mse_low=float(mse_low_), ssim=ssim / len(pair_means),
            sf_a=sf_a, sf_b=sf_b, d_sf=sf_a - sf_b,
        ))
    return reports if a.ndim == 5 else reports[0]


@pytest.mark.parametrize(
    "shape",
    [(1, 1, 11, 11), (3, 1, 17, 23), (5, 3, 64, 64), (2, 1, 128, 128), (5, 1, 128, 128),
     (6, 4, 1, 16, 16)],
)
@pytest.mark.parametrize("budget", ["default", "3-pairs", "1-pair", "under-1-pair"])
def test_scorer_keeps_the_bytes_of_its_fresh_array_forms(monkeypatch, shape, budget):
    """Every pair mean, spatial frequency and report field, byte for byte,
    whatever the chunk budget: 17x23 frames are not a multiple of 4 wide,
    5x1x128x128 ends its frame chunks on one frame, and the stack's 4-pair
    rows are split by chunks of 3 pairs and spanned by the default's."""
    pair_bytes = 5 * shape[-2] * shape[-1] * 8
    budgets = {"3-pairs": 3 * pair_bytes, "1-pair": pair_bytes, "under-1-pair": pair_bytes - 8}
    if budget in budgets:
        monkeypatch.setattr(metrics, "_STACK_BYTES", budgets[budget])
        monkeypatch.setattr(metrics, "_DIFF_BYTES", budgets[budget] // 5)
    # uniform frames, not metric_pair's: on these, regrouping one sum of the
    # formula moves some pair means, where on metric_pair's it moved none
    a = _freeze(RngSeed(7100, 0).generator().random(shape))
    b = _freeze(RngSeed(7100, 1).generator().random(shape[-4:]))
    rows = len(shape) == 5
    stack = a if rows else a[None]
    got_means = metrics._ssim_plane_means(stack, b)
    assert got_means.tobytes() == fresh_ssim_plane_means(stack, b).tobytes()
    for x in [b] + list(stack):
        assert repr(spatial_frequency(x)) == repr(two_diff_spatial_frequency(x))
    got, want = metric_report(a, b), fresh_report(a, b)
    if not rows:
        got, want = [got], [want]
    assert [r.to_json() for r in got] == [r.to_json() for r in want]


def per_run_ssim(a, b):
    """SSIM of one run, its pairs in chunks of at most metrics._STACK_BYTES of maps."""
    total = 0.0
    for mean in fresh_ssim_plane_means(a[None], b, metrics._STACK_BYTES):
        total += float(mean)
    return total / (a.shape[0] * a.shape[1])


def per_run_report(a, b):
    """The report of one run from its per-metric functions, sf_b included."""
    sf_a, sf_b = spatial_frequency(a), spatial_frequency(b)
    return metrics.MetricReport(
        mse=mse_low(a, b, 1.0), mse_low=mse_low(a, b), ssim=per_run_ssim(a, b),
        sf_a=sf_a, sf_b=sf_b, d_sf=sf_a - sf_b,
    )


def as_video_stack(noise):
    """Noise moved into [0, 1], as a read-only stack."""
    return _freeze(np.clip(noise * 0.2 + 0.5, 0, 1))


@pytest.mark.parametrize(
    "shape", [(3, 2, 3, 17, 23), (3, 1, 1, 255, 255), (2, 3, 3, 33, 47), (4, 1, 1, 11, 11)]
)
@pytest.mark.parametrize("pairs_per_chunk", [None, 4], ids=["default-chunk", "4-pair-chunk"])
def test_stacked_metric_report_equals_per_run_reports(monkeypatch, shape, pairs_per_chunk):
    """Every field of every row, byte for byte.  At 4 pairs a chunk, SSIM
    chunks cross rows of 6 and 9 pairs and split them."""
    if pairs_per_chunk is not None:
        monkeypatch.setattr(metrics, "_STACK_BYTES", pairs_per_chunk * 5 * shape[-2] * shape[-1] * 8)
    seeds = [RngSeed(6800 + shape[0], k) for k in range(shape[0])]
    stack = as_video_stack(gaussian_noise(shape, seeds))
    ref = metric_pair(6900 + shape[0], shape[1:])[0]
    reports = metric_report(stack, ref)
    assert len(reports) == shape[0]
    for report, row in zip(reports, stack):
        want = per_run_report(row, ref).to_json()  # json writes each float's repr
        assert report.to_json() == want
        assert metric_report(row, ref).to_json() == want  # a run is the stack of one

