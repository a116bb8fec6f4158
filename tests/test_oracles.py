"""Band split, calibration update and ancestral chain against earlier forms.

The package filters on the real FFT's half-plane and filters one difference
per band comparison.  The oracles below keep the earlier forms: a full-plane
complex fft2/ifft2 masked filter whose imaginary residue is checked, and a
calibration update that filters reference and estimate separately.  The
package's ancestral chain is denoise_from on the full grid at eta=1; the
oracle keeps the dedicated DDPM step (posterior mean plus posterior variance)
and the T-to-0 chain built on it.  A mixture of one-frame means applies to
every frame of a video; the oracle repeats each mean along the frame axis.
"""

import numpy as np
import pytest

from noisecal import (
    CalibrationConfig,
    GmmDenoiser,
    RngSeed,
    SamplerConfig,
    calibrate_noise,
    content_objective,
    ddim_grid,
    denoise_from,
    estimate_x0,
    frequency_mask,
    gaussian_noise,
    high_pass,
    l2_norm,
    linear_beta_schedule,
    low_pass,
    mse_low,
    replace_low_freq,
    sdedit_init,
)
from noisecal.tensor import _freeze

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
    x_t0 = sdedit_init(x_ref, t0, eps, s)
    eps_pred = d.predict_eps(x_t0, t0, s)
    x0_hat = estimate_x0(x_t0, t0, eps_pred, s)
    objective = np.linalg.norm((oracle_low(x_ref, nu) - oracle_low(x0_hat, nu)).ravel())
    coef = s.signal_scale(t0) / s.noise_scale(t0)
    return objective, eps_pred + coef * (oracle_high(x0_hat, nu) - oracle_high(x_ref, nu))


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
    np.testing.assert_allclose(high_pass(a, nu), oracle_high(a, nu), rtol=0, atol=1e-12)
    gap = oracle_low(a, nu) - oracle_low(b, nu)
    assert content_objective(a, b, nu) == pytest.approx(l2_norm(gap), rel=1e-12, abs=1e-12)
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
def test_high_pass_full_band_is_exactly_zero(h, w):
    a, _ = pair(h, w, 3000 * h + w)
    assert not high_pass(a, 1.0).any()


def test_cached_mask_is_read_only():
    m = frequency_mask(8, 8, 0.5)
    with pytest.raises(ValueError):
        m[0, 0] = False
    assert frequency_mask(8, 8, 0.5)[0, 0]


def ddpm_step(x_t, t, d, s, rng):
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
    got, _ = denoise_from(x_start, ddim_grid(s, big_t, big_t), d, s, cfg)
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
