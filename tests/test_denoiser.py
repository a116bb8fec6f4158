import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import ConstantDenoiser, CountingDenoiser
from memory import traced_peak
from noisecal import (
    FormatError,
    GmmDenoiser,
    NoiseSchedule,
    RngSeed,
    as_video,
    gaussian_noise,
    linear_beta_schedule,
    write_tensor,
)
from test_oracles import LATE_CASES, late_level_case


def one_pixel(v: float):
    return as_video(np.full((1, 1, 1, 1), v))


@pytest.fixture(scope="module")
def quarter_sched():
    # alpha_bar[1] = 0.25 for the hand-worked examples
    return NoiseSchedule(alpha_bar=np.array([1.0, 0.25]))


def test_posterior_mean_single_component(quarter_sched):
    # mu=0, sigma^2=1, abar=0.25, x_t=1 -> 0.5
    d = GmmDenoiser([(1.0, one_pixel(0.0), 1.0)])
    out = d.posterior_mean(one_pixel(1.0), 1, quarter_sched)
    assert out.ravel()[0] == pytest.approx(0.5, abs=1e-12)


def test_posterior_mean_symmetry(quarter_sched):
    mu = as_video(np.full((1, 1, 2, 2), 1.5))
    neg = as_video(-np.asarray(mu))
    d = GmmDenoiser([(0.5, mu, 0.0), (0.5, neg, 0.0)])
    out = d.posterior_mean(as_video(np.zeros((1, 1, 2, 2))), 1, quarter_sched)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_zero_variance_output_is_convex_combination(quarter_sched):
    rng = RngSeed(3)
    mus = [gaussian_noise((1, 1, 3, 3), rng.substream(i)) for i in range(3)]
    d = GmmDenoiser([(1 / 3, m, 0.0) for m in mus])
    out = d.posterior_mean(gaussian_noise((1, 1, 3, 3), rng.substream(9)), 1, quarter_sched)
    stack = np.stack(mus).reshape(3, -1)
    coef, *_ = np.linalg.lstsq(stack.T, np.asarray(out).ravel(), rcond=None)
    assert np.allclose(stack.T @ coef, np.asarray(out).ravel(), atol=1e-9)
    assert coef.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(coef > -1e-12)


def test_predict_eps_single_component(quarter_sched):
    d = GmmDenoiser([(1.0, one_pixel(0.0), 1.0)])
    out = d.predict_eps(one_pixel(1.0), 1, quarter_sched)
    assert out.ravel()[0] == pytest.approx(0.8660254037844386, abs=1e-12)


def test_predict_eps_rejects_t0(quarter_sched):
    d = GmmDenoiser([(1.0, one_pixel(0.0), 1.0)])
    with pytest.raises(ValueError):
        d.predict_eps(one_pixel(1.0), 0, quarter_sched)


def test_posterior_mean_rejects_a_shape_the_mixture_does_not_have(quarter_sched):
    # the means are (3, 1, 2, 2): another (C, H, W), or a frame count that is
    # neither 1 nor 3, is named as a mismatch, for a run and for a stack
    d = GmmDenoiser([(1.0, gaussian_noise((3, 1, 2, 2), RngSeed(3)), 0.5)])
    for x_t in (
        gaussian_noise((3, 1, 2, 3), RngSeed(4)),
        gaussian_noise((2, 1, 2, 2), RngSeed(5)),
        gaussian_noise((2, 2, 1, 2, 2), [RngSeed(6), RngSeed(7)]),
    ):
        with pytest.raises(ValueError, match="shape mismatch"):
            d.posterior_mean(x_t, 1, quarter_sched)


def test_constant_denoiser(quarter_sched):
    c = gaussian_noise((1, 1, 2, 2), RngSeed(1))
    d = ConstantDenoiser(c)
    out = d.predict_eps(gaussian_noise((1, 1, 2, 2), RngSeed(2)), 1, quarter_sched)
    assert np.array_equal(out, c)
    with pytest.raises(ValueError, match="shape mismatch"):
        d.predict_eps(gaussian_noise((1, 1, 2, 3), RngSeed(2)), 1, quarter_sched)


def test_eps_zero_at_scaled_mean(quarter_sched):
    mu = gaussian_noise((1, 1, 2, 2), RngSeed(5))
    d = GmmDenoiser([(1.0, mu, 0.0)])
    x_t = as_video(quarter_sched.signal_scale(1) * mu)
    out = d.predict_eps(x_t, 1, quarter_sched)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_empty_component_list_rejected():
    with pytest.raises(ValueError):
        GmmDenoiser([])


def test_component_validation():
    with pytest.raises(ValueError):
        GmmDenoiser([(0.0, one_pixel(0.0), 1.0)])
    with pytest.raises(ValueError):
        GmmDenoiser([(1.0, one_pixel(0.0), -0.1)])
    with pytest.raises(ValueError):
        GmmDenoiser([(0.5, one_pixel(0.0), 1.0), (0.5, as_video(np.zeros((1, 1, 2, 2))), 1.0)])


@pytest.mark.parametrize("field", ["weight", "variance"])
@pytest.mark.parametrize("bad", [True, "0.5", None, float("nan"), float("inf"), -float("inf")])
def test_components_in_memory_meet_the_spec_loaders_number_rule(tmp_path, field, bad):
    # both constructors reject the same numbers, naming the component, before any
    # denoiser call; the loader checks component 1 before reading its mean file
    numbers = {"weight": 0.5, "variance": 0.1, field: bad}
    with pytest.raises(ValueError, match=f"component 1 {field} must be a finite number"):
        GmmDenoiser([(1.0, one_pixel(0.0), 0.0), (numbers["weight"], one_pixel(1.0), numbers["variance"])])
    write_tensor(one_pixel(0.0), tmp_path / "m0.vnt")
    spec = [{"weight": 1.0, "mean": "m0.vnt"}, {"mean": "missing.vnt", **numbers}]
    (tmp_path / "mix.json").write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=f"mix.json: component 1 {field} must be a finite number"):
        GmmDenoiser.from_json_spec(tmp_path / "mix.json")


def test_numpy_scalar_weights_and_variances_give_the_float_bytes():
    means = [one_pixel(0.0), one_pixel(1.0)]
    plain = GmmDenoiser([(2, means[0], 1.0), (6.0, means[1], 0)])
    for kind in (np.float64, np.float32, np.int64):
        d = GmmDenoiser([(kind(2), means[0], kind(1)), (kind(6), means[1], kind(0))])
        for name in ("weights", "variances", "means"):
            assert getattr(d, name).tobytes() == getattr(plain, name).tobytes(), (kind, name)


def test_weights_whose_sum_overflows_rejected():
    # 1e308 + 1e308 is inf: normalizing would give zero weights and a NaN posterior
    with pytest.raises(ValueError, match="finite sum"):
        GmmDenoiser([(1e308, one_pixel(0.0), 1.0), (1e308, one_pixel(1.0), 1.0)])


def test_weights_normalized():
    d = GmmDenoiser([(2.0, one_pixel(0.0), 1.0), (6.0, one_pixel(1.0), 1.0)])
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.weights[1] == pytest.approx(0.75)


def test_responsibility_stability_for_far_means(sched):
    # means 2e6 apart must not overflow the softmax, and the expanded square
    # ||x - root*m||^2 must keep the winning mean's single-component closed form
    d = GmmDenoiser([(0.5, one_pixel(-1e6), 1.0), (0.5, one_pixel(1e6), 1.0)])
    abar, v = float(sched.alpha_bar[500]), 1.0
    root = np.sqrt(abar)
    gain = root * v / (abar * v + 1.0 - abar)
    for x in (1e6, 2e5, -1e6):
        out = d.posterior_mean(one_pixel(x), 500, sched)
        assert np.isfinite(out).all()
        m = np.copysign(1e6, x)
        np.testing.assert_allclose(out, m + gain * (x - root * m), rtol=1e-12, err_msg=str(x))


_SCHED = linear_beta_schedule(1000, 1e-4, 0.02)


@pytest.mark.parametrize("rows,t", LATE_CASES)
def test_output_product_takes_no_subnormal_weight(monkeypatch, rows, t):
    # far components' output weights underflow at late levels; a subnormal
    # operand would cost the output product a microcode assist per multiply
    seen = []
    real = np.matmul

    def spy(a, b, *args, **kwargs):
        if np.ndim(a) == 4:  # the (B, 1, 1, n) weights against the (F, n, D) means
            seen.append(np.array(a))
        return real(a, b, *args, **kwargs)

    d, x_t = late_level_case(rows, t)
    monkeypatch.setattr(np, "matmul", spy)
    d.posterior_mean(x_t, t, _SCHED)
    assert len(seen) == 1
    assert seen[0].shape == (len(x_t) if rows else 1, 1, 1, len(d.means))  # every column kept
    assert not np.any((seen[0] > 0) & (seen[0] < np.finfo(np.float64).tiny))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 1000))
def test_eps_x0_identity(seed, t):
    """signal*x0_hat + noise*eps_pred recomposes x_t exactly."""
    rng = RngSeed(seed)
    d = GmmDenoiser(
        [
            (0.3, gaussian_noise((1, 2, 3, 3), rng.substream(1)), 0.5),
            (0.7, gaussian_noise((1, 2, 3, 3), rng.substream(2)), 0.2),
        ]
    )
    x_t = gaussian_noise((1, 2, 3, 3), rng.substream(3))
    x0 = d.posterior_mean(x_t, t, _SCHED)
    eps = d.predict_eps(x_t, t, _SCHED)
    recomposed = _SCHED.signal_scale(t) * x0 + _SCHED.noise_scale(t) * eps
    assert np.allclose(recomposed, x_t, atol=1e-10)


@pytest.mark.parametrize("mean_frames", [1, 8])
def test_posterior_mean_peak_memory_is_a_few_inputs(sched, mean_frames):
    """No per-component or centred-copy temporary: one call on 8x1x64x64 with
    32 components peaks below 1.5x the input's bytes (the broadcast form: ~2n x)."""
    rng = RngSeed(21)
    d = GmmDenoiser(
        [(1.0, gaussian_noise((mean_frames, 1, 64, 64), rng.substream(k)), 0.3) for k in range(32)]
    )
    x_t = gaussian_noise((8, 1, 64, 64), rng.substream(99))
    peak, _ = traced_peak(d.posterior_mean, x_t, 500, sched)
    assert peak < 1.5 * x_t.nbytes


def test_counting_denoiser(quarter_sched):
    inner = GmmDenoiser([(1.0, one_pixel(0.0), 1.0)])
    c = CountingDenoiser(inner)
    assert c.calls == 0
    c.predict_eps(one_pixel(1.0), 1, quarter_sched)
    c.predict_eps(one_pixel(2.0), 1, quarter_sched)
    assert c.calls == 2
    assert np.array_equal(
        c.predict_eps(one_pixel(1.0), 1, quarter_sched),
        inner.predict_eps(one_pixel(1.0), 1, quarter_sched),
    )


def test_from_json_spec_loader(tmp_path):
    rng = RngSeed(12)
    m0 = gaussian_noise((2, 1, 4, 4), rng.substream(0))
    m1 = gaussian_noise((2, 1, 4, 4), rng.substream(1))
    write_tensor(m0, tmp_path / "m0.vnt")
    write_tensor(m1, tmp_path / "m1.vnt")
    spec = [
        {"weight": 1.0, "mean": "m0.vnt", "variance": 0.5},
        {"weight": 3.0, "mean": "m1.vnt"},
    ]
    (tmp_path / "mix.json").write_text(json.dumps(spec))
    d = GmmDenoiser.from_json_spec(tmp_path / "mix.json")
    assert d.weights[1] == pytest.approx(0.75)
    assert d.variances[1] == 0.0
    assert np.allclose(d.means[0], m0, atol=1e-7)  # float32 storage


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_from_json_spec_checks_every_file_against_the_first(tmp_path, bad):
    # a later file's payload goes straight into its row of the means
    write_tensor(gaussian_noise((2, 1, 4, 4), RngSeed(13)), tmp_path / "m0.vnt")
    if bad == "nan":  # write_tensor writes no NaN, so this file is written by hand
        payload = np.full((2, 1, 4, 4), np.nan, dtype="<f4").tobytes()
        (tmp_path / "m1.vnt").write_bytes(b"VNT1" + struct.pack("<5I", 4, 2, 1, 4, 4) + payload)
    else:
        write_tensor(np.zeros((2, 1, 4, 3)), tmp_path / "m1.vnt")
    spec = [{"weight": 1.0, "mean": "m0.vnt"}, {"weight": 1.0, "mean": "m1.vnt"}]
    (tmp_path / "mix.json").write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="m1.vnt") as info:
        GmmDenoiser.from_json_spec(tmp_path / "mix.json")
    # NaN is the file's fault (exit 2); a shape that fits no row is the spec's (exit 1)
    assert isinstance(info.value, FormatError) == (bad == "nan")


def test_from_json_spec_rejects_unknown_keys(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps([{"weight": 1, "mean": "x", "extra": 2}]))
    with pytest.raises(ValueError):
        GmmDenoiser.from_json_spec(tmp_path / "bad.json")
