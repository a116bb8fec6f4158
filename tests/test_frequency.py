"""Band splitting: masks, filters, and the content objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisecal import (
    RngSeed,
    as_video,
    blurred,
    content_objective,
    frequency_mask,
    gaussian_noise,
    high_pass,
    l2_norm,
    low_pass,
)


def nyquist_columns(n=8):
    """Frame whose columns alternate sign: a single bin at radius 1."""
    row = np.cos(np.pi * np.arange(n))
    return as_video(np.tile(row, (1, 1, n, 1)))


# ---------------------------------------------------------------- masks


def test_mask_nu0_is_empty():
    m = frequency_mask(8, 8, 0.0)
    assert not m.any()


def test_mask_nu1_is_full():
    m = frequency_mask(8, 8, 1.0)
    assert m.all()


def test_mask_dc_passes_for_any_positive_nu():
    for nu in (1e-9, 0.1, 0.5):
        assert frequency_mask(7, 5, nu)[0, 0]


def test_mask_nesting():
    cuts = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    for lo, hi in zip(cuts, cuts[1:]):
        a = frequency_mask(9, 12, lo)
        b = frequency_mask(9, 12, hi)
        assert (a <= b).all()


def test_mask_conjugate_symmetric():
    # mask[k] must equal mask[-k] so real input filters to real output
    for h, w in [(8, 8), (7, 5), (6, 9)]:
        m = frequency_mask(h, w, 0.4)
        flipped = m[np.ix_((-np.arange(h)) % h, (-np.arange(w)) % w)]
        assert (m == flipped).all()


def test_mask_nyquist_bin_needs_full_cutoff():
    # even axis: the Nyquist bin sits exactly at radius 1
    assert not frequency_mask(8, 8, 0.999)[4, 0]
    assert frequency_mask(8, 8, 1.0)[4, 0]


def test_mask_validation():
    with pytest.raises(ValueError):
        frequency_mask(8, 8, -0.1)
    with pytest.raises(ValueError):
        frequency_mask(8, 8, 1.5)
    with pytest.raises(ValueError):
        frequency_mask(0, 4, 0.5)


def test_mask_cache_returns_same_object():
    assert frequency_mask(8, 8, 0.5) is frequency_mask(8, 8, 0.5)


# ---------------------------------------------------------------- filters


def test_low_pass_constant_is_preserved():
    x = as_video(np.full((2, 1, 8, 8), 3.25))
    for nu in (0.1, 0.5, 1.0):
        np.testing.assert_allclose(low_pass(x, nu), x, atol=1e-10)


def test_blurred_constant_is_mid_grey():
    # a flat field has no range to rescale into [0.25, 0.75]: it maps to 0.5
    out = blurred(as_video(np.full((2, 1, 6, 6), 3.0)))
    assert np.array_equal(out, np.full((2, 1, 6, 6), 0.5))


def test_low_pass_nu1_is_identity():
    x = gaussian_noise((1, 2, 8, 8), RngSeed(40))
    np.testing.assert_allclose(low_pass(x, 1.0), x, atol=1e-10)


def test_low_pass_nyquist_cosine_removed():
    x = nyquist_columns()
    np.testing.assert_allclose(low_pass(x, 0.5), 0.0, atol=1e-10)


def test_high_pass_nu1_is_zero():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(41))
    np.testing.assert_allclose(high_pass(x, 1.0), 0.0, atol=1e-10)


def test_high_pass_nu0_is_identity():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(42))
    np.testing.assert_allclose(high_pass(x, 0.0), x, atol=1e-10)


def test_high_pass_keeps_nyquist_cosine():
    x = nyquist_columns()
    np.testing.assert_allclose(high_pass(x, 0.5), x, atol=1e-10)


def test_filters_work_on_odd_sizes():
    x = gaussian_noise((1, 1, 7, 9), RngSeed(43))
    np.testing.assert_allclose(low_pass(x, 1.0), x, atol=1e-10)
    np.testing.assert_allclose(low_pass(x, 0.3) + high_pass(x, 0.3), x, atol=1e-10)


# ---------------------------------------------------------------- objective


def test_objective_zero_on_identical_inputs():
    x = gaussian_noise((1, 1, 8, 8), RngSeed(44))
    assert content_objective(x, x, 0.7) == 0.0


def test_objective_zero_at_nu0():
    a = gaussian_noise((1, 1, 8, 8), RngSeed(45))
    b = gaussian_noise((1, 1, 8, 8), RngSeed(46))
    assert content_objective(a, b, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_objective_nu1_is_plain_l2():
    a = gaussian_noise((1, 1, 8, 8), RngSeed(47))
    b = gaussian_noise((1, 1, 8, 8), RngSeed(48))
    assert content_objective(a, b, 1.0) == pytest.approx(l2_norm(a - b), abs=1e-9)


def test_objective_shape_mismatch():
    a = gaussian_noise((1, 1, 8, 8), RngSeed(49))
    b = gaussian_noise((1, 1, 8, 9), RngSeed(50))
    with pytest.raises(ValueError):
        content_objective(a, b, 0.5)


# ---------------------------------------------------------------- properties

_nu = st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.8, 1.0])
_dim = st.sampled_from([4, 5, 8, 9])


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), _nu, _dim, _dim)
def test_split_reconstructs_exactly(seed, nu, h, w):
    x = gaussian_noise((1, 1, h, w), RngSeed(seed))
    np.testing.assert_allclose(low_pass(x, nu) + high_pass(x, nu), x, atol=1e-10)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), _nu, _dim, _dim)
def test_low_pass_idempotent(seed, nu, h, w):
    x = gaussian_noise((1, 1, h, w), RngSeed(seed))
    once = low_pass(x, nu)
    np.testing.assert_allclose(low_pass(once, nu), once, atol=1e-10)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), _nu, _dim, _dim)
def test_energy_split_parseval(seed, nu, h, w):
    x = gaussian_noise((1, 1, h, w), RngSeed(seed))
    total = l2_norm(x) ** 2
    parts = l2_norm(low_pass(x, nu)) ** 2 + l2_norm(high_pass(x, nu)) ** 2
    assert parts == pytest.approx(total, rel=1e-9)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(0, 5))
def test_band_nesting(seed, i, j):
    cuts = [0.0, 0.2, 0.4, 0.5, 0.8, 1.0]
    nu1, nu2 = sorted((cuts[i], cuts[j]))
    x = gaussian_noise((1, 1, 8, 8), RngSeed(seed))
    np.testing.assert_allclose(
        low_pass(x, nu1), low_pass(low_pass(x, nu2), nu1), atol=1e-10
    )


@settings(max_examples=40)
@given(
    st.integers(0, 2**32 - 1),
    _nu,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
def test_low_pass_linearity(seed, nu, a, b):
    rng = RngSeed(seed)
    x = gaussian_noise((1, 1, 8, 8), rng.substream(0))
    y = gaussian_noise((1, 1, 8, 8), rng.substream(1))
    lhs = low_pass(a * x + b * y, nu)
    rhs = a * low_pass(x, nu) + b * low_pass(y, nu)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
