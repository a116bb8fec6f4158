import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisecal import NumericError, RngSeed, as_video, gaussian_noise, l2_norm


def test_as_video_accepts_rank4_and_freezes():
    x = as_video(np.zeros((2, 3, 4, 5)))
    assert x.shape == (2, 3, 4, 5)
    assert x.dtype == np.float64
    assert not x.flags.writeable


def test_as_video_rejects_wrong_rank():
    with pytest.raises(ValueError):
        as_video(np.zeros((3, 4, 5)))
    with pytest.raises(ValueError):
        as_video(np.zeros((1, 1, 1, 1, 1)))


def test_as_video_rejects_empty_dims():
    with pytest.raises(ValueError):
        as_video(np.zeros((0, 1, 4, 4)))


def test_as_video_rejects_nan_and_inf():
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        as_video(bad)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        as_video(bad)


def test_l2_norm():
    x = as_video(np.full((1, 1, 2, 2), 3.0))
    assert l2_norm(x) == pytest.approx(6.0)
    assert l2_norm(as_video(np.zeros((1, 1, 2, 2)))) == 0.0


def test_gaussian_noise_deterministic():
    a = gaussian_noise((2, 1, 4, 4), RngSeed(7, 3))
    b = gaussian_noise((2, 1, 4, 4), RngSeed(7, 3))
    assert np.array_equal(a, b)


def test_gaussian_noise_streams_differ():
    a = gaussian_noise((1, 1, 8, 8), RngSeed(7, 0))
    b = gaussian_noise((1, 1, 8, 8), RngSeed(7, 1))
    c = gaussian_noise((1, 1, 8, 8), RngSeed(8, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_is_order_sensitive_and_stable():
    root = RngSeed(123)
    assert root.substream(1, 2) == root.substream(1, 2)
    assert root.substream(1, 2) != root.substream(2, 1)
    assert root.substream(5) != root.substream(5, 5)


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)
    with pytest.raises(ValueError):
        RngSeed(1.5)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_substreams_with_distinct_tokens_decorrelate(seed, token):
    root = RngSeed(seed)
    a = gaussian_noise((1, 1, 4, 4), root.substream(token))
    b = gaussian_noise((1, 1, 4, 4), root.substream(token + 1))
    assert not np.array_equal(a, b)
