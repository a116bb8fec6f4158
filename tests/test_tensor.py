import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisecal import NumericError, RngSeed, as_video, gaussian_noise, l2_norm
from noisecal.tensor import _map


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
    bad[0, 0, 0, 0] = np.nan
    bad.flags.writeable = False  # a read-only float64 array is copied and checked alike
    with pytest.raises(NumericError):
        as_video(bad)


def test_as_video_copies_a_read_only_video():
    x = np.arange(6.0).reshape(1, 1, 2, 3)
    x.flags.writeable = False
    y = as_video(x)
    assert y is not x and not np.shares_memory(x, y)
    assert y.dtype == np.float64 and not y.flags.writeable
    assert y.tobytes() == x.tobytes()


def test_as_video_gives_one_message_for_nan_whatever_the_writeable_flag():
    messages = []
    for writeable in (True, False):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 1, 1] = np.nan
        bad.flags.writeable = writeable
        with pytest.raises(NumericError) as info:
            as_video(bad)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


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


def test_stacked_noise_rows_are_each_streams_draw():
    seeds = [RngSeed(7, b) for b in range(3)]
    stack = gaussian_noise((3, 2, 1, 4, 5), seeds)
    for row, seed in zip(stack, seeds):
        assert row.tobytes() == gaussian_noise((2, 1, 4, 5), seed).tobytes()
    with pytest.raises(ValueError):
        gaussian_noise((2, 2, 1, 4, 5), seeds)  # one stream per row
    with pytest.raises(ValueError):
        gaussian_noise((3, 2, 1, 4, 5), seeds[0])
    with pytest.raises(ValueError):
        gaussian_noise((2, 1, 4, 5), seeds[:1])  # a run takes one stream, not a list


# ---------------------------------------------------------------- _map


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_map_keeps_item_order(threads):
    def late_first(i):  # the early items finish last
        time.sleep(0.002 * (6 - i))
        return i * i

    assert _map(late_first, range(6), threads) == [i * i for i in range(6)]


@pytest.mark.parametrize("threads,items", [(1, 3), (4, 1)], ids=["one-thread", "one-item"])
def test_map_runs_in_the_calling_thread_when_one_worker_would_do(threads, items):
    assert _map(lambda _: threading.get_ident(), range(items), threads) == [
        threading.get_ident()
    ] * items


def test_map_runs_on_a_pool_for_more_items_than_one_thread():
    idents = _map(lambda _: threading.get_ident(), range(3), 2)
    assert threading.get_ident() not in idents


def test_map_failure_stops_the_items_not_yet_begun():
    """Item 0 fails once item 1 holds the other worker, and item 1 holds it
    until item 0 has failed, so each worker is free for a later item only
    after the failure: none of them may call fn, and item 0's error is the
    one raised."""
    began, one_began, zero_failing = set(), threading.Event(), threading.Event()

    def fn(i):
        began.add(i)
        if i == 0:
            one_began.wait(1)
            zero_failing.set()
            raise KeyError("item 0")
        if i == 1:
            one_began.set()
            assert zero_failing.wait(10)
            time.sleep(0.05)  # item 0's raise reaches its worker's guard
        return i

    with pytest.raises(KeyError, match="item 0"):
        _map(fn, range(6), 2)
    assert 0 in began and began <= {0, 1}
