"""The tracemalloc peak of one call, for the memory tests."""

import tracemalloc


def traced_peak(fn, *args):
    """(peak bytes, result) of fn(*args), traced by tracemalloc.

    An untraced call goes first, so that caches and lazy imports do not
    count.  Nothing allocated before the traced call counts, its arguments
    included; its result counts as it is built.
    """
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
