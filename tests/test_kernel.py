"""The block kernel of the search deciders: its chunked enumeration keeps
the order of ``_iter_tuples``, and its memory stays bounded on lopsided
Laurent windows."""

import tracemalloc

import numpy as np
import pytest

from skewarm import PropertyId, check_property, identity_endomorphism, make_zmod
from skewarm.deciders import _iter_tuples, _tuple_chunks


def first_nonzero(t, zero):
    return next(c for c in t if c != zero)


@pytest.mark.parametrize(
    "n, length, last_nonzero, zero",
    [
        (2, 4, False, 0),
        (2, 4, True, 1),
        (3, 3, True, 0),
        (4, 3, False, 2),
        (5, 2, True, 4),
        (300, 2, False, 7),
    ],
)
@pytest.mark.parametrize("step", [1, 7, 1 << 20])
def test_chunks_follow_iter_tuples(n, length, last_nonzero, zero, step):
    dtype = np.min_scalar_type(n - 1)
    values = [v for v in range(n) if v != zero]
    for heads in (values, values[1::2], values[-1:], []):
        expected = [
            t
            for t in _iter_tuples(n, length, last_nonzero, zero)
            if first_nonzero(t, zero) in heads
        ]
        chunks = list(
            _tuple_chunks(
                n, length, last_nonzero, zero, np.array(heads, dtype=dtype), step, dtype
            )
        )
        assert all(1 <= len(c) <= step and c.dtype == dtype for c in chunks)
        assert [tuple(row) for c in chunks for row in c.tolist()] == expected


def decide_with_peak(ring, window):
    """The verdict on the Laurent window and the peak traced allocation."""
    tracemalloc.start()
    try:
        verdict = check_property(
            ring, identity_endomorphism(ring), PropertyId.LAURENT_Q_ALPHA_SKEW, window=window
        )
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lopsided_window_without_allowed_heads_builds_no_q():
    # 2**26 nominal tuples, within the default budget.  The only p is 1, and
    # 1·R·1 != 0 in Z2, so the prefix rule allows no q at all: none of the
    # 2**25 candidate q (840 MB as one uint8 array) may be built.
    verdict, peak = decide_with_peak(make_zmod(2), (0, 0, 0, 24))
    assert verdict.holds
    assert peak < 1 << 20


def test_lopsided_window_decides_in_bounded_chunks():
    # In Z4 the p = 2 allows the q with head 2: about 5.6 M of them, 61 MB
    # as one uint8 array, before the bool mask over them.  Chunking keeps
    # the peak well below that.
    verdict, peak = decide_with_peak(make_zmod(4), (0, 0, 0, 10))
    assert verdict.holds
    assert peak < 48 << 20
