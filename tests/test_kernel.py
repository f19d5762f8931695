"""The block kernel of the search deciders: its chunked enumeration keeps
the order of ``_iter_tuples``, and its memory stays bounded on lopsided
Laurent windows."""

import time
import tracemalloc

import numpy as np
import pytest

from skewarm import PropertyId, check_property, identity_endomorphism, make_zmod
from skewarm.deciders import _iter_tuples, _tuple_chunks


def first_nonzero(t, zero):
    """(position, value) of the first nonzero coefficient of t."""
    return next((f, c) for f, c in enumerate(t) if c != zero)


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
    per_level = (
        lambda f: values,
        lambda f: values[1::2],
        lambda f: values[-1:],
        lambda f: [],
        lambda f: values[f % 2 :: 2],  # a different set at each position
        lambda f: values if f == length - 1 else [],
    )
    for heads in per_level:
        kept = [set(heads(f)) for f in range(length)]
        expected = []
        for t in _iter_tuples(n, length, last_nonzero, zero):
            f, v = first_nonzero(t, zero)
            if v in kept[f]:
                expected.append(t)
        chunks = list(
            _tuple_chunks(
                n,
                length,
                last_nonzero,
                zero,
                lambda f: np.array(heads(f), dtype=dtype),
                step,
                dtype,
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


def test_lopsided_p_window_without_allowed_heads_builds_no_p():
    # the mirror of (0, 0, 0, 24) above: 2**25 candidate p, none of which
    # may meet a q, so no p is built and the verdict takes no time
    ring = make_zmod(2)
    start = time.perf_counter()
    verdict = check_property(
        ring, identity_endomorphism(ring), PropertyId.LAURENT_Q_ALPHA_SKEW, window=(24, 0, 0, 0)
    )
    assert verdict.holds
    assert time.perf_counter() - start < 5
