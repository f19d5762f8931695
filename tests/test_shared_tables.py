"""The tables that every search on one twist object shares
(``deciders._TwistTables``): sharing never changes an answer, nor the work
a search does beyond what it builds, whatever the order of the requests
and the batching bounds each was decided under; and the tables go when
their twist goes."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracle import FAMILY
from test_validator import relabelled_carriers

from skewarm import (
    BudgetExceededError,
    PropertyId,
    RingError,
    all_endomorphisms,
    check_property,
    deciders,
    make_table_ring,
    table_endomorphism,
)
from skewarm.corpus import all_entries, entry_by_name

P = PropertyId
# plain and sandwich hypotheses in turn, so that each search on a twist
# follows one that built the other kind's tables, or its own kind's
INTERLEAVED = [
    P.ALPHA_ARMENDARIZ,
    P.Q_ALPHA_ARMENDARIZ,
    P.ALPHA_SKEW_ARMENDARIZ,
    P.Q_ALPHA_SKEW_ARMENDARIZ,
    P.ARMENDARIZ,
    P.ALPHA_QUASI_ARMENDARIZ,
    P.QUASI_ARMENDARIZ,
]
assert sorted(INTERLEAVED, key=str) == sorted(FAMILY, key=str)
# in pairs that share their p but not their lowest exponent, or their q
# length, so that each pair's rank batches differ only there
SERIES = [
    (P.LAURENT_Q_ALPHA_SKEW, {"window": (1, 1, 1, 1)}),
    (P.POWERSERIES_Q_ALPHA_SKEW, {"truncation": 3}),
    (P.LAURENT_Q_ALPHA_SKEW, {"window": (1, 1, 0, 0)}),
    (P.LAURENT_POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2, "min_exp": -1}),
    (P.LAURENT_Q_ALPHA_SKEW, {"window": (0, 1, 0, 1)}),
    (P.POWERSERIES_Q_ALPHA_SKEW, {"truncation": 2}),
]
REQUESTS = [
    request
    for x, d in enumerate((1, 0, 2))
    for request in [(prop, {"degree": d}) for prop in INTERLEAVED] + SERIES[2 * x : 2 * x + 2]
]
# (_CHUNK_CELLS, _PAIR_CELLS, _RANK_CELLS), one set per call in turn, so
# that a shared entry is read under other bounds than it was built under
NAMES = ("_CHUNK_CELLS", "_PAIR_CELLS", "_RANK_CELLS")
BOUNDS = [(1 << 22, 1 << 16, 1 << 17), (256, 256, 1 << 10), (1 << 12, 1 << 10, 1 << 13)]


def decide(ring, endo, prop, envelope):
    """The verdict, or the refusal as text."""
    try:
        return check_property(ring, endo, prop, **envelope)
    except (BudgetExceededError, RingError) as err:
        return f"{type(err).__name__}: {err}"


def work(counts) -> Counter:
    """The counts of what a search did, whatever it read from the shared
    tables: the q chunks and null spaces it built or reused are left out,
    and the null spaces it used are counted."""
    work = Counter(counts)
    for built in ("q_chunks_built", "q_chunks_reused"):
        work.pop(built, None)
    work["null_spaces"] = work.pop("null_spaces_built", 0) + work.pop("null_spaces_reused", 0)
    return +work


def assert_sharing_keeps_every_answer(monkeypatch, ring, endo, requests):
    """Each request decided on ``endo`` and then on a fresh copy of it, both
    under the bounds of its turn, gives the same verdict and search work."""
    scanners = []

    class Recording(deciders._Scanner):
        def __init__(self, *args):
            super().__init__(*args)
            scanners.append(self)

    monkeypatch.setattr(deciders, "_Scanner", Recording)
    for x, (prop, envelope) in enumerate(requests):
        answers = []
        for twist in (endo, table_endomorphism(ring, endo.images, endo.label)):
            scanners.clear()
            with monkeypatch.context() as m:
                for name, value in zip(NAMES, BOUNDS[x % 3]):
                    m.setattr(deciders, name, value)
                verdict = decide(ring, twist, prop, envelope)
            answers.append((verdict, [work(sc.counts) for sc in scanners]))
        assert answers[0] == answers[1], (endo.label, prop.value, envelope)


@pytest.mark.parametrize("entry", all_entries(), ids=lambda e: e.name)
def test_sharing_a_twist_keeps_every_answer_on_the_corpus(monkeypatch, entry):
    assert_sharing_keeps_every_answer(monkeypatch, entry.ring, entry.endo, REQUESTS)


@settings(max_examples=20, deadline=None)
@given(tables=relabelled_carriers(), data=st.data())
def test_sharing_a_twist_keeps_every_answer_on_relabelled_carriers(tables, data):
    ring = make_table_ring(*tables)
    endo = data.draw(st.sampled_from(all_endomorphisms(ring)))
    requests = data.draw(st.permutations(REQUESTS))
    with pytest.MonkeyPatch.context() as m:
        assert_sharing_keeps_every_answer(m, ring, endo, requests)


def test_shared_tables_go_with_their_twist():
    entry = entry_by_name("example4")
    endo = table_endomorphism(entry.ring, entry.endo.images, entry.endo.label)
    for prop in (P.ALPHA_ARMENDARIZ, P.Q_ALPHA_ARMENDARIZ):
        assert check_property(entry.ring, endo, prop, degree=1).holds
    kinds = deciders._SHARED[endo]
    assert set(kinds) == {False, True}
    tables = list(kinds.values())
    assert all(t._screen is not None for t in tables)
    refs = [weakref.ref(x) for x in [endo, *tables, *(t._screen for t in tables)]]
    gc.disable()
    try:
        del kinds, tables, endo
        # no reference cycle holds them, so they go at once, not at the
        # next collection
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    gc.collect()
    assert alive == [False] * 5
    assert [ref() for ref in refs] == [None] * 5
