"""Unit tests for the request history L(R)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory, TruncationMode
from repro.errors import ConfigError

A = FileBundle(["a"])
AB = FileBundle(["a", "b"])
BC = FileBundle(["b", "c"])


class TestRecording:
    def test_value_counts_occurrences(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A)
        h.record(A)
        h.record(AB)
        assert h.value_of(A) == 2.0
        assert h.value_of(AB) == 1.0
        assert h.value_of(BC) == 0.0
        assert len(h) == 2
        assert h.arrivals == 3

    def test_weighted_record(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A, weight=2.5)
        assert h.value_of(A) == 2.5

    def test_nonpositive_weight_rejected(self):
        h = RequestHistory(TruncationMode.FULL)
        with pytest.raises(ConfigError):
            h.record(A, weight=0.0)

    def test_degrees_count_distinct_types(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(AB)
        h.record(AB)  # same type again: degree unchanged
        h.record(BC)
        assert h.degree("a") == 1
        assert h.degree("b") == 2
        assert h.degree("c") == 1
        assert h.degree("zzz") == 0
        assert h.max_degree() == 2

    def test_entry_metadata(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A)
        h.record(AB)
        h.record(A)
        e = h.entry(A)
        assert e.count == 2
        assert e.first_seen == 1
        assert e.last_seen == 3

    def test_contains(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A)
        assert A in h and AB not in h


class TestTruncationModes:
    def test_full_candidates(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A)
        h.record(AB)
        assert {e.bundle for e in h.candidates()} == {A, AB}

    def test_window_requires_length(self):
        with pytest.raises(ConfigError):
            RequestHistory(TruncationMode.WINDOW)

    def test_window_rejected_elsewhere(self):
        with pytest.raises(ConfigError):
            RequestHistory(TruncationMode.FULL, window=5)

    def test_window_eviction(self):
        h = RequestHistory(TruncationMode.WINDOW, window=2)
        h.record(A)
        h.record(AB)
        h.record(BC)
        assert {e.bundle for e in h.candidates()} == {AB, BC}
        # but global values/degrees retained
        assert h.value_of(A) == 1.0
        assert h.degree("a") == 2

    def test_window_duplicate_arrivals(self):
        h = RequestHistory(TruncationMode.WINDOW, window=2)
        h.record(A)
        h.record(A)
        h.record(BC)
        assert {e.bundle for e in h.candidates()} == {A, BC}

    def test_cache_supported_candidates(self):
        h = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        h.record(AB)
        h.record(BC)
        assert h.candidates() == []
        h.on_file_loaded("a")
        h.on_file_loaded("b")
        assert {e.bundle for e in h.candidates()} == {AB}
        h.on_file_loaded("c")
        assert {e.bundle for e in h.candidates()} == {AB, BC}
        h.on_file_evicted("b")
        assert h.candidates() == []

    def test_new_bundle_sees_current_residency(self):
        h = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        h.on_file_loaded("a")
        h.on_file_loaded("b")
        h.record(AB)
        assert h.supported(AB)

    def test_duplicate_notifications_idempotent(self):
        h = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        h.record(A)
        h.on_file_loaded("a")
        h.on_file_loaded("a")
        assert h.supported(A)
        h.on_file_evicted("a")
        h.on_file_evicted("a")
        assert not h.supported(A)

    def test_sync_resident(self):
        h = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        h.record(AB)
        h.sync_resident({"a", "b"})
        assert h.supported(AB)
        h.sync_resident({"a"})
        assert not h.supported(AB)
        assert h.resident_view() == {"a"}

    def test_supported_unknown_bundle_checks_residency(self):
        h = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        h.on_file_loaded("x")
        assert h.supported(FileBundle(["x"]))
        assert not h.supported(FileBundle(["y"]))


class TestDecay:
    def test_invalid_decay_rejected(self):
        with pytest.raises(ConfigError):
            RequestHistory(TruncationMode.FULL, decay=0.0)
        with pytest.raises(ConfigError):
            RequestHistory(TruncationMode.FULL, decay=1.5)

    def test_no_decay_by_default(self):
        h = RequestHistory(TruncationMode.FULL)
        h.record(A)
        for _ in range(10):
            h.record(BC)
        assert h.value_of(A) == 1.0

    def test_decay_reduces_stale_values(self):
        h = RequestHistory(TruncationMode.FULL, decay=0.5)
        h.record(A)
        h.record(BC)  # one tick elapses for A
        assert h.value_of(A) == pytest.approx(0.5)
        assert h.value_of(BC) == pytest.approx(1.0)

    def test_decay_compounds_on_rerecord(self):
        h = RequestHistory(TruncationMode.FULL, decay=0.5)
        h.record(A)   # tick 1, value 1
        h.record(BC)  # tick 2
        h.record(A)   # tick 3: value = 1*0.25 + 1
        assert h.value_of(A) == pytest.approx(1.25)

    def test_candidates_apply_decay(self):
        h = RequestHistory(TruncationMode.FULL, decay=0.5)
        h.record(A)
        h.record(BC)
        vals = {e.bundle: e.value for e in h.candidates()}
        assert vals[A] == pytest.approx(0.5)


# ---------------------------------------------------------------------- #
# the candidate index against a brute-force recompute

_POOL = [f"p{i}" for i in range(5)]  # small, so candidates overlap
_files = st.sampled_from(_POOL)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.frozensets(_files, min_size=1, max_size=3)),
        st.tuples(st.just("load"), _files),
        st.tuples(st.just("evict"), _files),
        st.tuples(st.just("sync"), st.frozensets(_files)),
        st.tuples(st.just("roundtrip"), st.none()),
    ),
    max_size=60,
)


def _check_index(h, resident):
    entries = h.entries()
    for e in entries:
        assert e.missing == len(e.bundle.files - resident)
    if h.mode is TruncationMode.CACHE_SUPPORTED:
        want = [e for e in entries if e.bundle.issubset(resident)]
        assert h.candidates() == want
    elif h.mode is TruncationMode.FULL:
        assert h.candidates() == entries
    else:
        assert [e.bundle for e in h.candidates()] == list(h._window_counts)
    cands = h.candidates()
    holders: dict = {}
    for e in cands:
        for f in e.bundle:
            holders.setdefault(f, set()).add(e.eid)
    assert {f: set(d) for f, d in h._holders.items()} == holders
    for e, shared in zip(cands, h.shared_files(cands)):
        assert shared == tuple(f for f in e.bundle if len(holders[f]) > 1)


@pytest.mark.parametrize(
    "mode,window",
    [
        (TruncationMode.FULL, None),
        (TruncationMode.WINDOW, 7),
        (TruncationMode.CACHE_SUPPORTED, None),
    ],
)
@given(ops=_ops)
@settings(max_examples=100, deadline=None)
def test_candidate_index_matches_bruteforce(mode, window, ops):
    """Any interleaving of arrivals, residency changes, syncs and
    checkpoint round-trips leaves the candidate index, the shared-file
    tuples and the missing counts equal to a recompute from scratch."""
    h = RequestHistory(mode, window=window)
    resident: set = set()
    for op, arg in ops:
        if op == "record":
            h.record(FileBundle(arg))
        elif op == "load":
            h.on_file_loaded(arg)
            resident.add(arg)
        elif op == "evict":
            h.on_file_evicted(arg)
            resident.discard(arg)
        elif op == "sync":
            h.sync_resident(arg)
            resident = set(arg)
        else:
            state = json.dumps(h.export_state())
            h = RequestHistory.restore(json.loads(state))
            assert json.dumps(h.export_state()) == state
        _check_index(h, resident)
