"""The incremental selection state vs the rebuild-per-arrival path.

The contract is *byte-for-byte* equivalence: an incremental planner and a
freshly-rebuilding planner fed the same arrival stream must produce equal
``LoadPlan`` dataclasses (including the backing ``CacheSelection``) at
every step, across truncation modes, value decay, and fault-injected
eviction notifications neither planner asked for.
"""

import random

import pytest

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory, TruncationMode
from repro.core.optcacheselect import FBCInstance, opt_cache_select
from repro.core.optfilebundle import OptFileBundlePlanner
from repro.core.selection_state import SelectionState


def _workload(seed=7, n_files=40, n_types=30, max_files=4):
    rng = random.Random(seed)
    files = [f"f{i:03d}" for i in range(n_files)]
    sizes = {f: rng.randint(1, 50) for f in files}
    types, seen = [], set()
    while len(types) < n_types:
        b = FileBundle(rng.sample(files, rng.randint(1, max_files)))
        if b.files in seen:
            continue
        seen.add(b.files)
        types.append(b)
    return rng, sizes, types


_MODES = [
    (TruncationMode.CACHE_SUPPORTED, None, 1.0),
    (TruncationMode.FULL, None, 1.0),
    (TruncationMode.WINDOW, 13, 1.0),
    (TruncationMode.CACHE_SUPPORTED, None, 0.9),
    (TruncationMode.FULL, None, 0.85),
    (TruncationMode.WINDOW, 7, 0.95),
]


def _replay_both(truncation, window, decay, **workload):
    """Feed an incremental and a rebuilding planner the same 400 arrivals,
    asserting equal plans; returns how many selections saw shared files."""
    rng, sizes, types = _workload(**workload)
    capacity = max(sum(sizes.values()) // 3, *(b.size_under(sizes) for b in types))
    kwargs = dict(truncation=truncation, window=window, decay=decay)
    inc = OptFileBundlePlanner(capacity, sizes, incremental=True, **kwargs)
    reb = OptFileBundlePlanner(capacity, sizes, incremental=False, **kwargs)
    assert inc.incremental and not reb.incremental

    resident: set = set()
    shared_walks = 0
    for step in range(400):
        bundle = types[rng.randrange(len(types))]
        used = sum(sizes[f] for f in resident)
        pa = inc.plan(bundle, resident, used)
        pb = reb.plan(bundle, resident, used)
        assert pa == pb, f"plans diverge at step {step}"
        if pa.selection is not None:
            cands = inc.history.candidates()
            shared_walks += any(inc.history.shared_files(cands))
        inc.commit(pa)
        reb.commit(pb)
        resident -= pa.evict
        resident |= pa.load | pa.prefetch
        if step % 7 == 6 and resident:
            # a grid fault evicts a file neither planner chose
            victim = sorted(resident)[rng.randrange(len(resident))]
            resident.discard(victim)
            inc.observe_eviction(victim)
            reb.observe_eviction(victim)
    return shared_walks


class TestDifferential:
    """Incremental planner ≡ rebuild planner, plan for plan."""

    @pytest.mark.parametrize("truncation,window,decay", _MODES)
    def test_plans_identical(self, truncation, window, decay):
        _replay_both(truncation, window, decay)

    @pytest.mark.parametrize("truncation,window,decay", _MODES)
    def test_plans_identical_high_overlap(self, truncation, window, decay):
        # a small file pool: most files are shared between candidates, so
        # nearly every selection propagates through shared files
        shared_walks = _replay_both(
            truncation, window, decay, n_files=10, max_files=5
        )
        assert shared_walks > 200

    def test_select_matches_opt_cache_select(self):
        """SelectionState.select ≡ opt_cache_select on a fresh instance."""
        rng, sizes, types = _workload(seed=11)
        history = RequestHistory(TruncationMode.FULL)
        state = SelectionState(history, sizes)
        budget = sum(sizes.values()) // 4
        for i, b in enumerate(types):
            history.record(b)
            free = types[rng.randrange(len(types))].files if i % 3 else frozenset()
            got = state.select(budget, free=free)
            inst = FBCInstance.from_history(history, sizes, budget)
            want = opt_cache_select(inst, free_files=free)
            assert got == want

    @staticmethod
    def _select_both(sizes, arrivals, budget, free):
        history = RequestHistory(TruncationMode.FULL)
        state = SelectionState(history, sizes)
        for files in arrivals:
            history.record(FileBundle(files))
        got = state.select(budget, free=free)
        inst = FBCInstance.from_history(history, sizes, budget)
        assert got == opt_cache_select(inst, free_files=free)
        return got

    def test_free_file_in_chosen_bundle_is_kept_but_not_charged(self):
        sizes = {"a": 10, "b": 20, "c": 5}
        got = self._select_both(
            sizes, [["a", "b"], ["c"], ["a", "b"]], 30, frozenset({"a"})
        )
        assert not got.single_fallback
        assert got.files == {"a", "b", "c"}
        assert got.used_bytes == sizes["b"] + sizes["c"]

    def test_single_request_fallback(self):
        # greedy takes the dense {x} first, after which {z} no longer fits;
        # Step 3 then prefers {z} alone
        sizes = {"x": 1, "z": 20}
        got = self._select_both(sizes, [["x"]] + [["z"]] * 10, 20, frozenset())
        assert got.single_fallback
        assert got.files == {"z"} and got.used_bytes == 20


class TestNoRebuildOnWarmPath:
    """The warm plan() path must not rebuild per-arrival structures."""

    def test_plan_avoids_from_history_and_opt_cache_select(self, monkeypatch):
        _, sizes, types = _workload(seed=3)
        planner = OptFileBundlePlanner(
            sum(sizes.values()) // 3,
            sizes,
            truncation=TruncationMode.FULL,
            incremental=True,
        )
        for b in types:
            planner.history.record(b)

        def boom(*a, **k):  # any call would be a per-arrival rebuild
            raise AssertionError("warm plan() rebuilt selection inputs")

        import repro.core.optfilebundle as ofb

        monkeypatch.setattr(ofb.FBCInstance, "from_history", boom)
        monkeypatch.setattr(ofb, "opt_cache_select", boom)
        plan = planner.plan(types[0], set(), 0)
        assert plan.keep  # the selection still ran (via SelectionState)

    def test_listener_attaches_to_warm_history(self):
        _, sizes, types = _workload(seed=5)
        history = RequestHistory(TruncationMode.FULL)
        for b in types[:10]:
            history.record(b)
        state = SelectionState(history, sizes)  # replays existing entries
        assert [b for b in state._bundles] == [e.bundle for e in history.entries()]
        for b in types[10:]:
            history.record(b)
        assert len(state._bundles) == len(history)

    def test_rerecording_existing_type_does_not_notify(self):
        _, sizes, types = _workload(seed=6)
        history = RequestHistory(TruncationMode.FULL)
        state = SelectionState(history, sizes)
        history.record(types[0])
        before = len(state._bundles)
        history.record(types[0])  # same type: value bump only
        assert len(state._bundles) == before


class TestSupportedIndex:
    """_supported keeps CACHE_SUPPORTED candidates without history scans."""

    def test_matches_bruteforce_filter(self):
        rng, sizes, types = _workload(seed=9)
        history = RequestHistory(TruncationMode.CACHE_SUPPORTED)
        resident: set = set()
        files = sorted(sizes)
        for step in range(300):
            roll = rng.random()
            if roll < 0.4:
                history.record(types[rng.randrange(len(types))])
            elif roll < 0.7:
                f = files[rng.randrange(len(files))]
                resident.add(f)
                history.on_file_loaded(f)
            elif resident:
                f = sorted(resident)[rng.randrange(len(resident))]
                resident.discard(f)
                history.on_file_evicted(f)
            expected = [
                e for e in history.entries() if e.bundle.issubset(resident)
            ]
            assert history.candidates() == expected  # same entries, same order

    def test_max_degree_matches_bruteforce(self):
        rng, sizes, types = _workload(seed=13)
        history = RequestHistory(TruncationMode.FULL)
        assert history.max_degree() == 0
        for b in types:
            history.record(b)
            degrees = history.degrees()
            assert history.max_degree() == max(degrees.values())


class TestTrustedConstruction:
    def test_trusted_equals_validated(self):
        _, sizes, types = _workload(seed=21)
        bundles = tuple(types[:8])
        values = tuple(float(i + 1) for i in range(8))
        budget = sum(sizes.values()) // 2
        fast = FBCInstance.trusted(bundles, values, sizes, budget)
        slow = FBCInstance(bundles, values, sizes, budget)
        assert fast == slow
        assert opt_cache_select(fast) == opt_cache_select(slow)
