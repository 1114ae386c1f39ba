"""Unit tests for the OptFileBundle online planner (Algorithm 2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import FileBundle
from repro.core.history import TruncationMode
from repro.core.optfilebundle import OptFileBundlePlanner
from repro.errors import CacheCapacityError, ConfigError

SIZES = {f"f{i}": 10 for i in range(10)}


def used(resident, sizes=SIZES):
    """The bytes ``resident`` occupies, as ``CacheState.used`` keeps them."""
    return sum(sizes[f] for f in resident)


def apply(plan, resident):
    resident -= plan.evict
    resident |= plan.load | plan.prefetch
    return resident


class TestPlannerBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            OptFileBundlePlanner(0, SIZES)

    def test_cold_start_loads_all(self):
        p = OptFileBundlePlanner(100, SIZES)
        plan = p.plan(FileBundle(["f0", "f1"]), set(), 0)
        assert plan.load == {"f0", "f1"}
        assert plan.evict == frozenset()
        assert not plan.request_hit

    def test_hit_detection(self):
        p = OptFileBundlePlanner(100, SIZES)
        plan = p.plan(FileBundle(["f0"]), {"f0"}, 10)
        assert plan.request_hit and plan.load == frozenset()

    def test_oversized_bundle_rejected(self):
        p = OptFileBundlePlanner(25, SIZES)
        with pytest.raises(CacheCapacityError):
            p.plan(FileBundle(["f0", "f1", "f2"]), set(), 0)

    def test_keep_always_fits_capacity(self):
        p = OptFileBundlePlanner(35, SIZES)
        resident: set = set()
        bundles = [
            FileBundle(["f0", "f1"]),
            FileBundle(["f2"]),
            FileBundle(["f0", "f3"]),
            FileBundle(["f1", "f2", "f3"]),
            FileBundle(["f4"]),
        ]
        for b in bundles * 3:
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
            assert sum(SIZES[f] for f in plan.keep) <= 35
            assert sum(SIZES[f] for f in resident) <= 35
            assert b.files <= resident

    def test_partially_resident_bundle_never_overflows(self):
        # Regression: budget must reserve the whole bundle, not just the
        # missing part, or keep can exceed capacity.
        p = OptFileBundlePlanner(30, SIZES)
        resident: set = set()
        seq = [
            FileBundle(["f0", "f1"]),
            FileBundle(["f2"]),
            FileBundle(["f0", "f2"]),  # partially resident
            FileBundle(["f1", "f2"]),
        ]
        for b in seq * 4:
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
            assert sum(SIZES[f] for f in resident) <= 30


class TestHistoryIntegration:
    def test_commit_records_history(self):
        p = OptFileBundlePlanner(100, SIZES)
        b = FileBundle(["f0"])
        plan = p.plan(b, set(), 0)
        p.commit(plan)
        assert p.history.value_of(b) == 1.0

    def test_repeated_bundle_value_grows(self):
        p = OptFileBundlePlanner(100, SIZES)
        b = FileBundle(["f0"])
        resident: set = set()
        for _ in range(3):
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        assert p.history.value_of(b) == 3.0

    def test_popular_bundle_retained_under_pressure(self):
        p = OptFileBundlePlanner(30, SIZES)
        hot = FileBundle(["f0", "f1"])
        resident: set = set()
        # Make hot popular.
        for _ in range(5):
            plan = p.plan(hot, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        # A one-off request forces a replacement decision.
        plan = p.plan(FileBundle(["f5"]), resident, used(resident))
        assert "f0" not in plan.evict and "f1" not in plan.evict

    def test_score_prefers_popular_small(self):
        p = OptFileBundlePlanner(100, SIZES)
        hot, cold = FileBundle(["f0"]), FileBundle(["f1"])
        resident: set = set()
        for _ in range(4):
            plan = p.plan(hot, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        assert p.score(hot) > p.score(cold)

    def test_score_of_unseen_bundle_is_finite_positive(self):
        p = OptFileBundlePlanner(100, SIZES)
        assert p.score(FileBundle(["f7"])) > 0


class TestEvictionModes:
    def _warm(self, p, resident):
        for b in (FileBundle(["f0"]), FileBundle(["f1"]), FileBundle(["f2"])):
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        return resident

    def test_lazy_keeps_unselected_files_when_room(self):
        p = OptFileBundlePlanner(100, SIZES)
        resident = self._warm(p, set())
        plan = p.plan(FileBundle(["f3"]), resident, used(resident))
        assert plan.evict == frozenset()  # plenty of room: nothing evicted

    def test_eager_evicts_everything_unselected(self):
        p = OptFileBundlePlanner(100, SIZES, eager_evict=True)
        resident = self._warm(p, set())
        plan = p.plan(FileBundle(["f3"]), resident, used(resident))
        # Everything kept must be in F(Opt) | bundle.
        assert plan.keep >= plan.bundle.files
        assert (resident - plan.evict) <= plan.keep

    def test_lazy_evicts_only_enough(self):
        p = OptFileBundlePlanner(30, SIZES)
        resident = self._warm(p, set())  # f0,f1,f2 resident (30/30)
        plan = p.plan(FileBundle(["f3"]), resident, used(resident))
        assert len(plan.evict) == 1  # exactly one 10-byte victim needed


class TestFullHistoryPrefetch:
    def test_prefetch_only_under_full_truncation(self):
        p = OptFileBundlePlanner(
            40, SIZES, truncation=TruncationMode.FULL
        )
        hot = FileBundle(["f0", "f1"])
        resident: set = set()
        for _ in range(5):
            plan = p.plan(hot, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        # Evict hot's files behind the planner's back, then request another
        # bundle: full history may prefetch the popular files back.
        p.observe_eviction("f0")
        p.observe_eviction("f1")
        plan = p.plan(FileBundle(["f2"]), {"f2"}, 10)
        assert plan.prefetch <= {"f0", "f1"}

    def test_cache_truncation_never_prefetches(self):
        p = OptFileBundlePlanner(40, SIZES)
        resident: set = set()
        for b in (FileBundle(["f0"]), FileBundle(["f1"]), FileBundle(["f2"])):
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
            assert plan.prefetch == frozenset()


# ---------------------------------------------------------------------- #
# inert-plan fast path


class _AlwaysSelect(OptFileBundlePlanner):
    """Test seam: a planner that never takes the inert-plan fast path."""

    def _provably_inert(self, resident, projected):
        return False


def _plan_or_error(planner, bundle, resident, sizes, pinned):
    try:
        return planner.plan(bundle, resident, used(resident, sizes), pinned=pinned)
    except CacheCapacityError as exc:
        return type(exc)


def _decision(plan):
    if isinstance(plan, type):
        return plan
    return plan.load, plan.prefetch, plan.evict, plan.request_hit


def _replay_against_forced(seed, capacity_div, steps, **kwargs):
    """Drive a planner and its always-selecting twin through one workload.

    The workload mixes arrivals (with random pins), evictions the planners
    are told about (``observe_eviction``) and evictions they are not told
    about, after which the history's resident view is stale.  Returns how
    many plans took the fast path.
    """
    rng = random.Random(seed)
    files = [f"f{i:02d}" for i in range(24)]
    sizes = {f: rng.randint(1, 20) for f in files}
    types = [FileBundle(rng.sample(files, rng.randint(1, 4))) for _ in range(16)]
    capacity = max(sum(sizes.values()) // capacity_div, 80)
    fast = OptFileBundlePlanner(capacity, sizes, **kwargs)
    forced = _AlwaysSelect(capacity, sizes, **kwargs)
    resident: set = set()
    skipped = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.08 and resident:
            victim = sorted(resident)[rng.randrange(len(resident))]
            resident.discard(victim)
            fast.observe_eviction(victim)
            forced.observe_eviction(victim)
            continue
        if roll < 0.12 and resident:
            # the cache loses a file behind the planners' backs
            resident.discard(sorted(resident)[rng.randrange(len(resident))])
            continue
        bundle = types[rng.randrange(len(types))]
        pinned = {f for f in sorted(resident) if rng.random() < 0.15}
        got = _plan_or_error(fast, bundle, set(resident), sizes, pinned)
        want = _plan_or_error(forced, bundle, set(resident), sizes, pinned)
        assert _decision(got) == _decision(want)
        if isinstance(got, type):
            continue
        assert want.selection is not None
        if got.selection is None:
            skipped += 1
            assert got.keep == bundle.files
            assert not got.prefetch and not got.evict
        fast.commit(got)
        forced.commit(want)
        resident -= got.evict
        resident |= got.load | got.prefetch
    return skipped


class TestInertPlanSkip:
    @given(
        seed=st.integers(0, 2**32 - 1),
        capacity_div=st.integers(1, 5),
        incremental=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_skipped_plans_match_forced_selection(
        self, seed, capacity_div, incremental
    ):
        _replay_against_forced(seed, capacity_div, 150, incremental=incremental)

    def test_fast_path_fires_on_hit_heavy_workload(self):
        assert _replay_against_forced(5, 1, 300) > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(truncation=TruncationMode.FULL),
            dict(truncation=TruncationMode.WINDOW, window=5),
            dict(decay=0.9),
            dict(eager_evict=True),
        ],
        ids=["full", "window", "decay", "eager"],
    )
    def test_configurations_outside_the_guard_always_select(self, kwargs):
        p = OptFileBundlePlanner(100, SIZES, **kwargs)
        resident: set = set()
        for b in (FileBundle(["f0"]), FileBundle(["f1"]), FileBundle(["f0"])):
            plan = p.plan(b, resident, used(resident))
            assert plan.selection is not None
            resident = apply(plan, resident)
            p.commit(plan)
        assert _replay_against_forced(5, 1, 100, **kwargs) == 0

    def test_stale_resident_view_always_selects(self):
        p = OptFileBundlePlanner(100, SIZES)
        resident: set = set()
        for b in (FileBundle(["f0"]), FileBundle(["f1"])):
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        # a hit that fits: inert while the planner's view is current
        assert p.plan(FileBundle(["f0"]), resident, used(resident)).selection is None
        # f1 leaves the cache unannounced; the history still lists it
        resident.discard("f1")
        assert p.plan(FileBundle(["f0"]), resident, used(resident)).selection is not None

    def test_plan_that_needs_room_always_selects(self):
        p = OptFileBundlePlanner(20, SIZES)
        resident: set = set()
        for b in (FileBundle(["f0"]), FileBundle(["f1"])):
            plan = p.plan(b, resident, used(resident))
            resident = apply(plan, resident)
            p.commit(plan)
        # 20 used + 10 > 20
        plan = p.plan(FileBundle(["f2"]), resident, used(resident))
        assert plan.selection is not None and len(plan.evict) == 1
