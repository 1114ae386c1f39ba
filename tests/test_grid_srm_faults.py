"""Fault-tolerant SRM staging: retries, backoff, failover, timeouts, requeue."""

import pytest

from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    StagingTimeoutError,
    UnknownFileError,
)
from repro.faults import NO_FAULTS, FaultSpec
from repro.grid.network import NetworkLink
from repro.grid.site import DataGridSite, ReplicaCatalog
from repro.grid.srm import SRMConfig, StorageResourceManager, run_timed_simulation
from repro.sim.engine import EventEngine
from repro.types import FileCatalog
from repro.workload.trace import Trace

SIZES = {f"f{i}": 100 for i in range(6)}


def timed_trace(bundle_lists, gap=1.0):
    stream = RequestStream(
        Request(i, FileBundle(b), arrival_time=i * gap)
        for i, b in enumerate(bundle_lists)
    )
    return Trace(FileCatalog(SIZES), stream)


def config(**kw):
    defaults = dict(
        cache_size=300,
        policy="lru",
        n_drives=2,
        mount_latency=1.0,
        drive_bandwidth=100.0,
        link=NetworkLink(bandwidth=100.0, latency=0.0),
        processing_time=0.5,
        retry_backoff=2.0,
        backoff_cap=60.0,
        backoff_jitter=0.0,
        max_retries=3,
    )
    defaults.update(kw)
    return SRMConfig(**defaults)


def script_drive_faults(srm, fractions):
    """Make the injector's drive faults follow a fixed script, then succeed."""
    remaining = list(fractions)

    def scripted(component):
        if remaining:
            return remaining.pop(0)
        return None

    srm.injector.drive_fault = scripted


def run_srm(trace, cfg, *, replicas=None, patch=None):
    engine = EventEngine()
    srm = StorageResourceManager(
        engine, trace.catalog.as_dict(), cfg, replicas=replicas
    )
    if patch is not None:
        patch(srm)
    for request in trace:
        engine.schedule_at(request.arrival_time, lambda r=request: srm.submit(r))
    engine.run()
    return srm


class TestConfigValidation:
    def test_invalid_fault_knobs(self):
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, max_retries=-1)
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, retry_backoff=0.0)
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, retry_backoff=5.0, backoff_cap=1.0)
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, backoff_jitter=1.5)
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, staging_timeout=0.0)


class TestZeroFaultRegression:
    """A disabled FaultSpec must reproduce today's results byte-for-byte."""

    BUNDLES = [["f0"], ["f0", "f1"], ["f2"], ["f0", "f3"], ["f1"], ["f4", "f5"]]

    @pytest.mark.parametrize("policy", ["lru", "landlord", "optbundle"])
    def test_results_identical(self, policy):
        trace = timed_trace(self.BUNDLES, gap=3.0)
        plain = run_timed_simulation(trace, config(policy=policy))
        zeroed = run_timed_simulation(
            trace, config(policy=policy, faults=FaultSpec())
        )
        anchored = run_timed_simulation(
            trace, config(policy=policy, faults=NO_FAULTS)
        )
        assert plain == zeroed == anchored

    def test_fault_counters_all_zero(self):
        r = run_timed_simulation(
            timed_trace(self.BUNDLES), config(faults=FaultSpec())
        )
        assert r.retries == r.failovers == r.timeouts == 0
        assert r.requeues == r.failed_jobs == 0
        assert r.time_lost_to_faults == 0.0


class TestBackoffTiming:
    """Backoff delays measured against EventEngine.now."""

    FAULTY = dict(faults=FaultSpec(drive_failure_rate=1.0, seed=0))

    def test_single_retry_shifts_completion_by_backoff(self):
        # attempt fails at 0.5 * service = 1.0; retry at 1.0 + 2.0 = 3.0;
        # then mss 2.0 + link 1.0 + processing 0.5 => response 6.5
        trace = timed_trace([["f0"]])
        srm = run_srm(
            trace,
            config(**self.FAULTY),
            patch=lambda s: script_drive_faults(s, [0.5]),
        )
        assert srm.result().jobs == 1
        assert srm.retries == 1
        assert srm.response_times.mean == pytest.approx(6.5)
        assert srm.time_lost_to_faults == pytest.approx(1.0 + 2.0)

    def test_backoff_doubles_per_failure(self):
        # failures at t=1, 4, 9 with delays 2, 4, 8; success attempt at
        # t=17 completes 17 + 2 + 1 + 0.5 = 20.5
        trace = timed_trace([["f0"]])
        srm = run_srm(
            trace,
            config(**self.FAULTY),
            patch=lambda s: script_drive_faults(s, [0.5, 0.5, 0.5]),
        )
        assert srm.retries == 3
        assert srm.response_times.mean == pytest.approx(20.5)
        assert srm.time_lost_to_faults == pytest.approx((1 + 1 + 1) + (2 + 4 + 8))

    def test_backoff_respects_cap(self):
        # delays capped at 4: retries at 3, 8, 13; success 13+2+1+0.5=16.5
        trace = timed_trace([["f0"]])
        srm = run_srm(
            trace,
            config(backoff_cap=4.0, **self.FAULTY),
            patch=lambda s: script_drive_faults(s, [0.5, 0.5, 0.5]),
        )
        assert srm.response_times.mean == pytest.approx(16.5)

    def test_jitter_is_deterministic(self):
        trace = timed_trace([["f0"], ["f1", "f2"]], gap=2.0)
        cfg = config(
            backoff_jitter=0.2, faults=FaultSpec(drive_failure_rate=0.7, seed=11)
        )
        a = run_timed_simulation(trace, cfg)
        b = run_timed_simulation(trace, cfg)
        assert a == b


class TestRetryExhaustion:
    def test_requeued_once_then_failed(self):
        trace = timed_trace([["f0"]])
        srm = run_srm(
            trace,
            config(faults=FaultSpec(drive_failure_rate=1.0, seed=0)),
            patch=lambda s: setattr(s.injector, "drive_fault", lambda c: 0.5),
        )
        assert srm.result().jobs == 0
        assert srm.requeues == 1
        assert srm.failed_jobs == 1
        # 3 retries per pass, two passes (original + requeue)
        assert srm.retries == 6
        assert any(isinstance(e, RetryExhaustedError) for e in srm.fault_log)
        # the abandoned job must not leak pins
        assert srm.cache.pinned_files() == frozenset()

    def test_later_jobs_survive_an_earlier_failure(self):
        # job 0 (staging f0) always fails, job 1 is never touched by faults
        trace = timed_trace([["f0"], ["f1"]], gap=1.0)

        def patch(srm):
            srm.injector.drive_fault = lambda c: (
                0.5
                if srm._staging is not None and "f0" in srm._staging.awaiting
                else None
            )

        srm = run_srm(
            trace,
            config(faults=FaultSpec(drive_failure_rate=1.0, seed=0)),
            patch=patch,
        )
        assert srm.failed_jobs == 1
        assert srm.result().jobs == 1
        assert srm.result().request_hits == 0


class TestStagingTimeout:
    def test_timeouts_count_and_exhaust(self):
        # staging needs 3.0 s; every 1.0 s attempt times out, so the job
        # exhausts its budget twice (original + requeue) and fails
        trace = timed_trace([["f0"]])
        srm = run_srm(trace, config(staging_timeout=1.0))
        assert srm.timeouts == 8
        assert srm.retries == 6
        assert srm.requeues == 1
        assert srm.failed_jobs == 1
        assert srm.result().jobs == 0
        assert any(isinstance(e, StagingTimeoutError) for e in srm.fault_log)

    def test_generous_timeout_changes_nothing(self):
        trace = timed_trace([["f0"]])
        plain = run_timed_simulation(trace, config())
        timed = run_timed_simulation(trace, config(staging_timeout=1_000.0))
        assert plain.mean_response_time == timed.mean_response_time
        assert timed.timeouts == 0


def two_site_catalog(engine, *, slow_mount=5.0):
    fast = DataGridSite.build(
        engine,
        "fast",
        n_drives=1,
        mount_latency=1.0,
        drive_bandwidth=100.0,
        link=NetworkLink(bandwidth=100.0, latency=0.0),
    )
    slow = DataGridSite.build(
        engine,
        "slow",
        n_drives=1,
        mount_latency=slow_mount,
        drive_bandwidth=100.0,
        link=NetworkLink(bandwidth=100.0, latency=0.0),
    )
    catalog = ReplicaCatalog()
    catalog.add_site(fast)
    catalog.add_site(slow)
    for fid in SIZES:
        catalog.add_replica(fid, "fast")
        catalog.add_replica(fid, "slow")
    return catalog, fast, slow


class TestFailover:
    def test_retry_fails_over_to_surviving_site(self):
        engine = EventEngine()
        catalog, fast, slow = two_site_catalog(engine)
        cfg = config(faults=FaultSpec(drive_failure_rate=1.0, seed=0))
        srm = StorageResourceManager(engine, dict(SIZES), cfg, replicas=catalog)
        script_drive_faults(srm, [0.5])
        # the fast site goes down right after its drive fault surfaces
        srm.injector.is_down = lambda site, now: site == "fast" and now >= 1.0
        engine.schedule_at(
            0.0, lambda: srm.submit(Request(0, FileBundle(["f0"])))
        )
        engine.run()
        # attempt 1 picks fast (cheapest), fails at t=1; retry at t=3 must
        # exclude the down site: mss 6.0 + link 1.0 + processing 0.5
        assert srm.failovers == 1
        assert srm.result().jobs == 1
        assert srm.response_times.mean == pytest.approx(10.5)
        assert fast.mss.failed_retrievals == 1
        assert slow.mss.retrievals == 1

    def test_all_sites_down_backs_off_without_contact(self):
        engine = EventEngine()
        catalog, fast, slow = two_site_catalog(engine)
        cfg = config(faults=FaultSpec(site_downtime_rate=0.5, seed=0))
        srm = StorageResourceManager(engine, dict(SIZES), cfg, replicas=catalog)
        srm.injector.is_down = lambda site, now: True
        engine.schedule_at(
            0.0, lambda: srm.submit(Request(0, FileBundle(["f0"])))
        )
        engine.run()
        assert fast.mss.retrievals == 0 and slow.mss.retrievals == 0
        assert srm.failed_jobs == 1
        assert srm.requeues == 1
        # pure backoff waiting: (2+4+8) per pass, two passes
        assert srm.time_lost_to_faults == pytest.approx(28.0)

    def test_best_source_exclusion(self):
        engine = EventEngine()
        catalog, fast, slow = two_site_catalog(engine)
        assert catalog.best_source("f0", 100).name == "fast"
        assert catalog.best_source("f0", 100, exclude={"fast"}).name == "slow"
        # excluding everything falls back to ignoring the exclusion
        assert catalog.best_source("f0", 100, exclude={"fast", "slow"}).name == "fast"


class TestDegradedRunsNeverRaise:
    @pytest.mark.parametrize("rate", [0.2, 0.6, 1.0])
    def test_high_fault_rates_complete(self, rate):
        bundles = [[f"f{i % 6}"] for i in range(12)]
        r = run_timed_simulation(
            timed_trace(bundles, gap=2.0),
            config(faults=FaultSpec.uniform(rate, seed=4), staging_timeout=120.0),
        )
        optbundle = run_srm(
            timed_trace(bundles, gap=2.0),
            config(
                policy="optbundle",
                faults=FaultSpec.uniform(rate, seed=4),
                staging_timeout=120.0,
            ),
        )
        # loads a failed job never received must leave the history's
        # resident view too, or later plans select around ghosts
        assert optbundle.policy.history.resident_view() == frozenset(
            optbundle.cache.residents()
        )
        assert r.jobs + r.failed_jobs + r.unserviceable <= 12
        assert r.jobs + r.failed_jobs > 0
        d = r.as_dict()
        for key in (
            "request_hits",
            "deferred_starts",
            "retries",
            "failovers",
            "timeouts",
            "requeues",
            "failed_jobs",
            "time_lost_to_faults",
            "byte_miss_ratio",
        ):
            assert key in d


class TestSurfacedCounters:
    def test_deferred_starts_reported(self):
        # job 0 pins the whole cache during a long compute phase; job 1
        # cannot make room and must defer until the completion
        trace = timed_trace([["f0", "f1", "f2"], ["f3"]], gap=1.0)
        r = run_timed_simulation(
            trace, config(processing_time=30.0, service_slots=2)
        )
        assert r.deferred_starts >= 1
        assert r.as_dict()["deferred_starts"] == r.deferred_starts
        assert r.jobs == 2

    def test_request_hits_in_dict(self):
        r = run_timed_simulation(timed_trace([["f0"], ["f0"]], gap=10.0), config())
        assert r.request_hits == 1
        assert r.as_dict()["request_hits"] == 1
        assert r.as_dict()["request_hit_ratio"] == pytest.approx(0.5)


class TestUnknownFile:
    def test_submit_unknown_file_raises_with_id(self):
        engine = EventEngine()
        srm = StorageResourceManager(engine, {"f0": 100}, config())
        with pytest.raises(UnknownFileError) as exc:
            srm.submit(Request(0, FileBundle(["f0", "ghost"])))
        assert "ghost" in str(exc.value)
