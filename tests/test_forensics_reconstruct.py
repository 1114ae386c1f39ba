"""Differential tests: trace reconstruction vs. the live simulator.

Every recorded run must be self-verifying — replaying its trace events
yields exactly the final cache residency the live simulator ended with,
byte for byte, for every registered policy, for every history truncation
mode, and for timed SRM runs with and without fault injection.  And the
invariant checker that makes this possible must fail *loudly* on a
corrupted trace, not shrug.
"""

import json

import pytest

from repro.cache.registry import POLICY_REGISTRY, make_policy
from repro.core.bundle import FileBundle
from repro.core.history import TruncationMode
from repro.core.request import Request, RequestStream
from repro.errors import TraceInvariantError
from repro.faults import FaultSpec
from repro.grid.srm import SRMConfig, StorageResourceManager
from repro.sim.engine import EventEngine
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry import JsonlSink, RingSink, TraceRecorder, use_recorder
from repro.telemetry.events import (
    FileAdmitted,
    FileEvicted,
    JobArrived,
    PlanComputed,
)
from repro.telemetry.forensics import (
    TraceLog,
    iter_trace,
    reconstruct,
    verify_against_cache,
)
from repro.types import FileCatalog
from repro.workload.generator import WorkloadSpec, generate_trace
from repro.workload.trace import Trace

SPEC = WorkloadSpec(
    cache_size=200_000_000,
    n_files=80,
    n_request_types=60,
    n_jobs=150,
    popularity="zipf",
    max_file_fraction=0.05,
    max_bundle_fraction=0.25,
    seed=11,
)


@pytest.fixture(scope="module")
def workload():
    return generate_trace(SPEC)


def record_run(tmp_path, workload, policy_name, **policy_kwargs):
    """Run one traced simulation; return (trace path, live policy)."""
    path = tmp_path / f"{policy_name}.jsonl"
    policy = make_policy(policy_name, future=workload.bundles(), **policy_kwargs)
    config = SimulationConfig(cache_size=SPEC.cache_size, policy=policy_name)
    with TraceRecorder(JsonlSink(path)) as rec:
        with use_recorder(rec):
            simulate_trace(workload, config, policy=policy, recorder=rec)
    return path, policy


class TestDifferentialUntimed:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_reconstruction_matches_live_cache(
        self, tmp_path, workload, policy_name
    ):
        path, policy = record_run(tmp_path, workload, policy_name)
        report = reconstruct(path, capacity=SPEC.cache_size)
        assert report.violations == []
        assert verify_against_cache(report, policy.cache) == []

    @pytest.mark.parametrize(
        "mode",
        [TruncationMode.FULL, TruncationMode.WINDOW, TruncationMode.CACHE_SUPPORTED],
    )
    def test_optbundle_truncation_modes(self, tmp_path, workload, mode):
        kwargs = {"truncation": mode}
        if mode is TruncationMode.WINDOW:
            kwargs["window"] = 64
        path, policy = record_run(tmp_path, workload, "optbundle", **kwargs)
        report = reconstruct(path, capacity=SPEC.cache_size)
        assert report.violations == []
        assert verify_against_cache(report, policy.cache) == []

    def test_streaming_source_equals_loaded(self, tmp_path, workload):
        path, _ = record_run(tmp_path, workload, "lru")
        from_stream = reconstruct(iter_trace(path), capacity=SPEC.cache_size)
        from_log = reconstruct(TraceLog.load(path), capacity=SPEC.cache_size)
        assert from_stream.final_residency() == from_log.final_residency()
        assert from_stream.events == from_log.events

    def test_ring_sink_contents_are_reconstructible(self, workload):
        sink = RingSink(capacity=1_000_000)
        policy = make_policy("lru")
        with TraceRecorder(sink) as rec:
            with use_recorder(rec):
                simulate_trace(
                    workload,
                    SimulationConfig(cache_size=SPEC.cache_size, policy="lru"),
                    policy=policy,
                    recorder=rec,
                )
        report = reconstruct(sink.sequenced, capacity=SPEC.cache_size)
        assert report.violations == []
        assert verify_against_cache(report, policy.cache) == []


SRM_SIZES = {f"f{i}": 100 for i in range(6)}
SRM_BUNDLES = [["f0"], ["f0", "f1"], ["f2"], ["f0", "f3"], ["f1"], ["f4", "f5"]]


def srm_trace(gap=3.0):
    stream = RequestStream(
        Request(i, FileBundle(b), arrival_time=i * gap)
        for i, b in enumerate(SRM_BUNDLES)
    )
    return Trace(FileCatalog(SRM_SIZES), stream)


def srm_config(**kw):
    defaults = dict(
        cache_size=300,
        policy="lru",
        n_drives=2,
        mount_latency=1.0,
        drive_bandwidth=100.0,
        processing_time=0.5,
        backoff_jitter=0.0,
        max_retries=3,
        staging_timeout=600.0,
    )
    defaults.update(kw)
    return SRMConfig(**defaults)


def record_srm_run(path, cfg, trace=None):
    """Timed SRM run under a recorder; returns the SRM (for srm.cache)."""
    trace = srm_trace() if trace is None else trace
    with TraceRecorder(JsonlSink(path)) as rec:
        with use_recorder(rec):
            engine = EventEngine()
            srm = StorageResourceManager(engine, trace.catalog.as_dict(), cfg)
            for request in trace:
                engine.schedule_at(
                    request.arrival_time, lambda r=request: srm.submit(r)
                )
            engine.run()
    return srm


class TestDifferentialTimed:
    @pytest.mark.parametrize("policy_name", ["lru", "landlord", "optbundle"])
    def test_srm_without_faults(self, tmp_path, policy_name):
        path = tmp_path / "srm.jsonl"
        srm = record_srm_run(path, srm_config(policy=policy_name))
        report = reconstruct(path, capacity=300)
        assert report.violations == []
        assert verify_against_cache(report, srm.cache) == []

    @pytest.mark.parametrize("rate", [0.2, 0.5])
    def test_srm_with_fault_injection(self, tmp_path, rate):
        path = tmp_path / "srm_faulty.jsonl"
        srm = record_srm_run(
            path, srm_config(faults=FaultSpec.uniform(rate, seed=7))
        )
        report = reconstruct(path, capacity=300)
        assert report.violations == []
        assert verify_against_cache(report, srm.cache) == []

    @pytest.mark.parametrize("policy_name", ["lru", "landlord", "optbundle"])
    def test_pin_deferred_start_leaves_no_events(self, tmp_path, policy_name):
        # job 2 needs 300 bytes at t=33 while job 1 (compute until ~34.1)
        # pins f1+f2: evicting f0 alone cannot make room, so the start is
        # deferred, and it must evict and emit nothing until job 1 is done
        timeline = [(0.0, ["f0"]), (1.0, ["f1", "f2"]), (33.0, ["f3", "f4", "f5"])]
        trace = Trace(
            FileCatalog(SRM_SIZES),
            RequestStream(
                Request(i, FileBundle(b), arrival_time=t)
                for i, (t, b) in enumerate(timeline)
            ),
        )
        path = tmp_path / "srm_pins.jsonl"
        srm = record_srm_run(
            path,
            srm_config(
                policy=policy_name,
                cache_size=400,
                processing_time=30.0,
                service_slots=3,
            ),
            trace,
        )
        assert srm.deferred_starts >= 1
        assert srm.result().jobs == 3
        log = TraceLog.load(path)
        assert [e.job for e in log if isinstance(e, JobArrived)] == [0, 1, 2]
        report = reconstruct(path, capacity=400)
        assert report.violations == []
        assert verify_against_cache(report, srm.cache) == []

    def test_concatenated_timed_runs_split_on_time_reset(self, tmp_path):
        # each run's JobArrived numbering restarts at 0 where its simulated
        # time restarts, so the runs split with no option and no
        # time-regression violation
        path = tmp_path / "two_runs.jsonl"
        trace = srm_trace()
        with TraceRecorder(JsonlSink(path)) as rec:
            with use_recorder(rec):
                for _ in range(2):
                    engine = EventEngine()
                    srm = StorageResourceManager(
                        engine, trace.catalog.as_dict(), srm_config()
                    )
                    for request in trace:
                        engine.schedule_at(
                            request.arrival_time, lambda r=request: srm.submit(r)
                        )
                    engine.run()
        split = reconstruct(path, capacity=300)
        assert split.violations == []
        assert len(split.segments) == 2
        assert verify_against_cache(split, srm.cache, segment=-1) == []


class TestCorruptionIsLoud:
    def _lines(self, path):
        return path.read_text().splitlines()

    def test_duplicated_admission_detected(self, tmp_path, workload):
        path, _ = record_run(tmp_path, workload, "lru")
        lines = self._lines(path)
        admit_at = next(
            i for i, l in enumerate(lines) if '"kind":"FileAdmitted"' in l
        )
        # replay the same admission right after itself (fixing up seq so
        # only the residency invariant, not seq checking, fires)
        dup = json.loads(lines[admit_at])
        corrupted = []
        for i, line in enumerate(lines):
            record = json.loads(line)
            if i > admit_at:
                record["seq"] += 1
            corrupted.append(json.dumps(record, sort_keys=True))
            if i == admit_at:
                again = dict(dup)
                again["seq"] += 1
                corrupted.append(json.dumps(again, sort_keys=True))
        bad = tmp_path / "dup.jsonl"
        bad.write_text("\n".join(corrupted) + "\n")
        report = reconstruct(bad, capacity=SPEC.cache_size)
        assert any(v.rule == "duplicate-admission" for v in report.violations)
        with pytest.raises(TraceInvariantError, match="duplicate-admission"):
            report.raise_if_violations()

    def test_evicting_nonresident_file_detected(self, tmp_path, workload):
        path, _ = record_run(tmp_path, workload, "lru")
        lines = self._lines(path)
        evict_at = next(
            i for i, l in enumerate(lines) if '"kind":"FileEvicted"' in l
        )
        record = json.loads(lines[evict_at])
        record["file"] = "not-a-real-file"
        lines[evict_at] = json.dumps(record, sort_keys=True)
        bad = tmp_path / "ghost.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        report = reconstruct(bad)
        assert any(v.rule == "evict-nonresident" for v in report.violations)

    def test_tiny_capacity_trips_occupancy_invariant(self, tmp_path, workload):
        path, _ = record_run(tmp_path, workload, "lru")
        report = reconstruct(path, capacity=1)
        assert any(v.rule == "capacity-exceeded" for v in report.violations)
        clean = reconstruct(path, capacity=SPEC.cache_size)
        assert clean.ok

    def test_plan_load_mismatch_detected(self):
        events = [
            JobArrived(job=0, request_id=0, n_files=1, bytes_requested=10),
            PlanComputed(
                policy="lru", loads=2, prefetches=0, evictions=0, hit=False
            ),
            FileAdmitted(file="a", bytes=10, cause="demand"),
            JobArrived(job=1, request_id=1, n_files=1, bytes_requested=10),
        ]
        report = reconstruct(events)
        assert any(v.rule == "plan-load-mismatch" for v in report.violations)

    def test_hit_claim_with_demand_load_detected(self):
        events = [
            JobArrived(job=0, request_id=0, n_files=1, bytes_requested=10),
            PlanComputed(
                policy="lru", loads=0, prefetches=0, evictions=0, hit=True
            ),
            FileAdmitted(file="a", bytes=10, cause="demand"),
        ]
        report = reconstruct(events)
        assert any(v.rule == "hit-with-demand-load" for v in report.violations)

    def test_evict_size_mismatch_detected(self):
        events = [
            FileAdmitted(file="a", bytes=10, cause="demand"),
            FileEvicted(file="a", bytes=99, policy="lru", detail=None),
        ]
        report = reconstruct(events)
        assert any(v.rule == "evict-size-mismatch" for v in report.violations)


class TestReportShape:
    def test_segment_counters_and_render(self, tmp_path, workload):
        path, policy = record_run(tmp_path, workload, "landlord")
        report = reconstruct(path, capacity=SPEC.cache_size)
        assert len(report.segments) == 1
        seg = report.segments[0]
        assert seg.jobs == len(workload)
        assert seg.admissions - seg.evictions == len(report.final_residency())
        assert seg.peak_used <= SPEC.cache_size
        assert seg.used == policy.cache.used
        text = report.render()
        assert "segments: 1" in text and "violations: 0" in text

    def test_experiment_style_concatenated_runs_segment(self, tmp_path, workload):
        path = tmp_path / "two.jsonl"
        with TraceRecorder(JsonlSink(path)) as rec:
            with use_recorder(rec):
                for policy_name in ("lru", "fifo"):
                    simulate_trace(
                        workload,
                        SimulationConfig(
                            cache_size=SPEC.cache_size, policy=policy_name
                        ),
                        recorder=rec,
                    )
        report = reconstruct(path, capacity=SPEC.cache_size)
        assert report.violations == []
        assert len(report.segments) == 2
        assert all(seg.jobs == len(workload) for seg in report.segments)
