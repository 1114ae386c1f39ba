"""Unit tests for the timed SRM simulation."""

import pytest

from repro.cache.registry import POLICY_REGISTRY
from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.errors import ConfigError
from repro.grid.network import NetworkLink
from repro.grid.srm import SRMConfig, StorageResourceManager, run_timed_simulation
from repro.sim.engine import EventEngine
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry import RingSink, TraceRecorder, use_recorder
from repro.telemetry.events import FileEvicted, JobArrived, PlanComputed
from repro.types import MB, FileCatalog
from repro.workload.generator import WorkloadSpec, generate_trace
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
    )
    defaults.update(kw)
    return SRMConfig(**defaults)


class TestSRMConfig:
    def test_invalid(self):
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=0)
        with pytest.raises(ConfigError):
            SRMConfig(cache_size=10, processing_time=-1)


class TestTimedRuns:
    def test_single_job_response_time(self):
        # stage f0: mount 1 + read 1, then link 1, then processing 0.5
        r = run_timed_simulation(timed_trace([["f0"]]), config())
        assert r.jobs == 1
        assert r.mean_response_time == pytest.approx(3.5)
        assert r.bytes_staged == 100

    def test_hit_skips_staging(self):
        r = run_timed_simulation(
            timed_trace([["f0"], ["f0"]], gap=10.0), config()
        )
        assert r.request_hits == 1
        # second job: only processing time
        assert r.max_response_time == pytest.approx(3.5)

    def test_parallel_staging_two_files(self):
        # two files on two drives: staging overlaps
        r = run_timed_simulation(timed_trace([["f0", "f1"]]), config())
        assert r.mean_response_time == pytest.approx(3.5)

    def test_serialized_staging_one_drive(self):
        r = run_timed_simulation(
            timed_trace([["f0", "f1"]]), config(n_drives=1)
        )
        # second file waits for the drive: 2 + 2 (mss) and link overlaps
        assert r.mean_response_time == pytest.approx(5.5)

    def test_jobs_queue_behind_service(self):
        r = run_timed_simulation(
            timed_trace([["f0"], ["f1"]], gap=0.0), config()
        )
        assert r.jobs == 2
        # job 2 waits for job 1 to finish before staging starts
        assert r.max_response_time > r.mean_response_time / 2

    def test_unserviceable_oversized_job(self):
        r = run_timed_simulation(
            timed_trace([["f0", "f1", "f2", "f3"]]), config()
        )
        assert r.unserviceable == 1
        assert r.jobs == 0

    def test_throughput_makespan(self):
        r = run_timed_simulation(
            timed_trace([["f0"], ["f1"], ["f2"]], gap=0.1), config()
        )
        assert r.makespan > 0
        assert r.throughput == pytest.approx(r.jobs / r.makespan)

    def test_as_dict(self):
        r = run_timed_simulation(timed_trace([["f0"]]), config())
        d = r.as_dict()
        assert d["policy"] == "lru" and "mean_response_time" in d

    def test_eviction_under_pressure_timed(self):
        bundles = [["f0"], ["f1"], ["f2"], ["f3"], ["f0"]]
        r = run_timed_simulation(
            timed_trace(bundles, gap=20.0), config(cache_size=300)
        )
        assert r.jobs == 5
        assert r.bytes_staged >= 400


class TestSameDecisionsAsBatch:
    """One service slot and free staging make the SRM a batch replay.

    With one slot a job is decided only after the previous one was
    accounted, so the SRM must take exactly the decisions
    :func:`simulate_trace` takes, for every policy.  One drive, slower
    than the link, stages the files in the sorted order the core decided
    them, so they enter the cache in the order the batch simulator loads
    them: ``random`` draws its victims from the residents in that order.
    The workload is generated for a cache twice the simulated one, so
    some bundles are unserviceable and that branch of the core is
    covered too.
    """

    CACHE = 16 * MB

    @pytest.fixture(scope="class")
    def workload(self):
        return generate_trace(
            WorkloadSpec(
                cache_size=2 * self.CACHE,
                n_files=60,
                n_request_types=40,
                n_jobs=150,
                popularity="zipf",
                max_file_fraction=0.1,
                max_bundle_fraction=0.8,
                arrival_rate=0.05,
                seed=5,
            )
        )

    @staticmethod
    def decisions(sink):
        kinds = (JobArrived, PlanComputed, FileEvicted)
        return [e for e in sink.events if isinstance(e, kinds)]

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_srm_decides_like_simulate_trace(self, workload, policy_name):
        batch_sink = RingSink()
        with TraceRecorder(batch_sink) as rec:
            batch = simulate_trace(
                workload,
                SimulationConfig(cache_size=self.CACHE, policy=policy_name),
                recorder=rec,
            ).metrics

        timed_sink = RingSink()
        with TraceRecorder(timed_sink) as rec, use_recorder(rec):
            engine = EventEngine()
            srm = StorageResourceManager(
                engine,
                workload.catalog.as_dict(),
                SRMConfig(
                    cache_size=self.CACHE,
                    policy=policy_name,
                    n_drives=1,
                    mount_latency=0.0,
                    drive_bandwidth=1e15,
                    link=NetworkLink(bandwidth=1e18, latency=0.0),
                    processing_time=0.0,
                ),
                future_bundles=workload.bundles(),
            )
            for request in workload:
                engine.schedule_at(
                    request.arrival_time, lambda r=request: srm.submit(r)
                )
            engine.run()
        timed = srm.core.metrics.snapshot()

        assert batch.unserviceable > 0
        assert self.decisions(timed_sink) == self.decisions(batch_sink)
        assert timed.jobs == batch.jobs
        assert timed.unserviceable == batch.unserviceable
        assert timed.request_hits == batch.request_hits
        assert timed.bytes_requested == batch.bytes_requested
        assert timed.bytes_demand_loaded == batch.bytes_demand_loaded
