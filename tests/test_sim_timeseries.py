"""Unit tests for windowed metric time series."""

import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.policy import PolicyDecision
from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.errors import ConfigError, SimulationError
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.sim.timeseries import byte_miss_timeseries
from repro.types import FileCatalog
from repro.workload.trace import Trace

SIZES = {f"f{i}": 10 for i in range(6)}


def trace_of(bundle_lists):
    return Trace(
        FileCatalog(SIZES),
        RequestStream(
            Request(i, FileBundle(b)) for i, b in enumerate(bundle_lists)
        ),
    )


class TestTimeseries:
    def test_window_partitioning(self):
        t = trace_of([["f0"]] * 10)
        pts = byte_miss_timeseries(
            t, SimulationConfig(cache_size=100, policy="lru"), window=4
        )
        assert [p.jobs for p in pts] == [4, 4, 2]
        assert [p.window_index for p in pts] == [0, 1, 2]

    def test_learning_visible(self):
        # Repeating workload: first window pays cold misses, later ones hit.
        t = trace_of([["f0"], ["f1"], ["f2"]] * 5)
        pts = byte_miss_timeseries(
            t, SimulationConfig(cache_size=100, policy="lru"), window=3
        )
        assert pts[0].byte_miss_ratio == 1.0
        assert all(p.byte_miss_ratio == 0.0 for p in pts[1:])
        assert all(p.request_hit_ratio == 1.0 for p in pts[1:])

    def test_overall_ratio_matches_simulator(self):
        t = trace_of([["f0"], ["f1"], ["f0", "f2"], ["f1"], ["f3"]] * 4)
        cfg = SimulationConfig(cache_size=30, policy="optbundle")
        pts = byte_miss_timeseries(t, cfg, window=5)
        total_loaded = sum(
            p.byte_miss_ratio * p.jobs * 0 for p in pts
        )  # ratios are per-window; reconstruct via weighted bytes below
        # reconstruct weighted ratio from window data
        requested_per_job = None
        result = simulate_trace(t, cfg)
        # weighted mean of window ratios (weights = window requested bytes)
        # must equal the end-to-end byte miss ratio
        sizes = SIZES
        jobs = t.bundles()
        w = 5
        weighted = 0.0
        total_requested = 0
        for i, p in enumerate(pts):
            chunk = jobs[i * w : i * w + p.jobs]
            req = sum(b.size_under(sizes) for b in chunk)
            weighted += p.byte_miss_ratio * req
            total_requested += req
        assert weighted / total_requested == pytest.approx(
            result.byte_miss_ratio
        )

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            byte_miss_timeseries(
                trace_of([["f0"]]), SimulationConfig(cache_size=100), window=0
            )

    def test_queueing_rejected(self):
        with pytest.raises(ConfigError):
            byte_miss_timeseries(
                trace_of([["f0"]]),
                SimulationConfig(cache_size=100, queue_length=5),
            )

    def test_oversized_jobs_skipped(self):
        t = trace_of([["f0", "f1", "f2", "f3"], ["f0"]])
        pts = byte_miss_timeseries(
            t, SimulationConfig(cache_size=25, policy="lru"), window=10
        )
        assert pts[0].jobs == 1

    def test_policy_over_commit_is_simulation_error(self):
        # the replay runs through CoordinatorCore, so a policy that makes
        # no room for a miss fails its free-space check before any load
        class NoEvict(LRUPolicy):
            def on_request(self, bundle):
                return PolicyDecision()

        t = trace_of([["f0"], ["f1"], ["f2"]])
        with pytest.raises(SimulationError, match="free"):
            byte_miss_timeseries(
                t,
                SimulationConfig(cache_size=20, policy="lru"),
                window=10,
                policy=NoEvict(),
            )
