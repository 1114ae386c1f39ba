"""Coordinator-service replay: the online serving path decides as batch does.

The paper's Section 1.2 requires replacement decisions "evaluated in an
almost negligible time"; the online coordinator adds HTTP framing, the
write-ahead journal and the arrivals record on top of each decision.
This test replays the seeded bench workload over real loopback HTTP per
policy: every job must be serviced without error, the achieved decision
quality must equal the batch simulator's exactly, and the service must
sustain a sane throughput floor at smoke scale.  Its speed is measured
by perfbench's ``service-uniform`` workload.
"""

import pytest

from repro.experiments.bench import DEFAULT_POLICIES
from repro.experiments.common import CACHE_SIZE
from repro.service import CoordinatorState, ServiceConfig, run_loadgen
from repro.service.testing import running_service
from repro.sim.simulator import SimulationConfig, simulate_trace


def test_service_replay_matches_batch(bench_trace, tmp_path):
    workload = tmp_path / "workload.jsonl"
    bench_trace.dump(workload)
    throughputs = []
    for policy in DEFAULT_POLICIES:
        state = CoordinatorState.create(
            ServiceConfig(
                workload=workload,
                cache_size=CACHE_SIZE,
                run_dir=tmp_path / f"run_{policy}",
                policy=policy,
                checkpoint_every=100,
            )
        )
        with running_service(state) as svc:
            report = run_loadgen(bench_trace, svc.host, svc.port, concurrency=4)
        # every job serviced, none dropped, latency percentiles ordered
        assert report.errors == 0, policy
        assert report.jobs == len(bench_trace), policy
        assert report.latency_p50_ms <= report.latency_p99_ms, policy
        # the online system must not change the paper's metric: the
        # byte-miss ratio over HTTP equals the batch simulator's
        batch = simulate_trace(
            bench_trace, SimulationConfig(cache_size=CACHE_SIZE, policy=policy)
        )
        assert report.byte_miss_ratio == pytest.approx(
            batch.metrics.byte_miss_ratio, abs=1e-12
        ), policy
        throughputs.append(report.throughput_jobs_per_s)
    # a soft floor: loopback HTTP + journal should comfortably clear
    # 100 jobs/sec at smoke scale on any machine that runs the suite
    assert max(throughputs) > 100
