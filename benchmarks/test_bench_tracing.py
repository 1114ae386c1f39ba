"""Request-tracing overhead benchmark: the ≤5% ring contract.

The span ring is on by default in the coordinator service, so its cost
rides on every serviced job.  The contract: submitting the seeded bench
workload with the default 256-entry ring costs at most 5% of jobs/sec
throughput against the same run with tracing disabled (``debug_ring=0``
— the :meth:`~repro.telemetry.tracing.RequestTracer.request` context
manager degenerates to a no-op).  Jobs go straight to a durable
:class:`~repro.service.state.CoordinatorState`, not over HTTP, where
the network would drown the signal; the estimator mirrors the
durability benchmark's.
"""

import itertools

import pytest

from repro.experiments.bench import paired_times
from repro.experiments.common import CACHE_SIZE
from repro.service import CoordinatorState, ServiceConfig


@pytest.mark.benchmark(group="tracing-overhead")
def test_tracing_overhead_within_5_percent(benchmark, bench_trace, tmp_path):
    workload = tmp_path / "workload.jsonl"
    bench_trace.dump(workload)
    requests = list(bench_trace)
    run_ids = itertools.count()

    def submit_all(debug_ring: int) -> None:
        state = CoordinatorState.create(
            ServiceConfig(
                workload=workload,
                cache_size=CACHE_SIZE,
                run_dir=tmp_path / f"run_{next(run_ids)}",
                policy="optbundle",
                checkpoint_every=100,
                debug_ring=debug_ring,
            )
        )
        try:
            tracer = state.tracer
            for r in requests:
                with tracer.request(tracer.next_read_id(), route="/v1/jobs"):
                    state.submit(sorted(r.bundle.files), priority=r.priority)
        finally:
            state.close()

    def measure() -> float:
        times = paired_times(
            lambda: submit_all(0), lambda: submit_all(256), repeats=7
        )
        return min(times.drop_by_minima, times.drop_by_pair_median)

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["tracing_overhead"] = overhead
    # the contract gates the code's marginal cost, not the machine's
    # mood: on a shared box a noise phase can cover a whole measurement,
    # so an over-threshold reading is re-measured before it fails
    for _ in range(2):
        if overhead <= 0.05:
            break
        overhead = min(overhead, measure())
    assert overhead <= 0.05, (
        f"the request-tracing ring costs {overhead:.1%} of jobs/sec "
        "throughput even in its best of three measurements, exceeding "
        "the 5% contract over the tracing-disabled baseline"
    )
