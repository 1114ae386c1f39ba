"""Benchmark harness configuration.

Every paper table/figure has one benchmark that (a) regenerates the
rows/series the paper reports, (b) writes the rendered tables/charts to
``benchmarks/results/<experiment>.txt`` (pytest captures stdout, so the
artefacts are persisted rather than only printed), and (c) asserts the
qualitative shape (who wins, which way curves trend).  Each experiment
runs exactly once per session (``rounds=1``): these are simulation
regenerations, not micro-benchmarks, and their cost *is* the measurement.

Set ``REPRO_BENCH_SCALE`` to ``smoke`` / ``quick`` / ``paper`` to override
the per-benchmark default scales (``paper`` reproduces the original job
counts and takes tens of minutes).

The overhead gates (``test_bench_{telemetry,durability,tracing,service}``)
share the :func:`bench_trace` workload; the timed ones measure their two
sides with :func:`repro.experiments.bench.paired_times`.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.experiments.bench import (
    CACHE_IN_REQUESTS,
    MAX_FILE_FRACTION,
    POPULARITY,
)
from repro.experiments.common import bundle_trace, get_scale

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale(default: str) -> str:
    return os.environ.get("REPRO_BENCH_SCALE", default)


@pytest.fixture(scope="session")
def bench_trace():
    """The seeded smoke-scale workload ``repro-fbc bench`` replays."""
    return bundle_trace(
        get_scale("smoke"),
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=0,
    )


@pytest.fixture()
def run_exp(benchmark):
    """Run an experiment driver once under pytest-benchmark.

    Prints the rendered output (visible with ``-s``), saves it under
    ``benchmarks/results/``, and returns the ``ExperimentOutput`` for
    shape assertions.
    """

    def _run(exp_id: str, default_scale: str):
        scale = bench_scale(default_scale)
        out = benchmark.pedantic(
            run_experiment, args=(exp_id, scale), rounds=1, iterations=1
        )
        rendered = out.render()
        print()
        print(rendered)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{exp_id}.txt").write_text(
            rendered + f"\n[scale={scale}]\n", encoding="utf-8"
        )
        benchmark.extra_info["experiment"] = exp_id
        benchmark.extra_info["scale"] = scale
        return out

    return _run
