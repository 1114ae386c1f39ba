"""``repro bench`` — the paper's decision-latency record.

Two measurements, both written to ``BENCH_<name>.json`` at the repo root so
successive commits leave a machine-readable speed trail next to the code:

* **Throughput + selection latency per policy** — replay one seeded
  synthetic workload (the paper's Section 5.1 construction) under each
  policy, timing the whole run (jobs/sec) and every individual
  ``on_request`` replacement decision (mean/p50/p95/max seconds).  This is
  the paper's Section 1.2 claim — a decision "should be evaluated in an
  almost negligible time relative to the time it takes to cache an
  object" — made measurable.

* **Warm-planner micro-benchmark** — the incremental
  :class:`~repro.core.selection_state.SelectionState` plan path against
  the rebuild-per-arrival path on a warm history of ``n`` candidate
  request types, reporting seconds/plan for both and the speedup.

* :func:`paired_times` — the one paired A/B timer the overhead gates
  under ``benchmarks/`` share (telemetry, durability and tracing); it
  writes nothing to the record.  End-to-end speed is ``perfbench/``'s
  yardstick.

The workloads are fully seeded, so numbers differ across machines but the
*shape* (speedup ratios, relative policy costs) is reproducible.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.cache.registry import make_policy
from repro.core.bundle import FileBundle
from repro.core.history import TruncationMode
from repro.core.optfilebundle import OptFileBundlePlanner
from repro.errors import ConfigError, ReproError
from repro.experiments.common import CACHE_SIZE, bundle_trace, get_scale
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.types import FileId, SizeBytes
from repro.utils.stats import percentile
from repro.utils.tables import render_table
from repro.workload.trace import Trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_POLICIES",
    "bench_policy",
    "planner_workload",
    "warm_planner",
    "warm_planner_timings",
    "PairedTimes",
    "paired_times",
    "run_bench",
    "render_bench",
]

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 6

DEFAULT_POLICIES: tuple[str, ...] = ("optbundle", "landlord")

# Workload knobs shared with the figure drivers (mid-range point).
CACHE_IN_REQUESTS = 8
MAX_FILE_FRACTION = 0.01
POPULARITY = "zipf"

# Warm-planner regime: a large low-overlap catalog (6 distinct files per
# candidate type on average) is where the rebuild path's per-arrival
# O(history) passes dominate; this mirrors a data grid's wide file
# population rather than a hot shared core.
PLANNER_FILES_PER_TYPE = 6
PLANNER_BUNDLE_FILES = (3, 6)
PLANNER_CANDIDATES = (200, 800)
PLANNER_PLANS = 60


# --------------------------------------------------------------------- #
# per-policy throughput + selection latency


def _instrument(policy) -> list[float]:
    """Shadow ``policy.on_request`` with a timing wrapper; return samples."""
    samples: list[float] = []
    orig = policy.on_request

    def timed(bundle):
        t0 = time.perf_counter()
        decision = orig(bundle)
        samples.append(time.perf_counter() - t0)
        return decision

    policy.on_request = timed
    return samples


def _latency_stats(samples: Sequence[float]) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "n": n,
        "mean_s": sum(ordered) / n,
        "p50_s": percentile(ordered, 50),
        "p95_s": percentile(ordered, 95),
        "max_s": ordered[-1],
    }


def bench_policy(
    trace: Trace, policy: str, *, cache_size: SizeBytes = CACHE_SIZE
) -> dict:
    """Time one full simulation of ``trace`` under ``policy``.

    Returns a JSON-ready record with jobs/sec for the whole run and the
    distribution of individual ``on_request`` decision latencies.
    """
    instance = make_policy(policy, future=trace.bundles())
    samples = _instrument(instance)
    config = SimulationConfig(cache_size=cache_size, policy=policy)
    t0 = time.perf_counter()
    result = simulate_trace(trace, config, policy=instance)
    elapsed = time.perf_counter() - t0
    return {
        "policy": policy,
        "n_jobs": len(trace),
        "elapsed_s": elapsed,
        "jobs_per_sec": len(trace) / elapsed if elapsed > 0 else float("inf"),
        "byte_miss_ratio": result.byte_miss_ratio,
        "selection_latency": _latency_stats(samples),
    }


# --------------------------------------------------------------------- #
# warm-planner micro-benchmark (incremental vs rebuild)


def planner_workload(
    n: int, *, seed: int = 0
) -> tuple[dict[FileId, SizeBytes], list[FileBundle], int]:
    """``n`` distinct candidate types over a low-overlap catalog.

    Returns ``(sizes, types, capacity)`` where the capacity holds roughly
    :data:`CACHE_IN_REQUESTS` average bundles.
    """
    rng = random.Random(seed)
    files = [f"f{i:05d}" for i in range(n * PLANNER_FILES_PER_TYPE)]
    sizes: dict[FileId, SizeBytes] = {
        f: 1 + (i * 37) % 100 for i, f in enumerate(files)
    }
    types: list[FileBundle] = []
    seen: set[frozenset[FileId]] = set()
    while len(types) < n:
        b = FileBundle(rng.sample(files, rng.randint(*PLANNER_BUNDLE_FILES)))
        if b.files in seen:
            continue
        seen.add(b.files)
        types.append(b)
    avg_bundle = sum(b.size_under(sizes) for b in types) / n
    capacity = int(avg_bundle * CACHE_IN_REQUESTS)
    return sizes, types, capacity


def warm_planner(
    n: int, *, incremental: bool, seed: int = 0
) -> tuple[OptFileBundlePlanner, list[FileBundle]]:
    """An :class:`OptFileBundlePlanner` with a warm ``n``-candidate history."""
    sizes, types, capacity = planner_workload(n, seed=seed)
    planner = OptFileBundlePlanner(
        capacity,
        sizes,
        truncation=TruncationMode.FULL,
        incremental=incremental,
    )
    for b in types:
        planner.history.record(b)
    return planner, types


def _time_plans(
    planner: OptFileBundlePlanner,
    sizes: dict[FileId, SizeBytes],
    types: Sequence[FileBundle],
    plans: int,
) -> float:
    """Seconds per plan over ``plans`` arrivals cycling through ``types``."""
    resident: set[FileId] = set()
    used = 0
    t0 = time.perf_counter()
    for i in range(plans):
        plan = planner.plan(types[i % len(types)], resident, used)
        planner.commit(plan)
        resident -= plan.evict
        added = plan.load | plan.prefetch
        resident |= added
        used += sum(sizes[f] for f in added) - sum(sizes[f] for f in plan.evict)
    return (time.perf_counter() - t0) / plans


def warm_planner_timings(n: int, *, plans: int = PLANNER_PLANS) -> dict:
    """Incremental vs rebuild plan latency at ``n`` warm candidates."""
    results = {}
    sizes = planner_workload(n)[0]
    for label, incremental in (("incremental", True), ("rebuild", False)):
        planner, types = warm_planner(n, incremental=incremental)
        results[label] = _time_plans(planner, sizes, types, plans)
    return {
        "n_candidates": n,
        "plans": plans,
        "incremental_s_per_plan": results["incremental"],
        "rebuild_s_per_plan": results["rebuild"],
        "speedup": results["rebuild"] / results["incremental"],
    }


# --------------------------------------------------------------------- #
# paired A/B timing (the overhead gates' one protocol)


@dataclass(frozen=True)
class PairedTimes:
    """Seconds per side of a :func:`paired_times` run, in pair order."""

    baseline: tuple[float, ...]
    treatment: tuple[float, ...]

    @property
    def slowdown_by_minima(self) -> float:
        """``min(treatment) / min(baseline) - 1``: extra run time."""
        return min(self.treatment) / min(self.baseline) - 1.0

    @property
    def drop_by_minima(self) -> float:
        """``1 - min(baseline) / min(treatment)``: throughput drop."""
        return 1.0 - min(self.baseline) / min(self.treatment)

    @property
    def drop_by_pair_median(self) -> float:
        """Median over pairs of ``1 - baseline_i / treatment_i``."""
        return statistics.median(
            1.0 - b / t for b, t in zip(self.baseline, self.treatment)
        )


def paired_times(
    baseline: Callable[[], object],
    treatment: Callable[[], object],
    *,
    repeats: int,
) -> PairedTimes:
    """Time ``repeats`` back-to-back pairs of ``baseline`` and ``treatment``.

    One untimed warm-up pair (baseline, then treatment) runs first.  The
    timed pairs alternate which side runs first (baseline in even pairs)
    so a noisy-neighbour phase on a shared machine hits both sides
    instead of whichever one it lands on.  The cyclic GC is paused for
    the timed pairs, since checkpoint state exports allocate enough to
    trigger collections mid-run, and its prior state is restored
    afterwards, also when a side raises.
    """
    baseline()
    treatment()
    base: list[float] = []
    treat: list[float] = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(repeats):
            pair = [(baseline, base), (treatment, treat)]
            if i % 2:
                pair.reverse()
            for fn, times in pair:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return PairedTimes(tuple(base), tuple(treat))


# --------------------------------------------------------------------- #
# the bench driver


def run_bench(
    scale: str = "smoke",
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    name: str = "core",
    out_dir: "str | Path" = ".",
    seed: int = 0,
    planner_candidates: Sequence[int] = PLANNER_CANDIDATES,
) -> dict:
    """Run the benchmark suite and write ``BENCH_<name>.json``.

    Returns the written record (with the output path under ``"path"``).
    ``out_dir`` must be an existing directory; it is checked before any
    timing so a bad path fails fast.
    """
    out_path = Path(out_dir) / f"BENCH_{name}.json"
    if not Path(out_dir).is_dir():
        raise ConfigError(
            f"bench output directory {str(out_dir)!r} is not an existing directory"
        )
    sc = get_scale(scale)
    trace = bundle_trace(
        sc,
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=seed,
    )
    policy_records = [bench_policy(trace, p) for p in policies]
    planner_records = [
        warm_planner_timings(n) for n in planner_candidates
    ]
    record = {
        "name": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": sc.name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": {
            "popularity": POPULARITY,
            "cache_in_requests": CACHE_IN_REQUESTS,
            "max_file_fraction": MAX_FILE_FRACTION,
            "cache_size": CACHE_SIZE,
            "n_jobs": len(trace),
            "n_files": len(trace.catalog),
            "seed": seed,
        },
        "policies": policy_records,
        "planner": planner_records,
    }
    # atomic: a crash mid-bench never leaves a torn benchmark record
    from repro.durability.atomicio import atomic_write_text

    try:
        atomic_write_text(out_path, json.dumps(record, indent=2) + "\n")
    except OSError as exc:
        raise ReproError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    record["path"] = str(out_path)
    return record


def render_bench(record: dict) -> str:
    """Human-readable summary of a :func:`run_bench` record."""
    policy_rows = [
        [
            r["policy"],
            r["jobs_per_sec"],
            r["selection_latency"]["mean_s"] * 1e3,
            r["selection_latency"]["p95_s"] * 1e3,
            r["byte_miss_ratio"],
        ]
        for r in record["policies"]
    ]
    planner_rows = [
        [
            r["n_candidates"],
            r["incremental_s_per_plan"] * 1e3,
            r["rebuild_s_per_plan"] * 1e3,
            r["speedup"],
        ]
        for r in record["planner"]
    ]
    parts = [
        f"bench {record['name']!r} at scale {record['scale']} "
        f"({record['workload']['n_jobs']} jobs)",
        render_table(
            ["policy", "jobs/sec", "sel mean [ms]", "sel p95 [ms]", "byte miss"],
            policy_rows,
        ),
        "warm-planner: incremental vs rebuild",
        render_table(
            ["candidates", "incremental [ms]", "rebuild [ms]", "speedup"],
            planner_rows,
        ),
    ]
    return "\n".join(parts)
