#!/usr/bin/env python
"""Climate-analysis jobs on a multi-site timed data grid.

The paper's second motivating example (Fig. 1): climate simulation output
is vertically partitioned — one file per (run, variable) — and analysis
jobs correlate several variables of a run simultaneously.  Here the files
live on two replica sites behind different WAN links; an SRM stages missing
files through its disk cache.  The timed simulation reports what end users
feel: job response time and throughput, per replacement policy.

Run:  python examples/climate_grid.py
"""

import numpy as np

from repro.grid import (
    DataGridSite,
    NetworkLink,
    ReplicaCatalog,
    SRMConfig,
    StorageResourceManager,
)
from repro.sim import EventEngine
from repro.types import GB, MB
from repro.utils.tables import render_table
from repro.workload import climate_trace

CACHE = 2 * GB


def build_grid(engine: EventEngine, file_ids, rng) -> ReplicaCatalog:
    """Two storage sites; every file on the archive, hot files mirrored."""
    replicas = ReplicaCatalog()
    archive = DataGridSite.build(
        engine,
        "tape-archive",
        n_drives=4,
        mount_latency=25.0,
        drive_bandwidth=40 * MB,
        link=NetworkLink(bandwidth=50 * MB, latency=0.08),
    )
    mirror = DataGridSite.build(
        engine,
        "disk-mirror",
        n_drives=8,
        mount_latency=0.5,  # disk, not tape
        drive_bandwidth=120 * MB,
        link=NetworkLink(bandwidth=200 * MB, latency=0.02),
    )
    replicas.add_site(archive)
    replicas.add_site(mirror)
    for fid in file_ids:
        replicas.add_replica(fid, "tape-archive")
        if rng.random() < 0.3:  # 30% of files also on the fast mirror
            replicas.add_replica(fid, "disk-mirror")
    return replicas


def main() -> None:
    trace = climate_trace(n_runs=10, n_analyses=20, n_jobs=800, seed=11)
    print(
        f"Climate workload: {len(trace)} jobs over {len(trace.catalog)} "
        f"(run, variable) files ({trace.catalog.total_bytes() / GB:.1f} GB)"
    )

    rows = []
    for policy in ("optbundle", "landlord", "lru"):
        engine = EventEngine()
        replicas = build_grid(engine, trace.catalog.ids(), np.random.default_rng(5))
        srm = StorageResourceManager(
            engine,
            trace.catalog.as_dict(),
            SRMConfig(cache_size=CACHE, policy=policy, processing_time=2.0),
            replicas=replicas,
        )
        # Poisson arrivals, identical across policies (fixed seed).
        arr_rng = np.random.default_rng(99)
        t = 0.0
        for request in trace:
            t += float(arr_rng.exponential(20.0))
            engine.schedule_at(t, lambda r=request: srm.submit(r))
        engine.run()
        r = srm.result()
        rows.append(
            [
                policy,
                r.mean_response_time,
                r.throughput * 3600,
                r.bytes_staged / GB,
                r.request_hit_ratio,
            ]
        )
    print(render_table(
        ["policy", "mean resp [s]", "jobs/hour", "staged [GB]", "hit ratio"],
        rows,
    ))


if __name__ == "__main__":
    main()
