"""Chaos study: does the bundle-caching advantage survive an unreliable grid?

The paper's headline result — OptFileBundle turning jobs around faster
than Landlord because it keeps the right file *combinations* resident —
is measured on a perfect grid.  This driver degrades the grid with the
:mod:`repro.faults` subsystem (drive failures, transfer failures,
latency spikes, replica-site downtime, all at one sweep rate via
:meth:`FaultSpec.uniform`) and re-measures both policies behind the
fault-tolerant staging pipeline (retries, failover, requeue).

Two effects compete as the fault rate rises: every staged byte now risks
a retry, so a policy that stages *less* (OptFileBundle) loses less time
to faults; but fault delays also lengthen the queue, which dilutes the
relative gap.  The driver reports response time, byte miss ratio and the
robustness counters so both effects are visible.

The grid is two-site (archive + mirror of the hottest files) so the
failover path is actually exercised: when one site enters a downtime
window, staging re-resolves to the other replica holder.
"""

from __future__ import annotations

from repro.analysis.report import ExperimentOutput
from repro.experiments.common import CACHE_SIZE, get_scale
from repro.faults import FaultSpec
from repro.grid.network import NetworkLink
from repro.grid.replication import build_two_tier_catalog, place_by_popularity
from repro.grid.site import DataGridSite
from repro.grid.srm import SRMConfig, SRMResult, StorageResourceManager
from repro.sim.engine import EventEngine
from repro.types import MB
from repro.utils.stats import mean_confidence_interval
from repro.utils.tables import render_table
from repro.workload.generator import WorkloadSpec, generate_trace
from repro.workload.trace import Trace

__all__ = ["run_chaos", "run_chaos_once", "CHAOS_POLICIES", "FAULT_RATES"]

CHAOS_POLICIES = ("optbundle", "landlord")

#: Default sweep: healthy grid, mildly degraded, heavily degraded.
FAULT_RATES = (0.0, 0.05, 0.15)


def chaos_trace(
    *,
    cache_size: int = CACHE_SIZE,
    n_files: int,
    n_request_types: int,
    n_jobs: int,
    seed: int,
) -> Trace:
    """The timed workload every chaos point replays (same as ``grid``'s)."""
    return generate_trace(
        WorkloadSpec(
            cache_size=cache_size,
            n_files=n_files,
            n_request_types=n_request_types,
            n_jobs=n_jobs,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.2,
            arrival_rate=0.05,
            seed=seed,
        )
    )


def run_chaos_once(
    trace: Trace,
    policy: str,
    fault_rate: float,
    *,
    cache_size: int = CACHE_SIZE,
    fault_seed: int = 0,
    max_retries: int = 3,
    staging_timeout: float | None = 600.0,
) -> SRMResult:
    """One policy on a two-site grid at one fault rate, fully deterministic.

    A ``fault_rate`` of 0 runs the identical pipeline with a disabled
    :class:`FaultSpec`, so the healthy row doubles as the regression
    anchor for the fault-free code path.
    """
    faults = FaultSpec.uniform(fault_rate, seed=fault_seed)
    config = SRMConfig(
        cache_size=cache_size,
        policy=policy,
        faults=faults,
        max_retries=max_retries,
        staging_timeout=staging_timeout,
    )
    engine = EventEngine()
    archive = DataGridSite.build(
        engine,
        "archive",
        n_drives=4,
        mount_latency=25.0,
        drive_bandwidth=40 * MB,
        link=NetworkLink(bandwidth=50 * MB, latency=0.08),
    )
    mirror = DataGridSite.build(
        engine,
        "mirror",
        n_drives=8,
        mount_latency=0.5,
        drive_bandwidth=120 * MB,
        link=NetworkLink(bandwidth=200 * MB, latency=0.02),
    )
    mirrored = place_by_popularity(trace, trace.catalog.total_bytes() // 4)
    replicas = build_two_tier_catalog(trace, archive, mirror, mirrored)
    srm = StorageResourceManager(
        engine, trace.catalog.as_dict(), config, replicas=replicas
    )
    for request in trace:
        engine.schedule_at(request.arrival_time, lambda r=request: srm.submit(r))
    engine.run()
    return srm.result()


def run_chaos(scale: str = "quick") -> ExperimentOutput:
    scale = get_scale(scale)
    n_jobs = max(scale.n_jobs // 10, 100)
    sections: list[tuple[str, str]] = []
    data: dict = {}
    for rate in FAULT_RATES:
        rows = []
        panel: dict = {}
        for policy in CHAOS_POLICIES:
            per_seed = []
            for seed in scale.seeds:
                trace = chaos_trace(
                    n_files=scale.n_files,
                    n_request_types=scale.n_request_types // 2,
                    n_jobs=n_jobs,
                    seed=seed,
                )
                per_seed.append(
                    run_chaos_once(trace, policy, rate, fault_seed=seed)
                )
            resp, resp_ci = mean_confidence_interval(
                [r.mean_response_time for r in per_seed]
            )
            bmr, _ = mean_confidence_interval(
                [r.byte_miss_ratio for r in per_seed]
            )
            lost, _ = mean_confidence_interval(
                [r.time_lost_to_faults for r in per_seed]
            )
            retries = sum(r.retries for r in per_seed)
            failovers = sum(r.failovers for r in per_seed)
            failed = sum(r.failed_jobs for r in per_seed)
            rows.append([policy, resp, resp_ci, bmr, retries, failovers, failed, lost])
            panel[policy] = {
                "mean_response_time": resp,
                "byte_miss_ratio": bmr,
                "retries": retries,
                "failovers": failovers,
                "failed_jobs": failed,
                "time_lost_to_faults": lost,
            }
        sections.append(
            (
                f"fault rate {rate:.2f}",
                render_table(
                    [
                        "policy",
                        "resp time [s]",
                        "±",
                        "byte miss",
                        "retries",
                        "failovers",
                        "failed",
                        "time lost [s]",
                    ],
                    rows,
                ),
            )
        )
        data[f"{rate:.2f}"] = panel
    return ExperimentOutput(
        exp_id="chaos",
        title="Policies under grid degradation (fault injection)",
        description=(
            "Two-site grid (archive + popularity mirror) degraded by seeded "
            "drive/transfer/spike/downtime faults; the SRM retries with "
            "capped backoff, fails over across replicas and requeues "
            "exhausted jobs.  Compares optbundle vs landlord response time "
            "and byte miss ratio as the fault rate rises."
        ),
        sections=tuple(sections),
        data=data,
    )
