"""Windowed time series of caching metrics (learning curves).

OptFileBundle learns the request population as the history ``L(R)`` fills;
per-window byte miss ratios make that warm-up visible and show when a run
has reached steady state — information a single end-of-run ratio hides.

The replay is :class:`~repro.sim.coordinator.CoordinatorCore` itself;
:class:`OutcomeWindows` only folds the :class:`~repro.sim.coordinator.JobOutcome`
of each job into fixed-size windows, the way the service's SLO monitor
consumes outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policy import ReplacementPolicy
from repro.cache.registry import make_policy
from repro.cache.state import CacheState
from repro.errors import ConfigError
from repro.sim.coordinator import CoordinatorCore, JobOutcome
from repro.sim.metrics import MetricsCollector, WindowAccumulator
from repro.sim.simulator import SimulationConfig
from repro.telemetry import WindowRolled, current_recorder
from repro.telemetry.recorder import TraceRecorder
from repro.workload.trace import Trace

__all__ = ["OutcomeWindows", "WindowPoint", "byte_miss_timeseries"]


@dataclass(frozen=True)
class WindowPoint:
    """Aggregated metrics of one window of jobs."""

    window_index: int
    jobs: int
    byte_miss_ratio: float
    request_hit_ratio: float


class OutcomeWindows:
    """Fold job outcomes into windows of ``window`` serviced jobs.

    Unserviceable jobs are not counted.  Each completed window is appended
    to :attr:`points` and, with an active recorder, emitted as a
    :class:`~repro.telemetry.WindowRolled` event right after the events of
    the job that completed it.
    """

    def __init__(self, window: int, recorder: TraceRecorder):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.window = window
        self.points: list[WindowPoint] = []
        self._rec = recorder
        self._acc = WindowAccumulator()

    def observe(self, outcome: JobOutcome) -> None:
        """Fold one job in; rolls the window when it fills."""
        if outcome.unserviceable:
            return
        self._acc.add(
            requested_bytes=outcome.requested_bytes,
            loaded_bytes=outcome.demand_bytes,
            hit=outcome.hit,
        )
        if self._acc.jobs == self.window:
            self.flush()

    def flush(self) -> None:
        """Close the current window, if it holds any job."""
        acc = self._acc
        if acc.jobs == 0:
            return
        point = WindowPoint(
            window_index=len(self.points),
            jobs=acc.jobs,
            byte_miss_ratio=acc.byte_miss_ratio,
            request_hit_ratio=acc.request_hit_ratio,
        )
        self.points.append(point)
        if self._rec.active:
            self._rec.emit(
                WindowRolled(
                    index=point.window_index,
                    jobs=point.jobs,
                    byte_miss_ratio=point.byte_miss_ratio,
                    request_hit_ratio=point.request_hit_ratio,
                )
            )
        acc.reset()


def byte_miss_timeseries(
    trace: Trace,
    config: SimulationConfig,
    *,
    window: int = 200,
    policy: ReplacementPolicy | None = None,
) -> list[WindowPoint]:
    """Replay a trace, reporting per-window byte miss / request-hit ratios.

    Each job goes through the same :class:`CoordinatorCore` as
    :func:`repro.sim.simulator.simulate_trace` (FCFS only — learning
    curves with queueing would conflate scheduling reordering with
    learning), so the decision trace is the simulator's plus one
    ``WindowRolled`` per window.
    """
    windows = OutcomeWindows(window, current_recorder())
    if config.queue_length != 1:
        raise ConfigError("byte_miss_timeseries supports queue_length=1 only")

    sizes = trace.catalog.as_dict()
    cache = CacheState(config.cache_size)
    if policy is None:
        policy = make_policy(
            config.policy, future=trace.bundles(), **config.policy_kwargs
        )
    policy.bind(cache, sizes)
    core = CoordinatorCore(
        cache=cache,
        policy=policy,
        sizes=sizes,
        metrics=MetricsCollector(warmup=config.warmup),
        check_invariants=config.check_invariants,
    )
    for job_index, request in enumerate(trace):
        windows.observe(core.submit(job_index, request))
    windows.flush()
    return windows.points
