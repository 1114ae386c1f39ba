"""Timed Storage-Resource-Manager simulation.

Jobs arrive at simulated times.  The SRM services bundles
*one-bundle-at-a-time* on the staging side — exactly the paper's service
model — while up to ``service_slots`` jobs may be in their compute phase
concurrently.  Starting a job pins its files (an SRM's core contract:
files a job depends on are never evicted mid-service); the replacement
policy therefore never sees pinned files as eviction victims, and a job
whose start is blocked by other jobs' pins waits, untouched, until a
completion releases them.

Every decision runs on the :class:`~repro.sim.coordinator.CoordinatorCore`
the untimed drivers use: a job is *decided* when it starts (the same
``JobArrived``/``PlanComputed``/``FileEvicted`` events, evictions and
unserviceable check), each planned load enters the cache as its staging
completes, and the job is *accounted* when its compute phase ends.

Fault tolerance
---------------
With ``SRMConfig.faults`` set, the grid components the SRM drives can
fail (see :mod:`repro.faults`): tape retrievals abort, WAN transfers die
mid-flight or spike in latency, replica sites go down.  The staging
pipeline absorbs these instead of crashing: each file staging attempt is
retried with capped exponential backoff plus deterministic jitter, an
optional per-file ``staging_timeout`` bounds how long one attempt may
hang, and each retry re-resolves the best replica source *excluding
sites currently down* (failover).  A job whose file exhausts its retry
budget is requeued once; a second exhaustion counts it in
``failed_jobs``.  All robustness events are reported on
:class:`SRMResult` (``retries``, ``failovers``, ``timeouts``,
``failed_jobs``, ``time_lost_to_faults``).

Reported quantities are job **response time** (completion − arrival),
**throughput** and bytes staged — the timed face of the same trade-off the
byte-miss experiments measure: a policy that keeps the right file
*combinations* resident stages less and turns jobs around faster.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.cache.registry import make_policy
from repro.cache.state import CacheState
from repro.core.request import Request
from repro.errors import (
    ConfigError,
    RetryExhaustedError,
    SimulationError,
    StagingTimeoutError,
)
from repro.faults import FaultInjector, FaultSpec
from repro.grid.mss import MassStorageSystem
from repro.grid.network import NetworkLink
from repro.grid.site import ReplicaCatalog
from repro.sim.coordinator import CoordinatorCore, JobOutcome
from repro.sim.engine import EventEngine
from repro.sim.metrics import MetricsCollector
from repro.telemetry import (
    MetricsRegistry,
    StageCompleted,
    StageFailedOver,
    StageRetried,
    StageStarted,
    current_recorder,
    use_recorder,
)
from repro.telemetry.recorder import TraceRecorder
from repro.types import MB, FileId, SizeBytes
from repro.workload.trace import Trace

__all__ = ["SRMConfig", "SRMResult", "StorageResourceManager", "run_timed_simulation"]

#: Upper bound on retained fault-log entries (observability, not accounting).
_FAULT_LOG_LIMIT = 200

#: simulated response times: 0.1 s .. ~30 000 s, half-decade steps
_RESPONSE_TIME_BUCKETS: tuple[float, ...] = tuple(
    0.1 * (10 ** (i / 2)) for i in range(12)
)


@dataclass(frozen=True)
class SRMConfig:
    """Parameters of a timed SRM run."""

    cache_size: SizeBytes
    policy: str = "optbundle"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    n_drives: int = 4
    mount_latency: float = 20.0
    drive_bandwidth: float = 60 * MB
    link: NetworkLink = field(default_factory=NetworkLink)
    processing_time: float = 1.0
    service_slots: int = 1
    faults: FaultSpec | None = None
    max_retries: int = 3
    retry_backoff: float = 2.0
    backoff_cap: float = 60.0
    backoff_jitter: float = 0.1
    staging_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.cache_size <= 0:
            raise ConfigError(f"cache_size must be positive, got {self.cache_size}")
        if self.processing_time < 0:
            raise ConfigError(
                f"processing_time must be non-negative, got {self.processing_time}"
            )
        if self.service_slots < 1:
            raise ConfigError(
                f"service_slots must be >= 1, got {self.service_slots}"
            )
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff <= 0:
            raise ConfigError(
                f"retry_backoff must be positive, got {self.retry_backoff}"
            )
        if self.backoff_cap < self.retry_backoff:
            raise ConfigError(
                f"backoff_cap must be >= retry_backoff, got {self.backoff_cap}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.staging_timeout is not None and self.staging_timeout <= 0:
            raise ConfigError(
                f"staging_timeout must be positive, got {self.staging_timeout}"
            )


@dataclass(frozen=True)
class SRMResult:
    """Outcome of :func:`run_timed_simulation`."""

    policy: str
    jobs: int
    unserviceable: int
    makespan: float
    mean_response_time: float
    max_response_time: float
    throughput: float
    bytes_staged: SizeBytes
    request_hits: int
    bytes_requested: SizeBytes = 0
    deferred_starts: int = 0
    retries: int = 0
    failovers: int = 0
    timeouts: int = 0
    requeues: int = 0
    failed_jobs: int = 0
    time_lost_to_faults: float = 0.0

    @property
    def request_hit_ratio(self) -> float:
        return self.request_hits / self.jobs if self.jobs else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        """Bytes staged over bytes requested by completed jobs.

        The timed analogue of the untimed simulator's byte miss ratio;
        staging for jobs that later failed is included in the numerator,
        so under heavy faults this slightly overstates the miss cost.
        """
        return (
            self.bytes_staged / self.bytes_requested if self.bytes_requested else 0.0
        )

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "jobs": self.jobs,
            "unserviceable": self.unserviceable,
            "makespan": self.makespan,
            "mean_response_time": self.mean_response_time,
            "max_response_time": self.max_response_time,
            "throughput": self.throughput,
            "bytes_staged": self.bytes_staged,
            "bytes_requested": self.bytes_requested,
            "byte_miss_ratio": self.byte_miss_ratio,
            "request_hits": self.request_hits,
            "request_hit_ratio": self.request_hit_ratio,
            "deferred_starts": self.deferred_starts,
            "retries": self.retries,
            "failovers": self.failovers,
            "timeouts": self.timeouts,
            "requeues": self.requeues,
            "failed_jobs": self.failed_jobs,
            "time_lost_to_faults": self.time_lost_to_faults,
        }


class _JobContext:
    """Bookkeeping of one job in service."""

    __slots__ = (
        "request",
        "arrived",
        "outcome",
        "awaiting",
        "pinned",
        "loaded",
        "attempts",
        "tokens",
        "sites",
    )

    def __init__(self, request: Request, arrived: float, outcome: JobOutcome):
        self.request = request
        self.arrived = arrived
        self.outcome = outcome  # the core's decision, accounted at completion
        self.awaiting: set[FileId] = set()
        self.pinned: set[FileId] = set()
        self.loaded: set[FileId] = set()
        # fault-tolerance state, all keyed by file id:
        self.attempts: dict[FileId, int] = {}  # failed attempts so far
        self.tokens: dict[FileId, int] = {}  # current in-flight attempt id
        self.sites: dict[FileId, str] = {}  # site serving the last attempt


class StorageResourceManager:
    """Event-driven SRM: staged one bundle at a time, pinned concurrency.

    With a ``replicas`` catalog each missing file is fetched from its best
    replica site; otherwise a single local MSS/link pair is used.  With
    ``config.faults`` set a :class:`~repro.faults.FaultInjector` is
    created and attached to every MSS the SRM stages from, and the
    retry/failover pipeline described in the module docstring is active.
    """

    def __init__(
        self,
        engine: EventEngine,
        sizes: dict[FileId, SizeBytes],
        config: SRMConfig,
        *,
        replicas: ReplicaCatalog | None = None,
        future_bundles=None,
    ):
        self.engine = engine
        self.sizes = sizes
        self.config = config
        # Each SRM owns its registry (never the recorder's shared one) so
        # counters cannot leak across runs; the recorder is captured once
        # because staging decisions happen deep inside event callbacks.
        self.registry = MetricsRegistry()
        self._recorder = current_recorder()
        self.cache = CacheState(config.cache_size)
        self.policy = make_policy(
            config.policy, future=future_bundles, **config.policy_kwargs
        )
        self.policy.bind(self.cache, sizes)
        # the decision core every driver shares: a job is decided when it
        # starts and accounted when it completes
        self.core = CoordinatorCore(
            cache=self.cache,
            policy=self.policy,
            sizes=sizes,
            metrics=MetricsCollector(registry=self.registry),
            recorder=self._recorder,
        )
        self.replicas = replicas
        self.injector: FaultInjector | None = (
            FaultInjector(config.faults) if config.faults is not None else None
        )
        if replicas is None:
            self.mss: MassStorageSystem | None = MassStorageSystem(
                engine,
                n_drives=config.n_drives,
                mount_latency=config.mount_latency,
                drive_bandwidth=config.drive_bandwidth,
                injector=self.injector,
            )
        else:
            self.mss = None
            if self.injector is not None:
                for site in replicas.sites():
                    site.mss.injector = self.injector
        self._jitter_rng = (
            self.injector.stream("backoff-jitter") if self.injector is not None else None
        )

        self._queue: deque[tuple[Request, float]] = deque()
        self._active: list[_JobContext] = []
        self._staging: _JobContext | None = None
        self._token_seq = itertools.count()
        self._requeued_ids: set[int] = set()

        reg = self.registry
        self.response_times = reg.histogram(
            "srm_response_time_seconds",
            "job completion minus arrival, simulated seconds",
            buckets=_RESPONSE_TIME_BUCKETS,
        )
        self._bytes_staged = reg.counter(
            "srm_bytes_staged_total", "bytes fetched into the disk cache"
        )
        self._deferred_starts = reg.counter(
            "srm_deferred_starts_total", "job starts blocked by pinned files"
        )
        self._retries = reg.counter(
            "srm_retries_total", "staging attempts retried after a fault"
        )
        self._failovers = reg.counter(
            "srm_failovers_total", "staging attempts moved to another replica site"
        )
        self._timeouts = reg.counter(
            "srm_timeouts_total", "staging attempts abandoned by the watchdog"
        )
        self._requeues = reg.counter(
            "srm_requeues_total", "jobs re-submitted after exhausting retries"
        )
        self._failed_jobs = reg.counter(
            "srm_failed_jobs_total", "jobs abandoned after their requeue"
        )
        self._time_lost = reg.gauge(
            "srm_time_lost_to_faults_seconds",
            "simulated time spent in failed attempts, backoff and spikes",
        )
        self.fault_log: list[Exception] = []
        self.last_completion = 0.0

    # ------------------------------------------------------------------ #
    # counter faces: the public attribute names tests and result builders
    # read, now backed by the metrics registry

    @property
    def bytes_staged(self) -> SizeBytes:
        return int(self._bytes_staged.value)

    @property
    def deferred_starts(self) -> int:
        return int(self._deferred_starts.value)

    @property
    def retries(self) -> int:
        return int(self._retries.value)

    @property
    def failovers(self) -> int:
        return int(self._failovers.value)

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.value)

    @property
    def requeues(self) -> int:
        return int(self._requeues.value)

    @property
    def failed_jobs(self) -> int:
        return int(self._failed_jobs.value)

    @property
    def time_lost_to_faults(self) -> float:
        return float(self._time_lost.value)

    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> None:
        """Enqueue a job at the current simulated time."""
        self._queue.append((request, self.engine.now))
        self._maybe_start()

    @property
    def busy_slots(self) -> int:
        return len(self._active)

    @property
    def queued_jobs(self) -> int:
        return len(self._queue)

    def result(self) -> SRMResult:
        """Summarise the run (call once the engine has drained)."""
        served = self.core.metrics.snapshot()
        times = self.response_times
        makespan = self.last_completion
        return SRMResult(
            policy=self.config.policy,
            jobs=served.jobs,
            unserviceable=served.unserviceable,
            makespan=makespan,
            mean_response_time=times.mean if times.count else 0.0,
            max_response_time=times.max if times.count else 0.0,
            throughput=served.jobs / makespan if makespan > 0 else 0.0,
            bytes_staged=self.bytes_staged,
            request_hits=served.request_hits,
            bytes_requested=served.bytes_requested,
            deferred_starts=self.deferred_starts,
            retries=self.retries,
            failovers=self.failovers,
            timeouts=self.timeouts,
            requeues=self.requeues,
            failed_jobs=self.failed_jobs,
            time_lost_to_faults=self.time_lost_to_faults,
        )

    # ------------------------------------------------------------------ #

    def _maybe_start(self) -> None:
        while (
            self._queue
            and self._staging is None
            and len(self._active) < self.config.service_slots
        ):
            if not self._try_start():
                break

    def _try_start(self) -> bool:
        """Start the head-of-queue job; False if blocked by pins."""
        request, arrived = self._queue[0]
        if self.policy.blocked_by_pins(request.bundle):
            # Pinned files of jobs in their compute phase block eviction;
            # retry when a completion releases pins.
            self._deferred_starts.inc()
            return False
        self._queue.popleft()
        core = self.core
        outcome = core.decide(core.jobs_submitted, request)
        if outcome.unserviceable:
            return True
        ctx = _JobContext(request, arrived, outcome)
        self._active.append(ctx)
        for f in request.bundle:
            if f in self.cache:
                self.cache.pin(f)
                ctx.pinned.add(f)
        to_stage = outcome.loaded + outcome.prefetched
        if not to_stage:
            self._start_processing(ctx)
            return True
        ctx.awaiting = set(to_stage)
        self._staging = ctx
        for f in sorted(to_stage):
            self._stage_file(f)
        return True

    # ------------------------------------------------------------------ #
    # staging attempts

    def _down_sites(self) -> set[str]:
        """Names of replica sites currently inside a downtime window."""
        if self.injector is None or self.replicas is None:
            return set()
        now = self.engine.now
        return {
            site.name
            for site in self.replicas.sites()
            if self.injector.is_down(site.name, now)
        }

    def _current(self, ctx: _JobContext, file_id: FileId, token: int) -> bool:
        """Is ``token`` still the live staging attempt for ``file_id``?"""
        return (
            self._staging is ctx
            and file_id in ctx.awaiting
            and ctx.tokens.get(file_id) == token
        )

    def _stage_file(self, file_id: FileId) -> None:
        with self._recorder.span("srm.stage"):
            self._dispatch_stage(file_id)

    def _dispatch_stage(self, file_id: FileId) -> None:
        """Synchronous part of one staging attempt: resolve source, dispatch."""
        ctx = self._staging
        assert ctx is not None
        size = self.sizes[file_id]
        token = next(self._token_seq)
        ctx.tokens[file_id] = token
        started = self.engine.now

        if self.replicas is not None:
            down = self._down_sites()
            if down:
                locations = set(self.replicas.locations(file_id))
                if locations and locations <= down:
                    # every replica holder is down: back off and retry
                    self._attempt_failed(ctx, file_id, token, started)
                    return
            site = self.replicas.best_source(file_id, size, exclude=down)
            previous = ctx.sites.get(file_id)
            if previous is not None and site.name != previous:
                self._failovers.inc()
                if self._recorder.active:
                    self._recorder.emit(
                        StageFailedOver(
                            file=str(file_id),
                            from_site=previous,
                            to_site=site.name,
                            t=started,
                        )
                    )
            mss, link, component = site.mss, site.link, site.name
        else:
            assert self.mss is not None
            mss, link, component = self.mss, self.config.link, self.mss.name
        # remembered for failover detection and the StageCompleted event
        ctx.sites[file_id] = component
        if self._recorder.active:
            self._recorder.emit(
                StageStarted(
                    file=str(file_id),
                    bytes=size,
                    site=component,
                    attempt=ctx.attempts.get(file_id, 0) + 1,
                    t=started,
                )
            )

        if self.config.staging_timeout is not None:
            self.engine.schedule(
                self.config.staging_timeout,
                lambda: self._attempt_timed_out(ctx, file_id, token, started),
            )

        def _retrieved(fid: FileId) -> None:
            # File is off tape; now cross the WAN into the disk cache.
            if not self._current(ctx, fid, token):
                return  # attempt was timed out or the job was abandoned
            base = link.transfer_time(self.sizes[fid])
            if self.injector is not None:
                fraction = self.injector.transfer_fault(component)
                if fraction is not None:
                    self.engine.schedule(
                        base * fraction,
                        lambda: self._attempt_failed(ctx, fid, token, started),
                    )
                    return
                spike = self.injector.latency_spike(component)
                if spike != 1.0:
                    self._time_lost.inc(base * (spike - 1.0))
                    base = link.transfer_time(self.sizes[fid], spike=spike)
            self.engine.schedule(
                base, lambda: self._file_arrived(ctx, fid, token)
            )

        def _retrieval_failed(fid: FileId) -> None:
            self._attempt_failed(ctx, fid, token, started)

        mss.retrieve(
            file_id,
            size,
            _retrieved,
            on_failure=_retrieval_failed if self.injector is not None else None,
        )

    def _attempt_timed_out(
        self, ctx: _JobContext, file_id: FileId, token: int, started: float
    ) -> None:
        if not self._current(ctx, file_id, token):
            return  # the attempt finished (or already failed) in time
        self._timeouts.inc()
        self._log_fault(
            StagingTimeoutError(file_id, self.config.staging_timeout or 0.0)
        )
        self._attempt_failed(ctx, file_id, token, started)

    def _attempt_failed(
        self, ctx: _JobContext, file_id: FileId, token: int, started: float
    ) -> None:
        """One staging attempt died: back off and retry, or give up."""
        if not self._current(ctx, file_id, token):
            return  # a different failure path won the race
        self._time_lost.inc(self.engine.now - started)

        failures = ctx.attempts.get(file_id, 0) + 1
        ctx.attempts[file_id] = failures
        if failures > self.config.max_retries:
            self._log_fault(RetryExhaustedError(file_id, failures))
            self._job_failed(ctx)
            return

        self._retries.inc()
        delay = min(
            self.config.backoff_cap,
            self.config.retry_backoff * (2.0 ** (failures - 1)),
        )
        if self._jitter_rng is not None and self.config.backoff_jitter > 0:
            delay += (
                delay * self.config.backoff_jitter * float(self._jitter_rng.random())
            )
        self._time_lost.inc(delay)
        if self._recorder.active:
            self._recorder.emit(
                StageRetried(
                    file=str(file_id),
                    attempt=failures,
                    delay=delay,
                    t=self.engine.now,
                )
            )
        retry_token = next(self._token_seq)
        ctx.tokens[file_id] = retry_token
        self.engine.schedule(
            delay, lambda: self._retry_stage(ctx, file_id, retry_token)
        )

    def _retry_stage(self, ctx: _JobContext, file_id: FileId, token: int) -> None:
        if not self._current(ctx, file_id, token):
            return  # the job was abandoned while we were backing off
        self._stage_file(file_id)

    def _job_failed(self, ctx: _JobContext) -> None:
        """A file exhausted its retry budget: requeue once, then fail."""
        self._staging = None
        ctx.awaiting.clear()
        ctx.tokens.clear()
        self._active.remove(ctx)
        for f in ctx.pinned:
            self.cache.unpin(f)
        self.policy.on_abandoned(frozenset(ctx.loaded))
        request_id = ctx.request.request_id
        if request_id not in self._requeued_ids:
            self._requeued_ids.add(request_id)
            self._requeues.inc()
            self._queue.append((ctx.request, ctx.arrived))
        else:
            self._failed_jobs.inc()
        self._maybe_start()

    def _log_fault(self, exc: Exception) -> None:
        if len(self.fault_log) < _FAULT_LOG_LIMIT:
            self.fault_log.append(exc)

    # ------------------------------------------------------------------ #

    def _file_arrived(self, ctx: _JobContext, file_id: FileId, token: int) -> None:
        if not self._current(ctx, file_id, token):
            if self.injector is None and self.config.staging_timeout is None:
                # without faults or timeouts every arrival must be live
                raise SimulationError(f"unexpected arrival of {file_id!r}")
            return  # stale completion of a timed-out attempt
        size = self.sizes[file_id]
        self.cache.load(file_id, size)
        self.cache.pin(file_id)
        self._bytes_staged.inc(size)
        if self._recorder.active:
            self._recorder.emit(
                StageCompleted(
                    file=str(file_id),
                    bytes=size,
                    site=ctx.sites.get(file_id, ""),
                    t=self.engine.now,
                )
            )
        ctx.pinned.add(file_id)
        ctx.loaded.add(file_id)
        ctx.awaiting.discard(file_id)
        ctx.tokens.pop(file_id, None)
        if not ctx.awaiting:
            self._staging = None
            self._start_processing(ctx)
            self._maybe_start()

    def _start_processing(self, ctx: _JobContext) -> None:
        self.engine.schedule(
            self.config.processing_time, lambda: self._complete(ctx)
        )

    def _complete(self, ctx: _JobContext) -> None:
        self.core.account(ctx.request, ctx.outcome)
        for f in ctx.pinned:
            self.cache.unpin(f)
        self._active.remove(ctx)
        self.response_times.push(self.engine.now - ctx.arrived)
        self.last_completion = self.engine.now
        self._maybe_start()


def run_timed_simulation(
    trace: Trace,
    config: SRMConfig,
    *,
    replicas: ReplicaCatalog | None = None,
    recorder: TraceRecorder | None = None,
) -> SRMResult:
    """Replay a timed trace through an SRM and summarise.

    The trace must carry arrival times (generate with
    ``WorkloadSpec(arrival_rate=...)``); untimed traces are replayed
    back-to-back (all arrivals at t = 0), which measures saturated
    throughput.

    With ``config.faults`` set the run degrades gracefully: staging
    failures are retried, failed over, or — after the per-job requeue —
    reported in ``SRMResult.failed_jobs``; the run itself never raises
    because of an injected fault.

    ``recorder`` overrides the ambient telemetry recorder for this run;
    staging lifecycle events (``StageStarted``/``Retried``/``FailedOver``/
    ``Completed``, ``FaultInjected``) carry only simulated time.
    """
    if recorder is not None:
        with use_recorder(recorder):
            return run_timed_simulation(trace, config, replicas=replicas)
    engine = EventEngine()
    srm = StorageResourceManager(
        engine,
        trace.catalog.as_dict(),
        config,
        replicas=replicas,
        future_bundles=trace.bundles() if config.policy == "belady" else None,
    )
    for request in trace:
        engine.schedule_at(request.arrival_time, lambda r=request: srm.submit(r))
    engine.run()
    return srm.result()
