"""The pure plan → decide → apply engine shared by every execution mode.

:class:`CoordinatorCore` is the per-request decision body of the
simulator (the paper's ``cacheSim`` inner loop) factored out of any
driver: it holds the cache, the bound policy, the size catalog and the
metrics collector, and services one request at a time.  It is
deliberately event-loop-free and I/O-free — the batch simulator
(:func:`repro.sim.simulator.simulate_trace`), the durable commit
pipeline (:class:`repro.durability.runner.JournaledCore`) behind the
batch runner and the online coordinator service, and the timed SRM
(:class:`repro.grid.srm.StorageResourceManager`) all drive the *same*
core, which is what makes their decision traces comparable.  The
untimed drivers call :meth:`CoordinatorCore.submit`; the SRM, whose
loads arrive over simulated time, calls its two halves
:meth:`~CoordinatorCore.decide` and :meth:`~CoordinatorCore.account`
around its staging.

Telemetry is emitted through the recorder captured at construction, in
the exact order the simulator always used: ``JobArrived`` → the policy's
own ``PlanComputed``/``FileEvicted`` events (inside ``on_request``) →
``FileAdmitted`` per demand load, then per prefetch, each in sorted file
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cache.policy import ReplacementPolicy
from repro.cache.state import CacheState
from repro.core.request import Request
from repro.errors import SimulationError, UnknownFileError
from repro.sim.metrics import MetricsCollector
from repro.telemetry import FileAdmitted, JobArrived
from repro.telemetry.recorder import TraceRecorder, current_recorder
from repro.types import FileId, SizeBytes

__all__ = ["JobOutcome", "CoordinatorCore"]


@dataclass(frozen=True)
class JobOutcome:
    """What servicing one request did to the cache.

    ``loaded``/``prefetched``/``evicted`` are in sorted file order — the
    same order the corresponding trace events were emitted in, so an
    outcome is the in-memory twin of the job's trace slice.
    """

    job: int
    request_id: int
    requested_bytes: SizeBytes
    hit: bool
    unserviceable: bool
    loaded: tuple[FileId, ...]
    prefetched: tuple[FileId, ...]
    evicted: tuple[FileId, ...]
    demand_bytes: SizeBytes
    prefetch_bytes: SizeBytes

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the coordinator service's response payload)."""
        return {
            "job": self.job,
            "request_id": self.request_id,
            "requested_bytes": self.requested_bytes,
            "hit": self.hit,
            "unserviceable": self.unserviceable,
            "loaded": list(self.loaded),
            "prefetched": list(self.prefetched),
            "evicted": list(self.evicted),
            "demand_bytes": self.demand_bytes,
            "prefetch_bytes": self.prefetch_bytes,
        }


class CoordinatorCore:
    """Service requests against one cache under one policy.

    Parameters
    ----------
    cache:
        The cache the policy mutates (byte accounting source of truth).
    policy:
        A :class:`~repro.cache.policy.ReplacementPolicy` already bound to
        ``cache`` and ``sizes``.
    sizes:
        The file-size catalog every request is resolved against.
    metrics:
        Collector receiving one observation per serviced job.
    recorder:
        Telemetry recorder; defaults to the ambient recorder at
        construction time (drivers construct the core inside their
        recorder context, mirroring ``policy.bind``).
    check_invariants:
        Assert cache consistency after every job (debug runs).
    """

    __slots__ = (
        "cache",
        "policy",
        "sizes",
        "metrics",
        "check_invariants",
        "rec",
        "jobs_submitted",
    )

    def __init__(
        self,
        *,
        cache: CacheState,
        policy: ReplacementPolicy,
        sizes: Mapping[FileId, SizeBytes],
        metrics: MetricsCollector,
        recorder: TraceRecorder | None = None,
        check_invariants: bool = False,
    ):
        self.cache = cache
        self.policy = policy
        self.sizes = sizes
        self.metrics = metrics
        self.check_invariants = check_invariants
        self.rec = current_recorder() if recorder is None else recorder
        #: jobs submitted so far (the service uses this as the next index)
        self.jobs_submitted = 0

    def _size(self, file_id: FileId) -> SizeBytes:
        try:
            return self.sizes[file_id]
        except KeyError:
            raise UnknownFileError(
                f"file {file_id!r} is not in the size catalog"
            ) from None

    def decide(self, job_index: int, request: Request) -> JobOutcome:
        """Plan and decide one request: everything before its loads.

        Emits ``JobArrived`` and the policy's decision events, applies the
        policy's evictions and returns the outcome the loads will realise.
        The driver then brings in ``loaded`` and ``prefetched`` — all at
        once (:meth:`submit`) or one staging completion at a time (the
        timed SRM) — and calls :meth:`account`.  An unserviceable request
        is counted here and is never accounted.

        Raises :class:`~repro.errors.UnknownFileError` for files outside
        the catalog and :class:`~repro.errors.SimulationError` when the
        policy violates its space contract.
        """
        cache = self.cache
        rec = self.rec
        bundle = request.bundle
        try:
            requested = bundle.size_under(self.sizes)
        except KeyError as exc:
            raise UnknownFileError(
                f"request {request.request_id} references unknown file "
                f"{exc.args[0] if exc.args else '?'!r}"
            ) from None
        if rec.active:
            rec.emit(
                JobArrived(
                    job=job_index,
                    request_id=request.request_id,
                    n_files=len(bundle),
                    bytes_requested=requested,
                )
            )
        self.jobs_submitted = job_index + 1
        if requested > cache.capacity:
            self.metrics.record_unserviceable()
            return JobOutcome(
                job=job_index,
                request_id=request.request_id,
                requested_bytes=requested,
                hit=False,
                unserviceable=True,
                loaded=(),
                prefetched=(),
                evicted=(),
                demand_bytes=0,
                prefetch_bytes=0,
            )
        # span structure mirrors the request-tracing tree: core.plan wraps
        # the policy's decision (policy.on_request and any cache.evict
        # nested inside it); submit's cache.admit wraps applying the loads
        with rec.span("core.plan"):
            missing = cache.missing(bundle)
            with rec.span("policy.on_request"):
                decision = self.policy.on_request(bundle)

            # sorted: load order cannot change what ends up resident, but a
            # reproducible order keeps the load counters' interleaving (and
            # any future instrumentation of it) identical across processes
            loads = tuple(sorted(missing))
            demand_bytes = sum(self._size(f) for f in loads)
            prefetches = tuple(
                sorted(
                    f for f in decision.prefetch if f not in cache and f not in missing
                )
            )
            prefetch_bytes = sum(self._size(f) for f in prefetches)
            needed = demand_bytes + prefetch_bytes
            if cache.free < needed:
                raise SimulationError(
                    f"policy {self.policy.name!r} left only {cache.free} free "
                    f"bytes but {needed} are needed"
                )
        return JobOutcome(
            job=job_index,
            request_id=request.request_id,
            requested_bytes=requested,
            hit=not missing,
            unserviceable=False,
            loaded=loads,
            prefetched=prefetches,
            evicted=tuple(sorted(decision.evicted)),
            demand_bytes=demand_bytes,
            prefetch_bytes=prefetch_bytes,
        )

    def account(self, request: Request, outcome: JobOutcome) -> None:
        """Close a decided request whose loads are all resident."""
        self.policy.on_serviced(
            request.bundle, frozenset(outcome.loaded + outcome.prefetched), outcome.hit
        )
        self.metrics.record_job(
            requested_bytes=outcome.requested_bytes,
            demand_loaded_bytes=outcome.demand_bytes,
            prefetched_bytes=outcome.prefetch_bytes,
            hit=outcome.hit,
        )
        if self.check_invariants:
            self.cache.check_invariants()

    def submit(self, job_index: int, request: Request) -> JobOutcome:
        """Service one request: :meth:`decide`, load, :meth:`account`."""
        outcome = self.decide(job_index, request)
        if outcome.unserviceable:
            return outcome
        cache = self.cache
        sizes = self.sizes
        rec = self.rec
        with rec.span("cache.admit"):
            for f in outcome.loaded:
                cache.load(f, sizes[f])
            for f in outcome.prefetched:
                cache.load(f, sizes[f])
            if rec.active:
                for f in outcome.loaded:
                    rec.emit(FileAdmitted(file=str(f), bytes=sizes[f], cause="demand"))
                for f in outcome.prefetched:
                    rec.emit(FileAdmitted(file=str(f), bytes=sizes[f], cause="prefetch"))
        self.account(request, outcome)
        return outcome
