"""Durable state behind the coordinator service.

The service is the online face of the simulator: the batch durable
runner's commit pipeline (:class:`~repro.durability.runner.JournaledCore`
— core, telemetry trace, journal, checkpoints, replay oracle) fed one
HTTP job at a time.  This module adds only what the service needs on
top: input validation, the metrics registry, request tracer, SLO monitor
and fault injection, the per-job :class:`JobResult` — and an *arrivals
record*, because jobs arrive over the network and cannot be re-read
from the workload file::

    <run_dir>/
        manifest.json     service + simulation + durability parameters
        workload.jsonl    catalog (+ future bundles) the server was started with
        arrivals.jsonl    workload-trace-format record of accepted jobs
        trace.jsonl       telemetry trace (the decision record)
        journal/          write-ahead log, one frame per serviced job
        checkpoints/      versioned state snapshots

Per-job commit order: the job's **arrival line is flushed first**, then
the pipeline writes its telemetry lines and its journal frame — so under
a SIGKILL the arrivals record is always at least as durable as the
journal, and every journaled decision can be re-derived from a persisted
arrival.  Recovery (:meth:`CoordinatorState.resume`) prepares the run
directory exactly as :func:`~repro.durability.runner.resume_run` does,
re-executes the persisted arrivals past the checkpoint through the same
pipeline, checking each against its surviving journal frame
(:class:`~repro.errors.ReplayDivergenceError` on any divergence), then
continues serving new jobs.  The stitched trace is byte-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Any

from repro.core.bundle import FileBundle
from repro.core.request import Request
from repro.durability.atomicio import atomic_write_bytes, atomic_write_json
# kept bound here: perfbench/layers.py wraps state.write_checkpoint by name
from repro.durability.checkpoint import write_checkpoint  # noqa: F401
from repro.durability.runner import (
    JournaledCore,
    _config_from_manifest,
    _config_to_manifest,
    _load_manifest,
    _prepare_resume,
    _Resume,
)
from repro.errors import DurabilityError, ServiceError, UnknownFileError
from repro.faults.crash import CrashSpec
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.service.config import ServiceConfig
from repro.service.slo import SloConfig, SloMonitor
from repro.sim.coordinator import JobOutcome
from repro.sim.simulator import SimulationConfig
from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.telemetry.tracing import RequestTracer, request_id_for_job
from repro.workload.trace import Trace

__all__ = ["CoordinatorState", "JobResult"]

#: simulated per-file staging time a fault-injected latency spike
#: multiplies; feeds the SLO latency signal only (never the trace)
NOMINAL_STAGE_SECONDS = 1e-3


class JobResult:
    """One serviced job: the outcome plus its slice of the decision trace.

    ``lines`` are the job's trace lines exactly as written to
    ``trace.jsonl`` (one :func:`~repro.telemetry.events.encode_event`
    string per event), so an HTTP response carries the same
    ``PlanComputed``/``FileAdmitted``/``FileEvicted`` rationale payloads
    the trace does, byte for byte.  ``retries`` is the number of injected
    transfer faults absorbed while "staging" the job's loads (0 without a
    fault spec).  ``request_id`` is the deterministic tracing id
    (``req-<job:08d>``) that resolves to this job's span tree under
    ``/v1/debug/requests``.
    """

    __slots__ = ("outcome", "lines", "retries", "request_id")

    def __init__(
        self,
        outcome: JobOutcome,
        lines: list[str],
        retries: int,
        request_id: str,
    ):
        self.outcome = outcome
        self.lines = lines
        self.retries = retries
        self.request_id = request_id

    def as_dict(self) -> dict[str, Any]:
        """The response payload with the trace lines parsed into records."""
        return {
            "outcome": self.outcome.as_dict(),
            "events": [json.loads(line) for line in self.lines],
            "retries": self.retries,
            "request_id": self.request_id,
        }

    def response_body(self, timing_ms: dict[str, float] | None = None) -> bytes:
        """The canonical JSON of :meth:`as_dict` (plus ``timing_ms``).

        Byte-identical to ``json.dumps(payload, sort_keys=True,
        separators=(",", ":"))`` without parsing the trace lines: they are
        canonical already, and ``"events"`` sorts before every other key,
        so the body is ``{"events":[<lines>],`` followed by the rest.
        """
        rest: dict[str, Any] = {
            "outcome": self.outcome.as_dict(),
            "retries": self.retries,
            "request_id": self.request_id,
        }
        if timing_ms is not None:
            rest["timing_ms"] = timing_ms
        tail = json.dumps(rest, sort_keys=True, separators=(",", ":"))
        return f'{{"events":[{",".join(self.lines)}],{tail[1:]}'.encode("utf-8")


def _simulation_config(config: ServiceConfig) -> SimulationConfig:
    """The simulation parameters of a service run (arrival order, no queue)."""
    return SimulationConfig(
        cache_size=config.cache_size,
        policy=config.policy,
        policy_kwargs=config.policy_kwargs,
        warmup=config.warmup,
        check_invariants=config.check_invariants,
    )


def _service_manifest(config: ServiceConfig) -> dict[str, Any]:
    doc = _config_to_manifest(_simulation_config(config), config.durability)
    doc["kind"] = "service"
    doc["fault"] = (
        None
        if config.fault is None
        else {
            "seed": config.fault.seed,
            "drive_failure_rate": config.fault.drive_failure_rate,
            "transfer_failure_rate": config.fault.transfer_failure_rate,
            "latency_spike_rate": config.fault.latency_spike_rate,
            "latency_spike_factor": config.fault.latency_spike_factor,
            "site_downtime_rate": config.fault.site_downtime_rate,
            "mean_downtime": config.fault.mean_downtime,
        }
    )
    return doc


def _load_arrivals(path: Path) -> tuple[Trace, int]:
    """Read the arrivals record, tolerating a crash-torn final line.

    Returns the parsed trace and the byte length of the intact prefix
    (the caller truncates the file to it before appending).
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DurabilityError(f"{path}: unreadable arrivals record: {exc}") from None
    intact = len(data)
    if data and not data.endswith(b"\n"):
        # the signature of a process killed mid-append: drop the torn tail
        intact = data.rfind(b"\n") + 1
    if intact == 0:
        raise DurabilityError(f"{path}: arrivals record has no intact header line")
    lines = data[:intact].decode("utf-8").splitlines()
    return Trace.load_lines(lines), intact


class CoordinatorState:
    """The single-writer durable state of one coordinator service.

    Construct via :meth:`create` (fresh run directory) or :meth:`resume`
    (recover an interrupted one).  All methods are synchronous and not
    thread-safe; the HTTP layer serializes access through one
    :class:`asyncio.Lock` — single-writer semantics is the service's
    consistency model, exactly like the batch loop's.
    """

    def __init__(
        self,
        config: ServiceConfig,
        workload: Trace,
        *,
        resume: _Resume | None,
    ):
        self.config = config
        self.workload = workload
        self.run_dir = config.run_dir
        self.registry = MetricsRegistry()
        self._http_requests = self.registry.counter_family(
            "service_http_requests_total",
            "HTTP requests handled",
            labelnames=("method", "route", "status"),
        )
        self._http_errors = self.registry.counter(
            "service_http_errors_total", "HTTP error responses (4xx/5xx)"
        )
        self._http_seconds = self.registry.histogram_family(
            "service_http_request_seconds",
            "server-side wall-clock latency of one HTTP exchange",
            labelnames=("method", "route"),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._decision_seconds = self.registry.histogram_family(
            "service_decision_seconds",
            "wall-clock latency of one job decision (submit to journal commit)",
            labelnames=("policy",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(policy=config.policy)
        self._transfer_faults = self.registry.counter(
            "service_transfer_faults_total",
            "injected transfer faults absorbed as staging retries",
        )
        self.slo = SloMonitor(self.registry, config.slo)
        self._profile_fh: IO[str] | None = None
        if config.profile_stream:
            self._profile_fh = open(
                self.run_dir / "profile.jsonl", "a", encoding="utf-8"
            )
        self.tracer = RequestTracer(
            config.debug_ring,
            slow_threshold_s=config.slow_threshold_ms / 1e3,
            profile_stream=self._profile_fh,
        )

        self.journaled = JournaledCore(
            workload,
            _simulation_config(config),
            config.durability,
            resume=resume,
            registry=self.registry,
        )
        self.sizes = self.journaled.sizes
        self.recorder = self.journaled.recorder
        self.cache = self.journaled.cache
        self.policy = self.journaled.policy
        self.metrics = self.journaled.metrics
        self.trace_path = self.journaled.trace_path
        self._strict = config.fsync == "always"
        # built outside any recorder context on purpose: service fault
        # injection is response-payload/metrics chaos only and must not
        # emit into the decision trace (differential comparison stays
        # byte-exact whether or not faults are enabled)
        self._faults = (
            FaultInjector(config.fault)
            if config.fault is not None and config.fault.enabled
            else None
        )

        self.next_job = self.journaled.start_job
        self.resumed_from_job = self.next_job
        self._arrivals: IO[bytes] | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def create(cls, config: ServiceConfig) -> "CoordinatorState":
        """Initialise a fresh run directory and an empty cache."""
        run_dir = config.run_dir
        if (run_dir / "manifest.json").exists():
            raise DurabilityError(
                f"{run_dir} already contains a run; use CoordinatorState.resume() "
                "or a fresh directory"
            )
        workload = Trace.load(config.workload)
        run_dir.mkdir(parents=True, exist_ok=True)
        sync = config.fsync == "always"
        atomic_write_bytes(
            run_dir / "workload.jsonl",
            Path(config.workload).read_bytes(),
            fsync=sync,
        )
        atomic_write_json(
            run_dir / "manifest.json", _service_manifest(config), fsync=sync
        )
        state = cls(config, workload, resume=None)
        header = {
            "type": "header",
            "version": 1,
            "meta": {"kind": "service-arrivals"},
            "files": dict(workload.catalog.items()),
        }
        fh = open(run_dir / "arrivals.jsonl", "wb")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
        state._arrivals = fh
        return state

    @classmethod
    def resume(
        cls,
        run_dir: str | Path,
        *,
        crash: CrashSpec | None = None,
        verify: bool = True,
        debug_ring: int = 256,
        slow_threshold_ms: float = 100.0,
        profile_stream: bool = False,
        slo: "SloConfig | None" = None,
    ) -> "CoordinatorState":
        """Recover an interrupted service run and make it serveable again.

        Re-executes every persisted arrival past the newest checkpoint,
        verifying each against its surviving journal frame and trace
        bytes; ``verify`` additionally reconstructs the stitched trace
        and checks it against the live cache.  ``crash`` arms a *new*
        crash injection for the resumed service (chaos sweeps).
        Observability knobs (``debug_ring``/``slow_threshold_ms``/
        ``profile_stream``/``slo``) are not part of the durable manifest
        — they describe *this* process, not the run — so the resuming
        caller supplies them afresh.
        """
        run_dir = Path(run_dir)
        doc = _load_manifest(run_dir, "service")
        sim = _config_from_manifest(doc)
        dur = doc["durability"]
        fault = None if doc.get("fault") is None else FaultSpec(**doc["fault"])
        config = ServiceConfig(
            workload=run_dir / "workload.jsonl",
            cache_size=sim.cache_size,
            run_dir=run_dir,
            policy=sim.policy,
            policy_kwargs=sim.policy_kwargs,
            warmup=sim.warmup,
            check_invariants=sim.check_invariants,
            checkpoint_every=int(dur["checkpoint_every"]),
            fsync=str(dur["fsync"]),
            max_segment_bytes=int(dur["max_segment_bytes"]),
            crash=crash,
            fault=fault,
            debug_ring=debug_ring,
            slow_threshold_ms=slow_threshold_ms,
            profile_stream=profile_stream,
            **({} if slo is None else {"slo": slo}),
        )
        workload = Trace.load(run_dir / "workload.jsonl")

        arrivals_path = run_dir / "arrivals.jsonl"
        arrivals, intact = _load_arrivals(arrivals_path)
        persisted = list(arrivals)
        state = cls(
            config, workload, resume=_prepare_resume(run_dir, len(persisted))
        )
        try:
            # re-execute the persisted arrivals past the checkpoint; the
            # first ones must reproduce their surviving journal frames
            for job_index in range(state.next_job, len(persisted)):
                state._serve(job_index, persisted[job_index])
            state.journaled.finish(verify)
        except BaseException:
            state.close()
            raise
        with open(arrivals_path, "rb+") as trunc:
            trunc.truncate(intact)
            trunc.flush()
            os.fsync(trunc.fileno())
        fh = open(arrivals_path, "ab")
        state._arrivals = fh
        return state

    # ------------------------------------------------------------------ #
    # serving

    def submit(self, files: list[str], *, priority: float = 1.0) -> JobResult:
        """Accept, persist and service one job; returns its decisions.

        Raises :class:`~repro.errors.ServiceError` for an empty bundle,
        :class:`~repro.errors.UnknownFileError` for files outside the
        catalog and :class:`~repro.errors.ConfigError` for a priority that
        is not finite and positive — all *before* the arrival is
        persisted, so the durable record only ever holds
        serviceable-shaped jobs (and strict JSON).
        """
        if self._closed:
            raise ServiceError("coordinator state is closed")
        if not files:
            raise ServiceError("a job must request at least one file")
        unknown = sorted(f for f in set(files) if f not in self.sizes)
        if unknown:
            raise UnknownFileError(
                f"job references files outside the catalog: {unknown}"
            )
        job_index = self.next_job
        request = Request(
            request_id=job_index,
            bundle=FileBundle(files),
            priority=float(priority),
        )
        self._append_arrival(request)
        return self._serve(job_index, request)

    def _append_arrival(self, request: Request) -> None:
        if self._arrivals is None:
            raise ServiceError("arrivals record is not open")
        line = json.dumps(
            {
                "files": sorted(request.bundle.files),
                "id": request.request_id,
                "priority": request.priority,
                "t": request.arrival_time,
                "type": "job",
            }
        )
        self._arrivals.write(line.encode("utf-8") + b"\n")
        # the arrival must be at least as durable as the decision that
        # follows it: it is the replay input recovery re-executes
        self._arrivals.flush()
        if self._strict:
            os.fsync(self._arrivals.fileno())

    def _serve(self, job_index: int, request: Request) -> JobResult:
        t0 = time.perf_counter()
        outcome, captured = self.journaled.submit(job_index, request, job_index + 1)
        self.next_job = job_index + 1
        retries = 0
        stall_s = 0.0
        if self._faults is not None:
            with self.recorder.span("srm.stage"):
                for _ in outcome.loaded:
                    if self._faults.transfer_fault("service") is not None:
                        retries += 1
                    # a latency spike stretches the nominal staging time;
                    # the simulated stall feeds the SLO latency signal only
                    # (never the trace, never the host-timing histogram)
                    stall_s += (
                        self._faults.latency_spike("service") - 1.0
                    ) * NOMINAL_STAGE_SECONDS
                if retries:
                    self._transfer_faults.inc(retries)
        elapsed = time.perf_counter() - t0
        self._decision_seconds.observe(elapsed)
        self.slo.observe(
            requested_bytes=outcome.requested_bytes,
            demand_bytes=outcome.demand_bytes,
            latency_s=elapsed + stall_s,
        )
        return JobResult(outcome, captured, retries, request_id_for_job(job_index))

    @property
    def checkpoints_written(self) -> int:
        return self.journaled.checkpoints_written

    # ------------------------------------------------------------------ #
    # read-side payloads

    def cache_payload(self) -> dict[str, Any]:
        """The ``GET /v1/cache`` body: residency + metrics snapshot."""
        state = self.cache.export_state()
        return {
            "capacity": state["capacity"],
            "used": self.cache.used,
            "free": self.cache.free,
            "residents": state["resident"],
            "jobs": self.next_job,
            "metrics": self.metrics.snapshot().as_dict(),
        }

    def config_payload(self) -> dict[str, Any]:
        """The ``GET /v1/config`` body: the run's effective parameters."""
        cfg = self.config
        return {
            "cache_size": cfg.cache_size,
            "policy": cfg.policy,
            "policy_name": self.policy.name,
            "policy_kwargs": {
                k: getattr(v, "value", v) for k, v in cfg.policy_kwargs.items()
            },
            "warmup": cfg.warmup,
            "check_invariants": cfg.check_invariants,
            "checkpoint_every": cfg.checkpoint_every,
            "fsync": cfg.fsync,
            "run_dir": str(cfg.run_dir),
            "workload_files": len(self.sizes),
            "fault_injection": cfg.fault is not None and cfg.fault.enabled,
        }

    def health_payload(self) -> dict[str, Any]:
        """The ``GET /healthz`` body."""
        return {
            "status": "ok",
            "policy": self.policy.name,
            "jobs": self.next_job,
            "resumed_from_job": self.resumed_from_job,
            "checkpoints_written": self.checkpoints_written,
            "slo": self.slo.payload(),
            "requests_traced": self.tracer.requests_traced,
        }

    def prometheus(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        return self.registry.to_prometheus()

    def count_http_request(
        self,
        *,
        method: str,
        route: str,
        status: int,
        duration_s: float | None = None,
    ) -> None:
        """Registry bookkeeping for the HTTP layer (one call per response).

        ``route`` must come from the bounded route vocabulary (a known
        path, ``"<unroutable>"`` or ``"<unparsed>"``) so label
        cardinality stays finite.  ``duration_s`` is the server-side
        exchange latency measured by the request tracer; ``None`` (ring
        disabled) skips the latency histogram.
        """
        self._http_requests.labels(
            method=method, route=route, status=str(status)
        ).inc()
        if status >= 400:
            self._http_errors.inc()
        if duration_s is not None:
            self._http_seconds.labels(method=method, route=route).observe(
                duration_s
            )

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and release every durable artifact (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.journaled.close()
        if self._profile_fh is not None and not self._profile_fh.closed:
            self._profile_fh.close()
        if self._arrivals is not None and not self._arrivals.closed:
            self._arrivals.flush()
            if self._strict:
                os.fsync(self._arrivals.fileno())
            self._arrivals.close()

    def __enter__(self) -> "CoordinatorState":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        return None
