"""The durable commit pipeline: journaled, checkpointed, resumable.

Two drivers run jobs durably — the batch runner (:func:`run_durable` /
:func:`resume_run`) and the coordinator service
(:class:`repro.service.state.CoordinatorState`) — and both keep the same
*run directory*::

    <run_dir>/
        manifest.json     simulation + durability parameters (atomic);
                          ``kind`` names the driver (missing = "batch")
        workload.jsonl    the workload (the service: its catalog and
                          future bundles)
        arrivals.jsonl    service only: the accepted jobs, its replay input
        trace.jsonl       telemetry trace (flushed at every checkpoint)
        journal/          write-ahead log, one frame per serviced job
        checkpoints/      versioned state snapshots (+ journal truncation)
        result.json       batch only: final metrics (atomic, on completion)

Each record has one codec, owned by one module: the workload and
arrivals lines by :mod:`repro.workload.trace`; the trace lines by
:func:`repro.telemetry.events.encode_event`, read back through the one
line reader behind :func:`~repro.telemetry.events.validate_trace_file`
and :func:`~repro.telemetry.forensics.iter_trace`; the journal payload
by :func:`_encode_frame` here, framed and decoded by
:mod:`repro.durability.journal`; checkpoints by
:mod:`repro.durability.checkpoint`; the manifest by
:func:`_config_to_manifest` here.

Both commit every job through one :class:`JournaledCore`, so the commit
order lives in one place: **trace first, journal second**, a job's
telemetry lines are written before its journal frame (the service
additionally flushes the job's arrival line before either).  In the
default ``"rotate"`` mode trace and journal are OS-buffered between
checkpoints (a checkpoint always flushes the trace before recording its
offset), so a kill may lose the buffered tail of either file; recovery
keeps only journal frames whose trace evidence survived and re-executes
everything else from the newest checkpoint.  In ``"always"`` mode each
job's trace bytes are forced to disk before its frame is appended and
fsync'd, making the journal a strict per-job commit record.  Every
``checkpoint_every`` jobs the full state — cache residency, the policy's
exported state, metrics, the admission queue — is snapshotted
atomically and the journal is truncated.

Recovery is **re-execution**, prepared the same way for both drivers
(:func:`_prepare_resume`): restore the latest valid checkpoint, capture
the surviving journal tail and the trace bytes it acknowledges as the
replay oracle (each frame records its job's *trace byte range*; frames
whose bytes did not survive are dropped), truncate the trace to the
checkpoint's byte offset, and re-run the jobs from there.  Each
re-executed job must reproduce its journaled frame and its trace bytes
exactly, otherwise :class:`~repro.errors.ReplayDivergenceError` fires.
Because every component restores *exactly* (heap orders, RNG state,
tie-break counters), the stitched trace is byte-identical to an
uninterrupted run's; ``verify`` additionally replays the stitched trace
through :func:`repro.telemetry.forensics.reconstruct` and checks the
reconstructed residency against the live cache.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.cache.registry import make_policy
from repro.cache.state import CacheState
from repro.core.history import TruncationMode
from repro.core.request import Request
from repro.durability.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    fsync_dir,
)
from repro.durability.checkpoint import latest_checkpoint, write_checkpoint
from repro.durability.journal import (
    _HEADER,
    DEFAULT_SEGMENT_BYTES,
    JournalFrame,
    JournalWriter,
    list_segments,
    read_journal_dir,
)
from repro.errors import ConfigError, DurabilityError, ReplayDivergenceError
from repro.faults.crash import CrashInjector, CrashSpec
from repro.sim.coordinator import CoordinatorCore, JobOutcome
from repro.sim.metrics import MetricsCollector
from repro.sim.queueing import AdmissionQueue, QueueDiscipline
from repro.sim.simulator import (
    SimulationConfig,
    SimulationResult,
    _queued,
)
from repro.telemetry.events import TraceEvent, encode_event
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TraceRecorder, use_recorder
from repro.telemetry.sinks import JsonlSink, TraceSink
from repro.workload.trace import Trace

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "DurabilityConfig",
    "DurableReport",
    "JournaledCore",
    "run_durable",
    "resume_run",
]

#: on-disk manifest format version
MANIFEST_SCHEMA_VERSION = 1

#: policy kwargs that arrive as enums and must round-trip through JSON
_ENUM_KWARGS: dict[str, type[enum.Enum]] = {"truncation": TruncationMode}

#: manifest ``kind`` -> the entry point that resumes such a run directory
_RESUMED_BY = {
    "batch": "resume_run() / 'repro-fbc resume'",
    "service": "CoordinatorState.resume() / 'repro-fbc serve --resume'",
}


@dataclass(frozen=True)
class DurabilityConfig:
    """Parameters of the durable runner (orthogonal to the simulation).

    Attributes
    ----------
    run_dir:
        The run directory (created if missing; must not already contain
        another run's manifest).
    checkpoint_every:
        Snapshot the full state every N jobs (journal is truncated at
        each snapshot, bounding recovery re-execution to < N jobs).
    fsync:
        ``"rotate"`` (default) — trace and journal are OS-buffered
        between checkpoints and all artifacts are written atomically; a
        kill (or power cut) may lose the buffered tail of either file,
        which shrinks the replay oracle or falls back to an older
        checkpoint — recovery always succeeds by re-execution.
        ``"always"`` — flush + fsync every journal frame, checkpoint
        and per-job trace boundary; a strict per-job commit record,
        power-failure-proof, slow.
    max_segment_bytes:
        Journal segment rotation threshold.
    verify_on_resume:
        After a resume completes, reconstruct the stitched trace and
        check it against the live cache state.
    crash:
        Optional :class:`~repro.faults.crash.CrashSpec` injecting a
        deterministic crash (testing/chaos only).
    """

    run_dir: Path
    checkpoint_every: int = 100
    fsync: str = "rotate"
    max_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    verify_on_resume: bool = True
    crash: CrashSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_dir", Path(self.run_dir))
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.fsync not in ("rotate", "always"):
            raise ConfigError(
                f"fsync must be 'rotate' or 'always', got {self.fsync!r}"
            )
        if self.max_segment_bytes < 1:
            raise ConfigError(
                f"max_segment_bytes must be positive, got {self.max_segment_bytes}"
            )


@dataclass(frozen=True)
class DurableReport:
    """Outcome of a completed durable (or resumed) run."""

    result: SimulationResult
    run_dir: Path
    trace_path: Path
    #: jobs serviced by *this* process (a resume excludes checkpointed jobs)
    jobs_executed: int
    #: index of the first job this process executed (0 for a cold run)
    resumed_from_job: int
    #: re-executed jobs that were verified against surviving journal frames
    replayed_jobs: int
    checkpoints_written: int


class _TeeSink(TraceSink):
    """Collects the current job's trace lines in ``capture``.

    Each event is encoded once, by
    :func:`~repro.telemetry.events.encode_event`; the same string is the
    trace line, the job's replay check and, in the service, its response
    payload.  :meth:`JournaledCore.submit` points ``capture`` at a fresh
    list for each job, writes the list to the trace in one go once the
    decision is made, and detaches it (``None``).  A detached tee writes
    each event straight through, so a line emitted between jobs reaches
    the trace but never a list already handed out.
    """

    def __init__(self, inner: JsonlSink):
        self.inner = inner
        self.capture: list[str] | None = None

    def emit(self, seq: int, event: TraceEvent) -> None:
        if self.capture is None:
            self.inner.emit(seq, event)
        else:
            self.capture.append(encode_event(seq, event))

    def close(self) -> None:
        self.inner.close()


def _encode_frame(frame: dict[str, int]) -> bytes:
    """The journal frame's one encoder (all-int payload, hand-rolled).

    Byte-identical to ``json.dumps(frame, separators=(",", ":"))`` and
    ~6x faster on the per-job path.
    """
    return (
        f'{{"job":{frame["job"]},"request_id":{frame["request_id"]},'
        f'"trace_start":{frame["trace_start"]},'
        f'"trace_offset":{frame["trace_offset"]},'
        f'"seq":{frame["seq"]},"arrivals_consumed":{frame["arrivals_consumed"]}}}'
    ).encode("ascii")


# ---------------------------------------------------------------------- #
# manifest (de)serialization


def _config_to_manifest(
    config: SimulationConfig, durability: DurabilityConfig
) -> dict[str, Any]:
    kwargs: dict[str, Any] = {}
    for key, value in config.policy_kwargs.items():
        kwargs[key] = value.value if isinstance(value, enum.Enum) else value
    try:
        json.dumps(kwargs)
    except TypeError as exc:
        raise ConfigError(
            f"policy_kwargs are not JSON-serializable ({exc}); durable runs "
            "require a replayable manifest"
        ) from None
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "workload": "workload.jsonl",
        "config": {
            "cache_size": config.cache_size,
            "policy": config.policy,
            "policy_kwargs": kwargs,
            "queue_length": config.queue_length,
            "discipline": config.discipline.value,
            "queue_mode": config.queue_mode,
            "warmup": config.warmup,
            "check_invariants": config.check_invariants,
        },
        "durability": {
            "checkpoint_every": durability.checkpoint_every,
            "fsync": durability.fsync,
            "max_segment_bytes": durability.max_segment_bytes,
        },
    }


def _config_from_manifest(doc: dict[str, Any]) -> SimulationConfig:
    cfg = doc["config"]
    kwargs = dict(cfg.get("policy_kwargs") or {})
    for key, enum_cls in _ENUM_KWARGS.items():
        if key in kwargs and isinstance(kwargs[key], str):
            kwargs[key] = enum_cls(kwargs[key])
    return SimulationConfig(
        cache_size=int(cfg["cache_size"]),
        policy=str(cfg["policy"]),
        policy_kwargs=kwargs,
        queue_length=int(cfg["queue_length"]),
        discipline=QueueDiscipline(cfg["discipline"]),
        queue_mode=str(cfg["queue_mode"]),
        warmup=int(cfg["warmup"]),
        check_invariants=bool(cfg["check_invariants"]),
    )


def _load_manifest(run_dir: Path, kind: str) -> dict[str, Any]:
    """Read ``run_dir``'s manifest, refusing another driver's run directory.

    A manifest without ``kind`` is a batch run (schema v1 as first
    written).  Called before a resume touches any file, so a refused
    directory is left exactly as it was.
    """
    path = run_dir / "manifest.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"{path}: unreadable run manifest: {exc}") from None
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise DurabilityError(
            f"{path}: unsupported manifest schema "
            f"v{doc.get('schema_version')!r} (this build reads "
            f"v{MANIFEST_SCHEMA_VERSION})"
        )
    found = doc.get("kind", "batch")
    if found != kind:
        raise DurabilityError(
            f"{path}: a {found!r} run directory, not a {kind!r} one; resume "
            f"it with {_RESUMED_BY.get(found, 'the driver that wrote it')}"
        )
    return doc


# ---------------------------------------------------------------------- #
# the shared pipeline


@dataclass(frozen=True)
class _Resume:
    """Where a resumed run restarts, and the oracle its replay must match."""

    start_job: int
    arrivals_consumed: int
    #: the checkpoint's state snapshot (``None``: restart from job 0)
    state: dict[str, Any] | None
    start_seq: int
    #: surviving journal frames past the checkpoint, in job order
    tail: tuple[JournalFrame, ...]
    #: the trace bytes ``tail`` acknowledges, from the checkpoint offset
    oracle: bytes


#: the restore point of a fresh run
_FRESH = _Resume(0, 0, None, 0, (), b"")


def _prepare_resume(run_dir: Path, available_jobs: int) -> _Resume:
    """Pick the restore point and replay oracle; rewind trace and journal.

    ``available_jobs`` is how many jobs the driver can feed again (the
    workload's length, or the service's persisted arrivals).  Restores
    the newest valid checkpoint (falling back past corrupt ones; a run
    crashed before its first checkpoint restarts from job 0), keeps the
    journal frames past it whose trace evidence survived, captures those
    trace bytes, then truncates the trace to the checkpoint's offset and
    clears the journal segments (re-executed jobs re-journal
    themselves).
    """
    ckpt = latest_checkpoint(run_dir / "checkpoints")
    frames, _torn = read_journal_dir(run_dir / "journal")
    if ckpt is not None:
        start_job = ckpt.job
        consumed = ckpt.arrivals_consumed
        restored: dict[str, Any] | None = ckpt.state
        trace_offset = ckpt.trace_offset
        start_seq = ckpt.trace_seq
    else:
        start_job = consumed = trace_offset = start_seq = 0
        restored = None
    if consumed > available_jobs:
        raise DurabilityError(
            f"checkpoint consumed {consumed} arrivals but only "
            f"{available_jobs} are recorded"
        )
    # A crash between checkpoint write and journal truncation leaves
    # frames the checkpoint already subsumes; a frame whose arrival did
    # not survive (the service's, after a power cut) was never
    # acknowledged.  Only the rest re-executes against the oracle.
    tail = [f for f in frames if start_job <= f.job < available_jobs]

    trace_path = run_dir / "trace.jsonl"
    existing = trace_path.read_bytes() if trace_path.exists() else b""
    if len(existing) < trace_offset:
        raise DurabilityError(
            f"{trace_path} holds {len(existing)} bytes but the checkpoint "
            f"records {trace_offset}"
        )
    # In the buffered ("rotate") mode the trace and the journal flush
    # independently, so a kill can leave frames whose trace bytes never
    # reached disk; those have no evidence to verify against — drop them
    # and let re-execution regenerate their jobs.  trace_offset is
    # monotone across frames, so trimming from the end keeps a
    # verifiable prefix.
    while tail and int(tail[-1].payload["trace_offset"]) > len(existing):
        tail.pop()
    oracle = b""
    if tail:
        oracle = existing[trace_offset : int(tail[-1].payload["trace_offset"])]
    if not trace_path.exists():
        trace_path.touch()
    with open(trace_path, "rb+") as fh:
        fh.truncate(trace_offset)
        fh.flush()
        os.fsync(fh.fileno())
    for segment in list_segments(run_dir / "journal"):
        segment.unlink()
    fsync_dir(run_dir / "journal")
    return _Resume(start_job, consumed, restored, start_seq, tuple(tail), oracle)


class JournaledCore:
    """One :class:`CoordinatorCore` under the durable commit pipeline.

    Owns everything below a driver's input stream: the core with its
    cache, policy and metrics (restored from ``resume``'s checkpoint
    when given), the tee sink and recorder writing ``trace.jsonl``, the
    journal, the crash injector and the replay oracle.  A driver feeds
    it jobs in order through :meth:`submit`, ends a replay with
    :meth:`finish` and releases it with :meth:`close`.  ``registry``
    receives the recorder's spans and the metrics' counters (the
    service exports it).  A batch driver with an admission queue sets
    :attr:`queue` so checkpoints snapshot it.
    """

    def __init__(
        self,
        workload: Trace,
        config: SimulationConfig,
        durability: DurabilityConfig,
        *,
        resume: _Resume | None = None,
        registry: MetricsRegistry | None = None,
    ):
        point = _FRESH if resume is None else resume
        restored = point.state
        self.config = config
        self.restored = restored
        self.start_job = point.start_job
        self.sizes = workload.catalog.as_dict()
        self.trace_path = durability.run_dir / "trace.jsonl"
        self._checkpoint_dir = durability.run_dir / "checkpoints"
        self._jsonl = JsonlSink(self.trace_path, append=resume is not None)
        self._sink = _TeeSink(self._jsonl)
        self.recorder = TraceRecorder(
            self._sink,
            registry=registry,
            start_seq=point.start_seq,
        )
        with use_recorder(self.recorder):
            self.cache = (
                CacheState.restore(restored["cache"])
                if restored is not None
                else CacheState(config.cache_size)
            )
            self.policy = make_policy(
                config.policy, future=workload.bundles(), **config.policy_kwargs
            )
            self.policy.bind(self.cache, self.sizes)
            if restored is not None:
                self.policy.import_state(restored["policy"])
            self.metrics = MetricsCollector(warmup=config.warmup, registry=registry)
            if restored is not None:
                self.metrics.import_state(restored["metrics"])
            self.core = CoordinatorCore(
                cache=self.cache,
                policy=self.policy,
                sizes=self.sizes,
                metrics=self.metrics,
                recorder=self.recorder,
                check_invariants=config.check_invariants,
            )
        self.queue: AdmissionQueue | None = None
        self.journal = JournalWriter(
            durability.run_dir / "journal",
            max_segment_bytes=durability.max_segment_bytes,
            fsync=durability.fsync,
        )
        self._crash = (
            CrashInjector(durability.crash) if durability.crash is not None else None
        )
        self._strict = durability.fsync == "always"
        self._every = durability.checkpoint_every
        self._tail = point.tail
        self._oracle = point.oracle
        self._oracle_base = self._jsonl.bytes_written
        self.replayed = 0
        self.checkpoints_written = 0
        self._closed = False

    def submit(
        self, job_index: int, request: Request, arrivals_consumed: int
    ) -> tuple[JobOutcome, list[str]]:
        """Decide and commit one job; returns its outcome and trace lines.

        Commit order: the core's decision, then the job's trace lines (one
        write), then its journal frame is checked against the replay
        oracle (while one remains) and appended, then every
        ``checkpoint_every`` jobs the state is snapshotted and the journal
        truncated.  The returned lines are the job's trace lines exactly
        as written (no newline).
        """
        jsonl = self._jsonl
        captured: list[str] = []
        self._sink.capture = captured
        trace_start = jsonl.bytes_written
        try:
            outcome = self.core.submit(job_index, request)
        finally:
            self._sink.capture = None
            jsonl.emit_lines(captured)
        # "always" forces the trace lines to disk before the frame, making
        # the frame a strict per-job commit record; the buffered default
        # lets resume trim evidence-less frames
        if self._strict:
            jsonl.flush(sync=True)
        with self.recorder.span("journal.commit"):
            frame = {
                "job": job_index,
                "request_id": request.request_id,
                "trace_start": trace_start,
                "trace_offset": jsonl.bytes_written,
                "seq": self.recorder.events_emitted,
                "arrivals_consumed": arrivals_consumed,
            }
            if self.replayed < len(self._tail):
                self._check(frame, captured)
            self.journal.append(_encode_frame(frame))
            if self._crash is not None:
                self._crash.tick(torn_hook=self._tear)
            if (job_index + 1) % self._every == 0:
                self._checkpoint(job_index + 1, arrivals_consumed)
        return outcome, captured

    def _check(self, actual: dict[str, int], captured: list[str]) -> None:
        """One re-executed job against its surviving frame + trace bytes."""
        expected = self._tail[self.replayed]
        if expected.payload != actual:
            diff_keys = sorted(
                k
                for k in set(expected.payload) | set(actual)
                if expected.payload.get(k) != actual.get(k)
            )
            raise ReplayDivergenceError(
                f"job {actual['job']}: re-execution diverged from journal frame "
                f"({expected.segment} @ {expected.offset}) on {diff_keys}"
            )
        start = actual["trace_start"] - self._oracle_base
        end = actual["trace_offset"] - self._oracle_base
        if self._oracle[start:end] != "".join(
            line + "\n" for line in captured
        ).encode("utf-8"):
            raise ReplayDivergenceError(
                f"job {actual['job']}: re-executed trace bytes differ from the "
                f"journaled originals (trace range {actual['trace_start']}.."
                f"{actual['trace_offset']})"
            )
        self.replayed += 1

    def _tear(self) -> None:
        # a header promising more payload than follows: exactly the tail
        # a mid-write crash leaves
        self.journal.flush()  # keep buffered frames ahead of the tear
        with open(self.journal.current_segment, "ab") as fh:
            fh.write(_HEADER.pack(1 << 16, 0) + b'{"torn":')
            fh.flush()

    def _checkpoint(self, job: int, arrivals_consumed: int) -> None:
        # the trace is always flushed before the checkpoint that records
        # its offset, so a surviving checkpoint never points past the end
        # of the surviving trace
        self._jsonl.flush(sync=self._strict)
        write_checkpoint(
            self._checkpoint_dir,
            job=job,
            arrivals_consumed=arrivals_consumed,
            trace_offset=self._jsonl.bytes_written,
            trace_seq=self.recorder.events_emitted,
            state={
                "cache": self.cache.export_state(),
                "policy": self.policy.export_state(),
                "metrics": self.metrics.export_state(),
                "queue": None if self.queue is None else self.queue.export_state(),
            },
            fsync=self._strict,
        )
        self.journal.truncate_to_checkpoint()
        self.checkpoints_written += 1

    def finish(self, verify: bool) -> None:
        """End a replay: every surviving frame must have been re-executed.

        ``verify`` additionally reconstructs the stitched trace and checks
        it against the live cache.
        """
        self._jsonl.flush()
        if self.replayed < len(self._tail):
            raise ReplayDivergenceError(
                f"journal holds {len(self._tail)} frames past job "
                f"{self.start_job} but re-execution produced only {self.replayed}"
            )
        if verify:
            from repro.telemetry.forensics import reconstruct, verify_against_cache

            report = reconstruct(str(self.trace_path), capacity=self.config.cache_size)
            report.raise_if_violations()
            mismatches = verify_against_cache(report, self.cache)
            if mismatches:
                raise ReplayDivergenceError(
                    "stitched trace disagrees with the live cache: "
                    + "; ".join(mismatches)
                )

    def close(self) -> None:
        """Flush and release the journal and the trace (idempotent).

        Drivers call it on every exit path: an escaping exception (an
        injected crash included) must not leave open buffered writers
        behind — a later GC would flush their stale tails into files a
        resume may already be rewriting.
        """
        if self._closed:
            return
        self._closed = True
        self.journal.close()
        self._jsonl.flush(sync=self._strict)
        self._sink.close()


# ---------------------------------------------------------------------- #
# the batch driver


def run_durable(
    trace: Trace,
    config: SimulationConfig,
    durability: DurabilityConfig,
    *,
    workload_source: "str | Path | None" = None,
) -> DurableReport:
    """Execute ``trace`` under ``config`` with journaling and checkpoints.

    The run directory is laid out as documented in the module docstring;
    a crash (injected or real) at any point leaves a state
    :func:`resume_run` recovers from.  Refuses to start in a directory
    that already holds a run manifest (resume instead, or use a fresh
    directory).

    ``workload_source`` names the JSONL file ``trace`` was loaded from,
    when there is one: the bytes are staged into the run directory as-is
    instead of re-serializing the in-memory trace (input staging, not
    part of the journal/checkpoint overhead).  The file must be the dump
    of ``trace`` — a resume replays from the staged copy.
    """
    run_dir = durability.run_dir
    if (run_dir / "manifest.json").exists():
        raise DurabilityError(
            f"{run_dir} already contains a durable run; use resume_run() "
            "or a fresh directory"
        )
    run_dir.mkdir(parents=True, exist_ok=True)
    sync = durability.fsync == "always"
    if workload_source is not None:
        data = Path(workload_source).read_bytes()
        # cheap shape check: one header line plus one line per job
        if data.count(b"\n") != len(trace) + 1 or not data.endswith(b"\n"):
            raise DurabilityError(
                f"{workload_source} does not look like the dump of the "
                f"supplied trace ({len(trace)} jobs)"
            )
        atomic_write_bytes(run_dir / "workload.jsonl", data, fsync=sync)
    else:
        atomic_write_text(
            run_dir / "workload.jsonl",
            "\n".join(trace.dump_lines()) + "\n",
            fsync=sync,
        )
    atomic_write_json(
        run_dir / "manifest.json",
        _config_to_manifest(config, durability),
        fsync=sync,
    )
    return _drive(trace, config, durability, resume=None, verify=False)


def resume_run(
    run_dir: str | Path,
    *,
    verify: bool | None = None,
    crash: CrashSpec | None = None,
) -> DurableReport:
    """Recover an interrupted durable run and drive it to completion.

    Restores the newest valid checkpoint, truncates the telemetry trace
    to the checkpoint's byte offset, and re-executes the remaining
    workload (see :func:`_prepare_resume`).  Journal frames that survived
    the crash are used as an oracle: each re-executed job must reproduce
    its frame exactly or :class:`~repro.errors.ReplayDivergenceError` is
    raised.  A coordinator-service run directory is refused before any
    file is touched.

    ``verify`` overrides the manifest's ``verify_on_resume``; ``crash``
    optionally injects a *new* crash into the resumed portion (crash
    sweeps resume repeatedly).
    """
    run_dir = Path(run_dir)
    manifest = _load_manifest(run_dir, "batch")
    config = _config_from_manifest(manifest)
    dur = manifest["durability"]
    durability = DurabilityConfig(
        run_dir=run_dir,
        checkpoint_every=int(dur["checkpoint_every"]),
        fsync=str(dur["fsync"]),
        max_segment_bytes=int(dur["max_segment_bytes"]),
        crash=crash,
    )
    trace = Trace.load(run_dir / manifest["workload"])
    return _drive(
        trace,
        config,
        durability,
        resume=_prepare_resume(run_dir, len(trace)),
        verify=durability.verify_on_resume if verify is None else verify,
    )


def _drive(
    trace: Trace,
    config: SimulationConfig,
    durability: DurabilityConfig,
    *,
    resume: _Resume | None,
    verify: bool,
) -> DurableReport:
    """Feed the workload's unconsumed arrivals — through the admission
    queue when ``queue_length > 1`` — to one :class:`JournaledCore`."""
    all_requests: list[Request] = list(trace)
    consumed = 0 if resume is None else resume.arrivals_consumed

    def arrivals() -> Iterator[Request]:
        nonlocal consumed
        while consumed < len(all_requests):
            request = all_requests[consumed]
            consumed += 1
            yield request

    core = JournaledCore(trace, config, durability, resume=resume)
    jobs_executed = 0
    try:
        requests: Iterator[Request] = arrivals()
        if config.queue_length > 1:
            restored = core.restored
            queue = AdmissionQueue(
                config.queue_length, config.discipline, sizes=core.sizes
            )
            if restored is not None and restored.get("queue") is not None:
                queue.import_state(restored["queue"])
            drain_first = (
                restored is not None
                and config.queue_mode == "drain"
                and len(queue) > 0
            )
            core.queue = queue
            requests = _queued(
                requests,
                queue,
                core.policy.score,
                config.queue_mode,
                drain_first=drain_first,
            )
        for job_index, request in enumerate(requests, start=core.start_job):
            core.submit(job_index, request, consumed)
            jobs_executed += 1
        core.finish(verify)
    finally:
        core.close()

    cache = core.cache
    result = SimulationResult(
        policy=core.policy.name,
        cache_size=config.cache_size,
        metrics=core.metrics.snapshot(),
        cache_loads=cache.load_count,
        cache_evictions=cache.evict_count,
        cache_bytes_evicted=cache.bytes_evicted,
        max_queue_wait=0 if core.queue is None else core.queue.max_observed_wait(),
        config=config,
    )
    atomic_write_json(
        durability.run_dir / "result.json",
        result.as_dict(),
        fsync=durability.fsync == "always",
    )
    return DurableReport(
        result=result,
        run_dir=durability.run_dir,
        trace_path=core.trace_path,
        jobs_executed=jobs_executed,
        resumed_from_job=core.start_job,
        replayed_jobs=core.replayed,
        checkpoints_written=core.checkpoints_written,
    )
