"""Typed trace events and their line schema.

Every observable decision in the stack — a job arriving, a plan being
computed, files moving in and out of the cache, staging attempts on the
timed grid, injected faults, metric windows rolling over — is one frozen
dataclass below.  Events are *pure data*: no wall-clock timestamps, no
machine identifiers, nothing that is not a deterministic function of the
(seeded) simulation.  That is what makes a JSONL trace byte-identical
across reruns and across serial vs. ``--jobs N`` execution.

Simulated time (``t``) on the grid events *is* deterministic and is
included; host time never is, so profiling data lives in the
:class:`~repro.telemetry.metrics.MetricsRegistry` instead of the trace.

``EVENT_SCHEMA`` is the single source of truth for the serialized line
format; :func:`validate_event` / :func:`validate_trace_file` check
arbitrary JSONL against it (used by the CI trace smoke job).

:func:`encode_event` is the only place a trace line is written: the
canonical JSON of :func:`event_to_dict` (sorted keys, ``","``/``":"``
separators, ASCII escapes), written for the per-job kinds by hand-rolled
fast paths instead of a ``json.dumps`` per event.  Every sink that
writes lines calls it, and the coordinator service splices the lines it
returns into job responses verbatim, so trace and response can never
disagree on a byte.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.errors import TraceTruncatedWarning, TraceValidationError

__all__ = [
    "TraceEvent",
    "JobArrived",
    "PlanComputed",
    "FileAdmitted",
    "FileEvicted",
    "StageStarted",
    "StageRetried",
    "StageFailedOver",
    "StageCompleted",
    "FaultInjected",
    "WindowRolled",
    "EVENT_TYPES",
    "EVENT_SCHEMA",
    "event_to_dict",
    "encode_event",
    "event_from_dict",
    "validate_event",
    "validate_trace_file",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class of all trace events (never emitted itself)."""

    #: machine name of the event class, stable across versions
    kind = "abstract"


@dataclass(frozen=True)
class JobArrived(TraceEvent):
    """A request entered the service loop (before admission checks)."""

    kind = "JobArrived"
    job: int  # 0-based arrival index within the run
    request_id: int
    n_files: int
    bytes_requested: int


@dataclass(frozen=True)
class PlanComputed(TraceEvent):
    """A replacement policy finished its decision for one request."""

    kind = "PlanComputed"
    policy: str
    loads: int
    prefetches: int
    evictions: int
    hit: bool


@dataclass(frozen=True)
class FileAdmitted(TraceEvent):
    """A file entered the cache (``cause``: demand | prefetch | staged)."""

    kind = "FileAdmitted"
    file: str
    bytes: int
    cause: str


@dataclass(frozen=True)
class FileEvicted(TraceEvent):
    """A policy removed a file to make room.

    ``detail`` carries the policy's own eviction rationale — Landlord's
    residual credit, OptFileBundle's history degree — so divergent
    decisions between algorithms can be explained from the trace alone.
    """

    kind = "FileEvicted"
    file: str
    bytes: int
    policy: str
    detail: dict | None = None


@dataclass(frozen=True)
class StageStarted(TraceEvent):
    """The SRM began one staging attempt for a file."""

    kind = "StageStarted"
    file: str
    bytes: int
    site: str
    attempt: int  # 1-based attempt number
    t: float  # simulated time


@dataclass(frozen=True)
class StageRetried(TraceEvent):
    """A staging attempt failed; a retry was scheduled after ``delay``."""

    kind = "StageRetried"
    file: str
    attempt: int  # failed attempts so far
    delay: float
    t: float


@dataclass(frozen=True)
class StageFailedOver(TraceEvent):
    """A retry re-resolved a file to a different replica site."""

    kind = "StageFailedOver"
    file: str
    from_site: str
    to_site: str
    t: float


@dataclass(frozen=True)
class StageCompleted(TraceEvent):
    """A file finished staging into the disk cache."""

    kind = "StageCompleted"
    file: str
    bytes: int
    site: str
    t: float


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The fault injector fired (``fault``: drive | transfer | latency_spike)."""

    kind = "FaultInjected"
    fault: str
    component: str


@dataclass(frozen=True)
class WindowRolled(TraceEvent):
    """A metrics window closed (learning-curve time series)."""

    kind = "WindowRolled"
    index: int
    jobs: int
    byte_miss_ratio: float
    request_hit_ratio: float


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        JobArrived,
        PlanComputed,
        FileAdmitted,
        FileEvicted,
        StageStarted,
        StageRetried,
        StageFailedOver,
        StageCompleted,
        FaultInjected,
        WindowRolled,
    )
}

#: field name -> allowed JSON types, per event kind.  ``bool`` is listed
#: before ``int`` checks because bool is an int subclass in Python.
_INT = (int,)
_NUM = (int, float)
_STR = (str,)
_BOOL = (bool,)
_DICT_OR_NULL = (dict, type(None))

EVENT_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    "JobArrived": {
        "job": _INT,
        "request_id": _INT,
        "n_files": _INT,
        "bytes_requested": _INT,
    },
    "PlanComputed": {
        "policy": _STR,
        "loads": _INT,
        "prefetches": _INT,
        "evictions": _INT,
        "hit": _BOOL,
    },
    "FileAdmitted": {"file": _STR, "bytes": _INT, "cause": _STR},
    "FileEvicted": {
        "file": _STR,
        "bytes": _INT,
        "policy": _STR,
        "detail": _DICT_OR_NULL,
    },
    "StageStarted": {
        "file": _STR,
        "bytes": _INT,
        "site": _STR,
        "attempt": _INT,
        "t": _NUM,
    },
    "StageRetried": {"file": _STR, "attempt": _INT, "delay": _NUM, "t": _NUM},
    "StageFailedOver": {
        "file": _STR,
        "from_site": _STR,
        "to_site": _STR,
        "t": _NUM,
    },
    "StageCompleted": {"file": _STR, "bytes": _INT, "site": _STR, "t": _NUM},
    "FaultInjected": {"fault": _STR, "component": _STR},
    "WindowRolled": {
        "index": _INT,
        "jobs": _INT,
        "byte_miss_ratio": _NUM,
        "request_hit_ratio": _NUM,
    },
}

_ADMIT_CAUSES = frozenset({"demand", "prefetch", "staged"})
_FAULT_KINDS = frozenset({"drive", "transfer", "latency_spike"})


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def event_to_dict(seq: int, event: TraceEvent) -> dict[str, Any]:
    """The serialized (JSONL line) form of one event.

    The returned dict is fresh but *shallow*: a nested payload (e.g.
    ``FileEvicted.detail``) is shared with the event, not deep-copied —
    events are frozen and callers serialize immediately, so the copy
    ``dataclasses.asdict`` would make is pure overhead on the hot path.
    """
    names = _FIELD_NAMES.get(type(event))
    if names is None:
        names = tuple(f.name for f in fields(event))
        _FIELD_NAMES[type(event)] = names
    out: dict[str, Any] = {"seq": seq, "kind": event.kind}
    for name in names:
        out[name] = getattr(event, name)
    return out


#: the reference line encoder: ``json.dumps(record, sort_keys=True,
#: separators=(",", ":"))`` without building an encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Per-kind fast paths for the events every job emits.  Each returns the
# canonical line, or ``None`` to decline: any value whose text it does
# not reproduce exactly sends the line through _CANONICAL.  The checks
# are on exact types on purpose: a bool in an int field must print
# ``true``, and an int subclass such as IntEnum formats differently.


def _num_text(value: Any) -> str | None:
    if type(value) is int:
        return int.__repr__(value)
    # v - v is 0.0 exactly for finite floats (nan/inf print as NaN/Infinity)
    if type(value) is float and value - value == 0.0:
        return float.__repr__(value)
    return None


def _detail_text(detail: Any) -> str:
    """A ``FileEvicted.detail``: flat ``{str: int | finite float}`` dicts
    directly, anything else through the reference encoder."""
    if detail is None:
        return "null"
    if type(detail) is dict:
        items = []
        for key, value in detail.items():
            text = _num_text(value)
            if text is None or type(key) is not str:
                break
            items.append((key, f"{encode_basestring_ascii(key)}:{text}"))
        else:
            items.sort()  # keys are unique, so only keys are compared
            return "{" + ",".join([pair for _key, pair in items]) + "}"
    return _CANONICAL.encode(detail)


def _job_arrived_line(seq: int, ev: JobArrived) -> str | None:
    job, rid, n_files, nbytes = ev.job, ev.request_id, ev.n_files, ev.bytes_requested
    if not type(seq) is type(job) is type(rid) is type(n_files) is type(nbytes) is int:
        return None
    return (
        f'{{"bytes_requested":{nbytes},"job":{job},"kind":"JobArrived",'
        f'"n_files":{n_files},"request_id":{rid},"seq":{seq}}}'
    )


def _plan_computed_line(seq: int, ev: PlanComputed) -> str | None:
    loads, prefetches, evictions = ev.loads, ev.prefetches, ev.evictions
    hit = "true" if ev.hit is True else "false" if ev.hit is False else None
    if (
        hit is None
        or type(ev.policy) is not str
        or not type(seq) is type(loads) is type(prefetches) is type(evictions) is int
    ):
        return None
    return (
        f'{{"evictions":{evictions},"hit":{hit},"kind":"PlanComputed",'
        f'"loads":{loads},"policy":{encode_basestring_ascii(ev.policy)},'
        f'"prefetches":{prefetches},"seq":{seq}}}'
    )


def _file_admitted_line(seq: int, ev: FileAdmitted) -> str | None:
    nbytes, file, cause = ev.bytes, ev.file, ev.cause
    if not (
        type(seq) is type(nbytes) is int and type(file) is type(cause) is str
    ):
        return None
    return (
        f'{{"bytes":{nbytes},"cause":{encode_basestring_ascii(cause)},'
        f'"file":{encode_basestring_ascii(file)},"kind":"FileAdmitted",'
        f'"seq":{seq}}}'
    )


def _file_evicted_line(seq: int, ev: FileEvicted) -> str | None:
    nbytes, file, policy = ev.bytes, ev.file, ev.policy
    if not (
        type(seq) is type(nbytes) is int and type(file) is type(policy) is str
    ):
        return None
    return (
        f'{{"bytes":{nbytes},"detail":{_detail_text(ev.detail)},'
        f'"file":{encode_basestring_ascii(file)},"kind":"FileEvicted",'
        f'"policy":{encode_basestring_ascii(policy)},"seq":{seq}}}'
    )


_FAST_LINES: dict[type, Callable[[int, Any], str | None]] = {
    JobArrived: _job_arrived_line,
    PlanComputed: _plan_computed_line,
    FileAdmitted: _file_admitted_line,
    FileEvicted: _file_evicted_line,
}


def encode_event(seq: int, event: TraceEvent) -> str:
    """The canonical trace line of one event (no trailing newline).

    Byte-identical to ``json.dumps(event_to_dict(seq, event),
    sort_keys=True, separators=(",", ":"))`` — the one line format of
    the trace.  The per-job kinds (``JobArrived``, ``PlanComputed``,
    ``FileAdmitted``, ``FileEvicted``) are written by hand-rolled fast
    paths; every other kind, and any field value a fast path does not
    cover (a bool or float in an int field, a nested ``detail``), goes
    through one shared reference encoder.
    """
    fast = _FAST_LINES.get(type(event))
    if fast is not None:
        line = fast(seq, event)
        if line is not None:
            return line
    return _CANONICAL.encode(event_to_dict(seq, event))


def event_from_dict(record: Mapping[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its serialized form (validates first)."""
    validate_event(record)
    cls = EVENT_TYPES[record["kind"]]
    return cls(**{f.name: record[f.name] for f in fields(cls)})


def validate_event(record: Mapping[str, Any]) -> None:
    """Check one serialized event against :data:`EVENT_SCHEMA`.

    Raises :class:`~repro.errors.TraceValidationError` naming the first
    violation (with the offending field on its ``field`` attribute);
    returns ``None`` on success.
    """
    kind = record.get("kind")
    if kind not in EVENT_SCHEMA:
        raise TraceValidationError(f"unknown event kind {kind!r}", field="kind")
    schema = EVENT_SCHEMA[kind]
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise TraceValidationError(
            f"{kind}: 'seq' must be a non-negative int, got {seq!r}", field="seq"
        )
    for name, allowed in schema.items():
        if name not in record:
            raise TraceValidationError(
                f"{kind}: missing field {name!r}", field=name
            )
        value = record[name]
        if isinstance(value, bool) and bool not in allowed:
            raise TraceValidationError(
                f"{kind}.{name}: bool is not a valid value", field=name
            )
        if not isinstance(value, allowed):
            raise TraceValidationError(
                f"{kind}.{name}: expected {'/'.join(t.__name__ for t in allowed)}, "
                f"got {type(value).__name__}",
                field=name,
            )
    extra = set(record) - set(schema) - {"seq", "kind"}
    if extra:
        first = sorted(extra)[0]
        raise TraceValidationError(
            f"{kind}: unexpected fields {sorted(extra)}", field=first
        )
    if kind == "FileAdmitted" and record["cause"] not in _ADMIT_CAUSES:
        raise TraceValidationError(
            f"FileAdmitted.cause must be one of {sorted(_ADMIT_CAUSES)}, "
            f"got {record['cause']!r}",
            field="cause",
        )
    if kind == "FaultInjected" and record["fault"] not in _FAULT_KINDS:
        raise TraceValidationError(
            f"FaultInjected.fault must be one of {sorted(_FAULT_KINDS)}, "
            f"got {record['fault']!r}",
            field="fault",
        )


def _warn_torn_tail(path: Any, lineno: int, byte_offset: int, reason: str) -> None:
    """Issue the standard :class:`TraceTruncatedWarning` for a torn tail.

    The recovery hint is the byte offset of the intact prefix, i.e. what
    the file should be truncated to.  ``stacklevel`` points past
    :func:`_trace_records` and the reader driving it at that reader's
    caller.
    """
    warnings.warn(
        TraceTruncatedWarning(
            f"{path}: line {lineno} is a torn final line ({reason}); "
            f"intact prefix is {byte_offset} bytes",
            path=str(path),
            byte_offset=byte_offset,
            lineno=lineno,
        ),
        stacklevel=4,
    )


def _trace_records(
    path: str | Path, validate: bool
) -> Iterator[tuple[int, dict[str, Any]]]:
    """The one line reader of a JSONL trace: ``(lineno, record)`` pairs.

    Holds one line in memory at a time.  With ``validate`` every record
    is checked against :data:`EVENT_SCHEMA` and ``seq`` must be a
    contiguous 0-based sequence; the first bad line raises
    :class:`~repro.errors.TraceValidationError` carrying its 1-based
    ``lineno`` and offending ``field``.  A final line that lacks its
    trailing newline and does not decode is the signature of a
    crash-torn write, not of corruption: iteration stops there with a
    :class:`~repro.errors.TraceTruncatedWarning` carrying the byte length
    of the intact prefix.  :func:`validate_trace_file` counts these
    records; :func:`repro.telemetry.forensics.iter_trace` builds events
    from them.
    """
    expected_seq = 0
    offset = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise TraceValidationError(
            f"cannot read trace {path}: {exc.strerror or exc}",
            path=str(path),
        ) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            has_newline = raw.endswith(b"\n")
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                if not has_newline:
                    _warn_torn_tail(path, lineno, offset, f"bad UTF-8: {exc}")
                    return
                raise TraceValidationError(
                    f"{path}: line {lineno}: not valid UTF-8: {exc}",
                    path=str(path),
                    lineno=lineno,
                ) from None
            if not line:
                offset += len(raw)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not has_newline:
                    _warn_torn_tail(path, lineno, offset, f"not valid JSON: {exc}")
                    return
                raise TraceValidationError(
                    f"{path}: line {lineno}: not valid JSON: {exc}",
                    path=str(path),
                    lineno=lineno,
                ) from None
            if validate:
                try:
                    validate_event(record)
                except TraceValidationError as exc:
                    field = f" (field {exc.field!r})" if exc.field else ""
                    raise TraceValidationError(
                        f"{path}: line {lineno}{field}: {exc}",
                        path=str(path),
                        lineno=lineno,
                        field=exc.field,
                    ) from None
                if record["seq"] != expected_seq:
                    raise TraceValidationError(
                        f"{path}: line {lineno} (field 'seq'): seq "
                        f"{record['seq']} out of order (expected {expected_seq})",
                        path=str(path),
                        lineno=lineno,
                        field="seq",
                    )
                expected_seq += 1
            offset += len(raw)
            yield lineno, record


def validate_trace_file(path: str | Path) -> int:
    """Validate every line of a JSONL trace; return the event count.

    Also checks that ``seq`` is a contiguous 0-based sequence, which any
    single-recorder trace must satisfy.  On failure raises
    :class:`~repro.errors.TraceValidationError` locating the first invalid
    record: the message (and the exception's ``lineno``/``field``
    attributes) carry the 1-based line number and the offending field.
    An unreadable file raises it too.

    A crash-torn final line is reported as a recoverable
    :class:`~repro.errors.TraceTruncatedWarning` (carrying the byte
    offset of the intact prefix) and excluded from the count, so
    post-crash traces remain analyzable.
    """
    count = 0
    for _ in _trace_records(path, validate=True):
        count += 1
    return count
