"""Indexed and streaming access to recorded JSONL telemetry traces.

Two access modes:

* :func:`iter_trace` — a generator of ``(seq, event)`` pairs straight off
  the file, O(1) memory; use it for multi-million-event traces or when a
  single pass is enough (the reconstructor accepts it directly).
* :class:`TraceLog` — loads a trace (or any event iterable) and builds
  per-kind, per-file, per-job and per-window indexes for random access;
  this is what the diff / export tools operate on.

Traces recorded from a whole experiment concatenate several simulation
runs; each run restarts its job counter, so a ``JobArrived`` with
``job == 0`` marks a *segment* boundary (see :meth:`TraceLog.segments`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import TraceValidationError
from repro.telemetry.events import (
    EVENT_TYPES,
    JobArrived,
    TraceEvent,
    WindowRolled,
    _trace_records,
)

__all__ = ["iter_trace", "TraceLog", "JobWindow", "Segment"]

#: event kinds that reference a single file via a ``file`` field
FILE_EVENT_KINDS = frozenset(
    {
        "FileAdmitted",
        "FileEvicted",
        "StageStarted",
        "StageRetried",
        "StageFailedOver",
        "StageCompleted",
    }
)

#: event kinds carrying simulated time
TIMED_EVENT_KINDS = frozenset(
    {"StageStarted", "StageRetried", "StageFailedOver", "StageCompleted"}
)

#: each event kind's class and constructor field names
_CONSTRUCTORS = {
    kind: (cls, tuple(f.name for f in fields(cls)))
    for kind, cls in EVENT_TYPES.items()
}


def iter_trace(
    path: str | Path, *, validate: bool = True
) -> Iterator[tuple[int, TraceEvent]]:
    """Stream ``(seq, event)`` pairs from a JSONL trace file.

    Holds one line in memory at a time, so it scales to traces far larger
    than RAM.  Reads through the same line reader as
    :func:`~repro.telemetry.events.validate_trace_file`, so it raises the
    same :class:`~repro.errors.TraceValidationError` on a bad line and
    stops at a crash-torn tail with the same
    :class:`~repro.errors.TraceTruncatedWarning`.  ``validate=False``
    skips the schema and ``seq`` checks and only needs the ``kind``
    lookup to type each event.
    """
    for lineno, record in _trace_records(path, validate):
        try:
            cls, names = _CONSTRUCTORS[record["kind"]]
        except KeyError:
            raise TraceValidationError(
                f"{path}: line {lineno}: unknown event kind "
                f"{record.get('kind')!r}",
                path=str(path),
                lineno=lineno,
                field="kind",
            ) from None
        event = cls(**{name: record[name] for name in names})
        yield record.get("seq", lineno - 1), event


@dataclass(frozen=True)
class Segment:
    """One simulation run inside a (possibly concatenated) trace.

    ``start``/``end`` are event indexes into the owning :class:`TraceLog`
    (end exclusive).  ``timed`` is True when the segment contains staging
    events carrying simulated time (a timed-SRM run).
    """

    index: int
    start: int
    end: int
    timed: bool


@dataclass(frozen=True)
class JobWindow:
    """The event span of one serviced job: its ``JobArrived`` and every
    event up to (excluding) the next ``JobArrived``."""

    segment: int
    job: int
    request_id: int
    start: int
    end: int


class TraceLog:
    """A fully-loaded telemetry trace with per-dimension indexes."""

    def __init__(
        self,
        events: Iterable[tuple[int, TraceEvent] | TraceEvent],
        *,
        path: str | Path | None = None,
    ):
        self.path = Path(path) if path is not None else None
        self._seqs: list[int] = []
        self._events: list[TraceEvent] = []
        for item in events:
            if isinstance(item, TraceEvent):
                self._seqs.append(len(self._events))
                self._events.append(item)
            else:
                seq, event = item
                self._seqs.append(seq)
                self._events.append(event)
        self._by_kind: dict[str, list[int]] | None = None
        self._by_file: dict[str, list[int]] | None = None
        self._segments: list[Segment] | None = None
        self._jobs: list[JobWindow] | None = None

    @classmethod
    def load(cls, path: str | Path, *, validate: bool = True) -> "TraceLog":
        """Read a JSONL trace file into an indexed log."""
        return cls(iter_trace(path, validate=validate), path=path)

    # ------------------------------------------------------------------ #
    # plain access

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def event(self, index: int) -> TraceEvent:
        return self._events[index]

    def seq(self, index: int) -> int:
        """The recorded sequence number of the event at ``index``."""
        return self._seqs[index]

    def sequenced(self) -> Iterator[tuple[int, TraceEvent]]:
        return zip(self._seqs, self._events)

    # ------------------------------------------------------------------ #
    # indexes (built lazily, one pass each)

    def _ensure_kind_file_index(self) -> None:
        if self._by_kind is not None:
            return
        by_kind: dict[str, list[int]] = {}
        by_file: dict[str, list[int]] = {}
        for i, event in enumerate(self._events):
            by_kind.setdefault(event.kind, []).append(i)
            if event.kind in FILE_EVENT_KINDS:
                by_file.setdefault(event.file, []).append(i)
        self._by_kind = by_kind
        self._by_file = by_file

    def kinds(self) -> Counter:
        """Event counts by kind."""
        self._ensure_kind_file_index()
        assert self._by_kind is not None
        return Counter({k: len(v) for k, v in self._by_kind.items()})

    def by_kind(self, kind: str) -> list[tuple[int, TraceEvent]]:
        """All ``(seq, event)`` of one kind, in trace order."""
        self._ensure_kind_file_index()
        assert self._by_kind is not None
        return [(self._seqs[i], self._events[i]) for i in self._by_kind.get(kind, [])]

    def file_timeline(self, file_id: str) -> list[tuple[int, TraceEvent]]:
        """Every admission/eviction/staging event touching ``file_id``."""
        self._ensure_kind_file_index()
        assert self._by_file is not None
        return [
            (self._seqs[i], self._events[i]) for i in self._by_file.get(file_id, [])
        ]

    def files(self) -> list[str]:
        """All file ids appearing in per-file events, sorted."""
        self._ensure_kind_file_index()
        assert self._by_file is not None
        return sorted(self._by_file)

    def segments(self) -> list[Segment]:
        """Simulation-run spans: a new one starts at each ``job == 0``
        arrival (experiment traces concatenate runs back to back).  A
        trace with no ``JobArrived`` events is a single segment."""
        if self._segments is not None:
            return self._segments
        starts: list[int] = []
        for i, event in enumerate(self._events):
            if isinstance(event, JobArrived) and event.job == 0:
                starts.append(i)
        if not starts or starts[0] != 0:
            starts.insert(0, 0)
        segments = []
        for k, start in enumerate(starts):
            end = starts[k + 1] if k + 1 < len(starts) else len(self._events)
            timed = any(
                self._events[i].kind in TIMED_EVENT_KINDS for i in range(start, end)
            )
            segments.append(Segment(index=k, start=start, end=end, timed=timed))
        self._segments = segments
        return segments

    def jobs(self, segment: int | None = None) -> list[JobWindow]:
        """Per-job event windows (optionally of one segment only)."""
        if self._jobs is None:
            windows: list[JobWindow] = []
            for seg in self.segments():
                open_start: int | None = None
                open_event: JobArrived | None = None
                for i in range(seg.start, seg.end):
                    event = self._events[i]
                    if isinstance(event, JobArrived):
                        if open_event is not None:
                            windows.append(
                                JobWindow(
                                    segment=seg.index,
                                    job=open_event.job,
                                    request_id=open_event.request_id,
                                    start=open_start,  # type: ignore[arg-type]
                                    end=i,
                                )
                            )
                        open_start, open_event = i, event
                if open_event is not None:
                    windows.append(
                        JobWindow(
                            segment=seg.index,
                            job=open_event.job,
                            request_id=open_event.request_id,
                            start=open_start,  # type: ignore[arg-type]
                            end=seg.end,
                        )
                    )
            self._jobs = windows
        if segment is None:
            return self._jobs
        return [w for w in self._jobs if w.segment == segment]

    def job_timeline(self, job: int, *, segment: int = 0) -> list[TraceEvent]:
        """The events of one job window (``JobArrived`` included)."""
        for window in self.jobs(segment):
            if window.job == job:
                return self._events[window.start : window.end]
        return []

    def windows(self) -> list[list[WindowRolled]]:
        """``WindowRolled`` series, split where the window index restarts
        (each learning-curve run rolls its own window sequence)."""
        runs: list[list[WindowRolled]] = []
        current: list[WindowRolled] = []
        for event in self._events:
            if not isinstance(event, WindowRolled):
                continue
            if event.index == 0 and current:
                runs.append(current)
                current = []
            current.append(event)
        if current:
            runs.append(current)
        return runs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = f", path={str(self.path)!r}" if self.path else ""
        return f"TraceLog(n={len(self._events)}{src})"
