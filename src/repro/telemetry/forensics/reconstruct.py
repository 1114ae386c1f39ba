"""Cache-state reconstruction and invariant checking ("trace lint").

Replays a recorded event stream — ``FileAdmitted`` / ``FileEvicted`` /
``StageCompleted`` — into a residency timeline, per segment (one segment
per simulation run, split where the job counter restarts).  While
replaying it checks everything a *possible* simulation must satisfy:

* occupancy never exceeds the cache capacity (when one is given);
* no file is admitted twice without an eviction in between, and no
  non-resident file is evicted;
* a file's size never changes within a run;
* every ``PlanComputed`` is satisfied by the admissions and evictions of
  its job window (untimed traces, where admissions follow the plan
  synchronously);
* a plan claiming a request-hit performs no demand load, and vice versa;
* simulated time on staging events never runs backwards;
* sequence numbers increase and ``WindowRolled`` indexes are contiguous
  with ratios in ``[0, 1]``.

The reconstructor streams: it accepts :func:`iter_trace` output directly
and holds only per-segment residency state, so multi-million-event traces
are fine.  The final per-segment residency can be compared byte-for-byte
against a live :class:`~repro.cache.state.CacheState` with
:func:`verify_against_cache` — this differential check is what makes
every recorded run self-verifying (``tests/test_forensics_reconstruct``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.errors import TraceInvariantError
from repro.telemetry.events import (
    FileAdmitted,
    FileEvicted,
    JobArrived,
    PlanComputed,
    StageCompleted,
    TraceEvent,
    WindowRolled,
)
from repro.telemetry.forensics.tracelog import TIMED_EVENT_KINDS, TraceLog, iter_trace

__all__ = [
    "InvariantViolation",
    "SegmentState",
    "ReconstructionReport",
    "reconstruct",
    "verify_against_cache",
]

TraceSource = Union[
    TraceLog,
    str,
    Path,
    Iterable["tuple[int, TraceEvent] | TraceEvent"],
]


@dataclass(frozen=True)
class InvariantViolation:
    """One impossible thing a trace claims happened.

    ``rule`` is a stable machine slug (e.g. ``evict-nonresident``);
    ``seq`` is the sequence number of the event that triggered the check.
    """

    rule: str
    seq: int
    segment: int
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] seq {self.seq} (segment {self.segment}): {self.message}"


@dataclass
class SegmentState:
    """Reconstructed end state of one simulation run."""

    index: int
    jobs: int = 0
    admissions: int = 0
    evictions: int = 0
    staged: int = 0
    bytes_admitted: int = 0
    bytes_evicted: int = 0
    peak_used: int = 0
    residency: dict[str, int] = field(default_factory=dict)

    @property
    def used(self) -> int:
        return sum(self.residency.values())


@dataclass
class ReconstructionReport:
    """Everything :func:`reconstruct` learned from one trace."""

    segments: list[SegmentState]
    violations: list[InvariantViolation]
    events: int
    capacity: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def final_residency(self, segment: int = -1) -> dict[str, int]:
        """File → size mapping at the end of ``segment`` (default: last)."""
        return dict(self.segments[segment].residency)

    def raise_if_violations(self) -> None:
        """Raise :class:`~repro.errors.TraceInvariantError` unless clean."""
        if self.violations:
            head = "; ".join(str(v) for v in self.violations[:3])
            more = len(self.violations) - 3
            if more > 0:
                head += f"; ... {more} more"
            raise TraceInvariantError(
                f"trace violates {len(self.violations)} invariant(s): {head}",
                violations=list(self.violations),
            )

    def render(self) -> str:
        lines = [
            f"events: {self.events}  segments: {len(self.segments)}  "
            f"violations: {len(self.violations)}"
        ]
        for seg in self.segments:
            lines.append(
                f"  segment {seg.index}: jobs={seg.jobs} "
                f"admitted={seg.admissions} evicted={seg.evictions} "
                f"staged={seg.staged} final={len(seg.residency)} files / "
                f"{seg.used} bytes (peak {seg.peak_used})"
            )
        for v in self.violations:
            lines.append(f"  VIOLATION {v}")
        return "\n".join(lines)


class _Window:
    """Decision bookkeeping of one open job window."""

    __slots__ = (
        "seq",
        "arrival",
        "plans",
        "demand",
        "prefetch",
        "staged",
        "evicts",
        "has_stage",
    )

    def __init__(self, seq: int, arrival: JobArrived):
        self.seq = seq
        self.arrival = arrival
        self.plans: list[PlanComputed] = []
        self.demand = 0
        self.prefetch = 0
        self.staged = 0
        self.evicts = 0
        self.has_stage = False


class _Reconstructor:
    """Single-pass streaming state machine behind :func:`reconstruct`."""

    def __init__(self, capacity: int | None):
        self.capacity = capacity
        self.segments: list[SegmentState] = []
        self.violations: list[InvariantViolation] = []
        self.events = 0
        self._seg: SegmentState | None = None
        self._clock = 0.0
        self._last_seq: int | None = None
        self._window: _Window | None = None
        self._window_index: int | None = None
        self._seg_has_plan = False

    # -------------------------------------------------------------- #

    def _flag(self, rule: str, seq: int, message: str) -> None:
        segment = self._seg.index if self._seg is not None else 0
        self.violations.append(
            InvariantViolation(rule=rule, seq=seq, segment=segment, message=message)
        )

    def _segment(self) -> SegmentState:
        if self._seg is None:
            self._seg = SegmentState(index=len(self.segments))
            self.segments.append(self._seg)
        return self._seg

    def _new_segment(self) -> None:
        self._close_window()
        self._seg = None
        self._clock = 0.0
        self._window_index = None
        self._seg_has_plan = False
        self._segment()

    def _close_window(self) -> None:
        """Evaluate the plan-satisfiability checks of the open job window.

        Only meaningful for untimed windows: the simulator admits a job's
        files synchronously after the plan, so the window's admissions
        must match it.  Timed (SRM) windows stage asynchronously — the
        per-event residency checks still apply, the per-window ones do
        not.  Windows are also skipped when the segment carries no
        ``PlanComputed`` at all (a policy that was never instrumented).
        """
        w, self._window = self._window, None
        if w is None or w.has_stage or not self._seg_has_plan:
            return
        if self.capacity is not None and w.arrival.bytes_requested > self.capacity:
            if w.plans or w.demand or w.evicts:
                self._flag(
                    "unserviceable-serviced",
                    w.seq,
                    f"job {w.arrival.job} requests "
                    f"{w.arrival.bytes_requested} bytes > capacity "
                    f"{self.capacity} yet has decision events",
                )
            return
        if len(w.plans) > 1:
            self._flag(
                "multiple-plans",
                w.seq,
                f"job {w.arrival.job} has {len(w.plans)} PlanComputed events",
            )
            return
        if not w.plans:
            if w.demand or w.prefetch or w.evicts:
                self._flag(
                    "decision-without-plan",
                    w.seq,
                    f"job {w.arrival.job} admitted {w.demand + w.prefetch} and "
                    f"evicted {w.evicts} files with no PlanComputed",
                )
            return
        plan = w.plans[0]
        if w.demand != plan.loads:
            self._flag(
                "plan-load-mismatch",
                w.seq,
                f"job {w.arrival.job}: plan promised {plan.loads} demand "
                f"loads, trace admitted {w.demand}",
            )
        if w.prefetch > plan.prefetches:
            self._flag(
                "plan-prefetch-overrun",
                w.seq,
                f"job {w.arrival.job}: plan allowed {plan.prefetches} "
                f"prefetches, trace admitted {w.prefetch}",
            )
        if w.evicts != plan.evictions:
            self._flag(
                "plan-evict-mismatch",
                w.seq,
                f"job {w.arrival.job}: plan evicted {plan.evictions} files, "
                f"trace shows {w.evicts} FileEvicted events",
            )
        if plan.hit and w.demand:
            self._flag(
                "hit-with-demand-load",
                w.seq,
                f"job {w.arrival.job}: plan claims a request-hit but "
                f"{w.demand} demand loads follow",
            )
        if not plan.hit and w.demand == 0:
            self._flag(
                "miss-without-load",
                w.seq,
                f"job {w.arrival.job}: plan claims a miss but no demand "
                "load follows",
            )

    # -------------------------------------------------------------- #

    def _admit(self, seq: int, file: str, nbytes: int, staged: bool) -> None:
        seg = self._segment()
        if file in seg.residency:
            self._flag(
                "duplicate-admission",
                seq,
                f"file {file!r} admitted while already resident",
            )
            return
        seg.residency[file] = nbytes
        seg.admissions += 1
        seg.bytes_admitted += nbytes
        if staged:
            seg.staged += 1
        used = seg.used
        if used > seg.peak_used:
            seg.peak_used = used
        if self.capacity is not None and used > self.capacity:
            self._flag(
                "capacity-exceeded",
                seq,
                f"occupancy {used} exceeds capacity {self.capacity} after "
                f"admitting {file!r}",
            )

    def _evict(self, seq: int, event: FileEvicted) -> None:
        seg = self._segment()
        size = seg.residency.pop(event.file, None)
        if size is None:
            self._flag(
                "evict-nonresident",
                seq,
                f"policy {event.policy!r} evicted {event.file!r} which is "
                "not resident",
            )
            return
        if size != event.bytes:
            self._flag(
                "evict-size-mismatch",
                seq,
                f"{event.file!r} evicted with {event.bytes} bytes but was "
                f"admitted with {size}",
            )
        seg.evictions += 1
        seg.bytes_evicted += size

    def _tick(self, seq: int, t: float) -> None:
        if t < self._clock:
            self._flag(
                "time-regression",
                seq,
                f"simulated time went backwards: {t} after {self._clock}",
            )
        self._clock = max(self._clock, t)

    # -------------------------------------------------------------- #

    def feed(self, seq: int, event: TraceEvent) -> None:
        self.events += 1
        if self._last_seq is not None and seq <= self._last_seq:
            self._flag(
                "seq-regression",
                seq,
                f"sequence number {seq} after {self._last_seq}",
            )
        self._last_seq = seq

        if isinstance(event, JobArrived):
            if event.job == 0 and self._seg is not None:
                self._new_segment()
            else:
                self._close_window()
            seg = self._segment()
            seg.jobs += 1
            self._window = _Window(seq, event)
            return

        seg = self._segment()
        w = self._window

        if isinstance(event, FileAdmitted):
            self._admit(seq, event.file, event.bytes, staged=event.cause == "staged")
            if w is not None:
                if event.cause == "demand":
                    w.demand += 1
                elif event.cause == "prefetch":
                    w.prefetch += 1
                else:
                    w.staged += 1
        elif isinstance(event, FileEvicted):
            self._evict(seq, event)
            if w is not None:
                w.evicts += 1
        elif isinstance(event, PlanComputed):
            self._seg_has_plan = True
            if w is not None:
                w.plans.append(event)
        elif isinstance(event, StageCompleted):
            self._tick(seq, event.t)
            self._admit(seq, event.file, event.bytes, staged=True)
            if w is not None:
                w.has_stage = True
        elif event.kind in TIMED_EVENT_KINDS:
            self._tick(seq, event.t)
            if w is not None:
                w.has_stage = True
        elif isinstance(event, WindowRolled):
            expected = 0 if self._window_index is None else self._window_index + 1
            if event.index == 0:
                self._window_index = 0
            elif event.index != expected:
                self._flag(
                    "window-index-gap",
                    seq,
                    f"WindowRolled index {event.index}, expected {expected}",
                )
                self._window_index = event.index
            else:
                self._window_index = event.index
            for name in ("byte_miss_ratio", "request_hit_ratio"):
                value = getattr(event, name)
                if not 0.0 <= value <= 1.0:
                    self._flag(
                        "ratio-out-of-range",
                        seq,
                        f"WindowRolled.{name} = {value} outside [0, 1]",
                    )
            if event.jobs < 1:
                self._flag(
                    "empty-window",
                    seq,
                    f"WindowRolled with jobs={event.jobs}",
                )

    def finish(self, capacity: int | None) -> ReconstructionReport:
        self._close_window()
        if not self.segments:
            self.segments.append(SegmentState(index=0))
        return ReconstructionReport(
            segments=self.segments,
            violations=self.violations,
            events=self.events,
            capacity=capacity,
        )


def _as_stream(source: TraceSource) -> Iterator[tuple[int, TraceEvent]]:
    if isinstance(source, TraceLog):
        return iter(source.sequenced())
    if isinstance(source, (str, Path)):
        return iter_trace(source)

    def gen() -> Iterator[tuple[int, TraceEvent]]:
        for i, item in enumerate(source):
            if isinstance(item, TraceEvent):
                yield i, item
            else:
                yield item

    return gen()


def reconstruct(
    source: TraceSource,
    *,
    capacity: int | None = None,
) -> ReconstructionReport:
    """Replay a trace into per-segment residency state, checking invariants.

    ``source`` may be a :class:`TraceLog`, a JSONL path, or any iterable
    of events / ``(seq, event)`` pairs (e.g. a
    :class:`~repro.telemetry.sinks.RingSink`'s contents or a streaming
    :func:`iter_trace`).  ``capacity`` enables the occupancy invariant.
    Every driver, the timed SRM included, numbers its jobs from 0, so a
    trace concatenating several runs splits into one segment per run.
    """
    recon = _Reconstructor(capacity)
    for seq, event in _as_stream(source):
        recon.feed(seq, event)
    return recon.finish(capacity)


def verify_against_cache(
    report: ReconstructionReport, cache, *, segment: int = -1
) -> list[str]:
    """Differences between a reconstructed segment and a live cache state.

    Compares the reconstructed residency (file → size) of ``segment``
    against a :class:`~repro.cache.state.CacheState` byte for byte;
    returns a list of human-readable mismatches, empty when identical.
    """
    reconstructed = report.final_residency(segment)
    live = {str(f): cache.size_of(f) for f in cache.residents()}
    problems: list[str] = []
    for f in sorted(set(reconstructed) - set(live)):
        problems.append(f"trace says {f!r} is resident, live cache does not")
    for f in sorted(set(live) - set(reconstructed)):
        problems.append(f"live cache holds {f!r}, trace does not")
    for f in sorted(set(live) & set(reconstructed)):
        if live[f] != reconstructed[f]:
            problems.append(
                f"{f!r}: trace size {reconstructed[f]} != live size {live[f]}"
            )
    if not problems and report.segments[segment].used != cache.used:
        problems.append(
            f"occupancy mismatch: trace {report.segments[segment].used} != "
            f"live {cache.used}"
        )
    return problems
