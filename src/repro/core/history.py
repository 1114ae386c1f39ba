"""The request-history data structure ``L(R)`` (Section 3 of the paper).

``L(R)`` stores, for every request type (bundle) ever serviced, its value
``v(r)`` — by default an occurrence counter — together with its file set.
From it the algorithms derive the *degree* ``d(f)`` of each file (the number
of distinct request types that use it) and the *adjusted* sizes and values
driving ``OptCacheSelect``.

Truncation (Section 5.2, "Request History Length")
--------------------------------------------------
Maintaining and re-ranking the full history on every arrival is expensive,
so the paper studies truncations and settles on considering only *requests
supported by the cache* as selection candidates, "while obtaining the
request popularity and the degree of file sharing from the global history".
This module therefore always keeps global counters (cheap dictionaries) and
lets the candidate set be restricted three ways:

* ``TruncationMode.FULL`` — every request type ever seen is a candidate;
* ``TruncationMode.WINDOW`` — only types seen in the last *W* arrivals;
* ``TruncationMode.CACHE_SUPPORTED`` — only types whose files are all
  resident (given the resident set the caller maintains through
  :meth:`RequestHistory.on_file_loaded` / :meth:`on_file_evicted`); a
  per-entry missing-file counter makes this O(degree) per cache change
  instead of O(history) per arrival.

In every mode a candidate index (``eid → entry`` and ``file → {eid:
entry}`` over the candidates only) changes only where candidacy does: at
entry creation under FULL, a window count crossing 0↔1 under WINDOW, a
missing count crossing 0↔1 under CACHE_SUPPORTED, and in :meth:`restore`.
Each candidate caches the files another candidate also holds
(:meth:`RequestHistory.shared_files`), the only files the greedy walks.

Entries carry a stable integer id (``eid``, assigned in first-seen order)
so downstream incremental structures — notably
:class:`repro.core.selection_state.SelectionState` — can index entries
without rebuilding per arrival; such structures subscribe to new-entry
events via :meth:`RequestHistory.add_listener`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.core.bundle import FileBundle
from repro.errors import ConfigError
from repro.types import FileId

__all__ = ["TruncationMode", "HistoryEntry", "RequestHistory"]


class TruncationMode(enum.Enum):
    """Which request types are offered to ``OptCacheSelect`` as candidates."""

    FULL = "full"
    WINDOW = "window"
    CACHE_SUPPORTED = "cache"


@dataclass(slots=True)
class HistoryEntry:
    """Per-request-type record held in ``L(R)``.

    ``value`` is ``v(r)``: the paper's occurrence counter, optionally
    priority-weighted and/or exponentially decayed (extensions).
    """

    bundle: FileBundle
    eid: int = -1
    value: float = 0.0
    count: int = 0
    first_seen: int = -1
    last_seen: int = -1
    #: files of the bundle outside the history's resident view
    missing: int = 0
    _last_decay_tick: int = field(default=0, repr=False)
    # RequestHistory.shared_files cache; None when stale
    _shared: tuple[FileId, ...] | None = field(
        default=None, repr=False, compare=False
    )


class RequestHistory:
    """Incrementally maintained ``L(R)`` with candidate truncation.

    Parameters
    ----------
    mode:
        Candidate truncation policy (default: ``CACHE_SUPPORTED``, the
        configuration the paper uses for all experiments after Fig. 5).
    window:
        Arrival-window length, required iff ``mode`` is ``WINDOW``.
    decay:
        Optional per-arrival multiplicative value decay in ``(0, 1]``;
        ``1.0`` (default) reproduces the paper's pure counter.  Decay is an
        extension used by the value-function ablation.
    """

    def __init__(
        self,
        mode: TruncationMode = TruncationMode.CACHE_SUPPORTED,
        *,
        window: int | None = None,
        decay: float = 1.0,
    ):
        if mode is TruncationMode.WINDOW:
            if window is None or window <= 0:
                raise ConfigError("WINDOW truncation requires a positive window")
        elif window is not None:
            raise ConfigError("window is only meaningful with TruncationMode.WINDOW")
        if not (0.0 < decay <= 1.0):
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        self._mode = mode
        self._window = window
        self._decay = decay
        self._tick = 0  # number of arrivals recorded

        self._entries: dict[FileBundle, HistoryEntry] = {}
        self._degree: dict[FileId, int] = {}
        self._max_degree = 0  # degrees only grow, so the max is incremental
        # file -> entries whose bundle contains it; drives support updates
        self._by_file: dict[FileId, list[HistoryEntry]] = {}
        # incremental-structure subscribers (see add_listener)
        self._listeners: list = []
        self._resident: set[FileId] = set()

        # the candidate index (see the module docstring)
        self._candidates: dict[int, HistoryEntry] = {}
        self._holders: dict[FileId, dict[int, HistoryEntry]] = {}
        self._multi: set[FileId] = set()  # files two or more candidates hold

        # WINDOW bookkeeping
        self._window_arrivals: deque[FileBundle] = deque()
        self._window_counts: dict[FileBundle, int] = {}

    # ------------------------------------------------------------------ #
    # recording arrivals

    def record(self, bundle: FileBundle, *, weight: float = 1.0) -> HistoryEntry:
        """Record one arrival of ``bundle`` with importance ``weight``.

        Creates the entry (updating file degrees) on first sight; otherwise
        bumps the counter/value.  Returns the up-to-date entry.
        """
        if weight <= 0:
            raise ConfigError(f"weight must be positive, got {weight}")
        self._tick += 1
        entry = self._entries.get(bundle)
        if entry is None:
            entry = HistoryEntry(
                bundle=bundle, eid=len(self._entries), first_seen=self._tick
            )
            entry._last_decay_tick = self._tick
            self._register(entry)
            for listener in self._listeners:
                listener.on_entry_added(entry)
        self._apply_decay(entry)
        entry.value += weight
        entry.count += 1
        entry.last_seen = self._tick

        if self._mode is TruncationMode.WINDOW:
            self._window_arrivals.append(bundle)
            seen = self._window_counts.get(bundle, 0)
            self._window_counts[bundle] = seen + 1
            if not seen:
                self._admit(entry)
            assert self._window is not None
            while len(self._window_arrivals) > self._window:
                old = self._window_arrivals.popleft()
                remaining = self._window_counts[old] - 1
                if remaining:
                    self._window_counts[old] = remaining
                else:
                    del self._window_counts[old]
                    self._retire(self._entries[old])
        return entry

    def _register(self, entry: HistoryEntry) -> None:
        """Index a new entry's degrees, files, missing count and candidacy."""
        bundle = entry.bundle
        self._entries[bundle] = entry
        resident = self._resident
        missing = 0
        for f in bundle:
            d = self._degree.get(f, 0) + 1
            self._degree[f] = d
            if d > self._max_degree:
                self._max_degree = d
            self._by_file.setdefault(f, []).append(entry)
            if f not in resident:
                missing += 1
        entry.missing = missing
        mode = self._mode
        if mode is TruncationMode.FULL or (
            mode is TruncationMode.CACHE_SUPPORTED and not missing
        ):
            self._admit(entry)

    def _admit(self, entry: HistoryEntry) -> None:
        """Make ``entry`` a candidate; drop the shared-file tuples that
        change because one of its files gained a second holder."""
        eid = entry.eid
        self._candidates[eid] = entry
        entry._shared = None
        index = self._holders
        for f in entry.bundle:
            holders = index.setdefault(f, {})
            holders[eid] = entry
            if len(holders) == 2:
                self._multi.add(f)
                for other in holders.values():
                    other._shared = None

    def _retire(self, entry: HistoryEntry) -> None:
        """Withdraw a candidate; the inverse of :meth:`_admit`."""
        eid = entry.eid
        del self._candidates[eid]
        index = self._holders
        for f in entry.bundle:
            holders = index[f]
            del holders[eid]
            if len(holders) == 1:
                self._multi.discard(f)
                for other in holders.values():
                    other._shared = None
            elif not holders:
                del index[f]

    def _apply_decay(self, entry: HistoryEntry) -> None:
        if self._decay >= 1.0:
            return
        elapsed = self._tick - entry._last_decay_tick
        if elapsed > 0:
            entry.value *= self._decay**elapsed
        entry._last_decay_tick = self._tick

    # ------------------------------------------------------------------ #
    # resident-set notifications (CACHE_SUPPORTED truncation)

    def on_file_loaded(self, file_id: FileId) -> None:
        """Tell the history a file became resident in the cache."""
        if file_id in self._resident:
            return
        self._resident.add(file_id)
        track = self._mode is TruncationMode.CACHE_SUPPORTED
        for entry in self._by_file.get(file_id, ()):
            left = entry.missing - 1
            entry.missing = left
            if not left and track:
                self._admit(entry)

    def on_file_evicted(self, file_id: FileId) -> None:
        """Tell the history a file left the cache."""
        if file_id not in self._resident:
            return
        self._resident.discard(file_id)
        track = self._mode is TruncationMode.CACHE_SUPPORTED
        for entry in self._by_file.get(file_id, ()):
            if not entry.missing and track:
                self._retire(entry)
            entry.missing += 1

    def sync_resident(self, resident: Iterable[FileId]) -> None:
        """Replace the resident view wholesale (used at (re)initialisation).

        Sorted so the candidate index is rebuilt in a reproducible
        insertion order regardless of the set hash seed.
        """
        target = set(resident)
        for f in sorted(self._resident - target):
            self.on_file_evicted(f)
        for f in sorted(target - self._resident):
            self.on_file_loaded(f)

    # ------------------------------------------------------------------ #
    # incremental-structure subscription

    def add_listener(self, listener) -> None:
        """Subscribe an incremental structure to new-entry events.

        ``listener.on_entry_added(entry)`` is invoked once per *new*
        request type, after the entry, its degrees and its support state
        are fully registered.  Entries already present at subscription
        time are replayed immediately (in ``eid`` order), so a listener
        may attach to a warm history.
        """
        for entry in self._entries.values():
            listener.on_entry_added(entry)
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # queries

    @property
    def mode(self) -> TruncationMode:
        return self._mode

    @property
    def decay(self) -> float:
        """The per-arrival value decay factor (1.0 = no decay)."""
        return self._decay

    @property
    def arrivals(self) -> int:
        """Total number of arrivals recorded."""
        return self._tick

    def __len__(self) -> int:
        """Number of distinct request types in the global history."""
        return len(self._entries)

    def __contains__(self, bundle: FileBundle) -> bool:
        return bundle in self._entries

    def entry(self, bundle: FileBundle) -> HistoryEntry:
        return self._entries[bundle]

    def value_of(self, bundle: FileBundle) -> float:
        """Current (decayed) value ``v(r)``; 0.0 for unseen bundles."""
        entry = self._entries.get(bundle)
        if entry is None:
            return 0.0
        self._apply_decay(entry)
        return entry.value

    def degree(self, file_id: FileId) -> int:
        """``d(f)``: number of distinct request types using ``file_id``."""
        return self._degree.get(file_id, 0)

    def degrees(self) -> dict[FileId, int]:
        """A copy of the full degree mapping."""
        return dict(self._degree)

    def max_degree(self) -> int:
        """``d``: the largest file degree in the history (0 when empty).

        Maintained incrementally in :meth:`record` (degrees only ever
        grow), so this is O(1) rather than a scan over all files.
        """
        return self._max_degree

    def entries(self) -> list[HistoryEntry]:
        """All entries of the global history (no truncation)."""
        return list(self._entries.values())

    def candidates(self) -> list[HistoryEntry]:
        """Entries eligible for ``OptCacheSelect`` under the truncation mode.

        For ``CACHE_SUPPORTED``, these are exactly the request types whose
        files are all currently resident according to the notifications the
        caller delivered, in first-seen order; under ``WINDOW`` they follow
        the window's first-arrival order.  Read from the candidate index —
        O(|candidates|), never a filter over the whole history.
        """
        candidates = self._candidates
        if self._mode is TruncationMode.CACHE_SUPPORTED:
            result = [candidates[eid] for eid in sorted(candidates)]
        else:
            result = list(candidates.values())
        if self._decay < 1.0:
            for entry in result:
                self._apply_decay(entry)
        return result

    def shared_files(
        self, candidates: Sequence[HistoryEntry]
    ) -> list[tuple[FileId, ...]]:
        """Per candidate, its files that another candidate also holds.

        In bundle order (sorted, as :class:`FileBundle` iterates); cached on
        the entry until one of its files crosses the 1↔2 holder boundary.
        """
        result = [entry._shared for entry in candidates]
        if None in result:
            for k, entry in enumerate(candidates):
                if result[k] is None:
                    entry._shared = tuple(sorted(entry.bundle.files & self._multi))
                    result[k] = entry._shared
        return result  # type: ignore[return-value]

    def candidate_index(self) -> Mapping[FileId, Mapping[int, HistoryEntry]]:
        """``file → {eid: entry}`` over the candidates (live; read only)."""
        return self._holders

    def entries_with(self, file_id: FileId) -> Sequence[HistoryEntry]:
        """Every entry whose bundle holds ``file_id``, in ``eid`` order."""
        return self._by_file.get(file_id, ())

    def supported(self, bundle: FileBundle) -> bool:
        """Whether every file of a known bundle is currently resident."""
        entry = self._entries.get(bundle)
        if entry is None:
            return bundle.issubset(self._resident)
        return entry.missing == 0

    def resident_within(self, resident: AbstractSet[FileId]) -> bool:
        """Whether every file this history believes resident is in ``resident``.

        The notifications can lag the cache (a fault evicting a file the
        planner was never told about); when they do, a ``CACHE_SUPPORTED``
        candidate may name files the cache no longer holds.  ``<=`` stays
        in C for a set or a dict keys view and copies neither.
        """
        return self._resident <= resident

    def resident_view(self) -> frozenset[FileId]:
        """The resident set as last synchronised (debug/verification aid)."""
        return frozenset(self._resident)

    # ------------------------------------------------------------------ #
    # durable state (checkpoint/restore)

    def export_state(self) -> dict:
        """JSON-able snapshot restoring byte-identical future behaviour.

        Only primary state is serialized: entries in ``eid`` order (their
        dict insertion order), the arrival tick, the resident view and the
        window structures.  Degrees, the per-file index and the supported
        index are derived and rebuilt on :meth:`restore`.  The window
        *count* mapping is exported with its key order because
        :meth:`candidates` iterates it — the order is not derivable from
        the arrivals deque.
        """
        entries = [
            {
                "files": sorted(e.bundle.files),
                "value": e.value,
                "count": e.count,
                "first_seen": e.first_seen,
                "last_seen": e.last_seen,
                "decay_tick": e._last_decay_tick,
            }
            for e in self._entries.values()
        ]
        return {
            "mode": self._mode.value,
            "window": self._window,
            "decay": self._decay,
            "tick": self._tick,
            "entries": entries,
            "resident": sorted(self._resident),
            "window_arrivals": [sorted(b.files) for b in self._window_arrivals],
            "window_counts": [
                [sorted(b.files), n] for b, n in self._window_counts.items()
            ],
        }

    @classmethod
    def restore(cls, state: dict) -> "RequestHistory":
        """Rebuild a history from an :meth:`export_state` snapshot."""
        hist = cls(
            TruncationMode(state["mode"]),
            window=state["window"],
            decay=float(state["decay"]),
        )
        hist._resident = set(str(f) for f in state["resident"])
        for rec in state["entries"]:
            entry = HistoryEntry(
                bundle=FileBundle(rec["files"]),
                eid=len(hist._entries),
                value=float(rec["value"]),
                count=int(rec["count"]),
                first_seen=int(rec["first_seen"]),
                last_seen=int(rec["last_seen"]),
            )
            entry._last_decay_tick = int(rec["decay_tick"])
            hist._register(entry)
        hist._tick = int(state["tick"])
        for files in state["window_arrivals"]:
            hist._window_arrivals.append(FileBundle(files))
        for files, n in state["window_counts"]:
            bundle = FileBundle(files)
            hist._window_counts[bundle] = int(n)
            hist._admit(hist._entries[bundle])
        return hist
