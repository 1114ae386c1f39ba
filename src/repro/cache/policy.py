"""The replacement-policy interface shared by all algorithms.

Contract
--------
The simulator drives a policy like this for every job::

    policy.bind(cache, sizes)            # once
    ...
    decision = policy.on_request(bundle) # policy evicts via the cache here
    # simulator verifies space, loads bundle's missing files + decision.prefetch
    policy.on_serviced(bundle, loaded, hit)

``on_request`` must leave enough free space for the bundle's missing files
plus any prefetch it asks for; it must never evict a file of the bundle
itself.  The simulator — not the policy — performs the loads, so byte
accounting is identical for every algorithm.  Files pinned by
concurrent jobs are never victims; when the pins leave too little room,
``on_request`` raises before its first eviction, and a driver that pins
(the timed SRM) asks :meth:`~ReplacementPolicy.blocked_by_pins` first.
A job given up before its loads all arrived ends in ``on_abandoned``
instead of ``on_serviced``.

:class:`PerFilePolicy` factors the eviction loop common to the classical
per-file algorithms (LRU, LFU, FIFO, …): subclasses only implement victim
choice and bookkeeping hooks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping

from repro.cache.state import CacheState
from repro.core.bundle import FileBundle
from repro.errors import PolicyError
from repro.telemetry import FileEvicted, PlanComputed, current_recorder
from repro.telemetry.recorder import NULL_RECORDER, TraceRecorder
from repro.types import FileId, SizeBytes

__all__ = ["PolicyDecision", "ReplacementPolicy", "PerFilePolicy"]


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy decided for one request.

    ``prefetch`` lists non-requested files the policy wants loaded as well
    (used by OptFileBundle under full-history truncation); ``evicted``
    reports the files the policy removed while making room.
    """

    prefetch: frozenset[FileId] = frozenset()
    evicted: frozenset[FileId] = frozenset()


class ReplacementPolicy(abc.ABC):
    """Abstract base class of all cache replacement policies."""

    #: short machine name used by the registry / CLI / result tables
    name: str = "abstract"

    def __init__(self) -> None:
        self._cache: CacheState | None = None
        self._sizes: Mapping[FileId, SizeBytes] | None = None
        self._recorder: TraceRecorder = NULL_RECORDER

    # ------------------------------------------------------------------ #

    def bind(self, cache: CacheState, sizes: Mapping[FileId, SizeBytes]) -> None:
        """Attach the policy to a cache and a file-size oracle (once).

        The ambient telemetry recorder is captured here (binding happens
        inside the simulator's recorder context), so per-decision events
        cost one attribute check when telemetry is off.
        """
        if self._cache is not None:
            raise PolicyError(f"policy {self.name!r} is already bound")
        self._cache = cache
        self._sizes = sizes
        self._recorder = current_recorder()

    @property
    def cache(self) -> CacheState:
        if self._cache is None:
            raise PolicyError(f"policy {self.name!r} is not bound to a cache")
        return self._cache

    @property
    def sizes(self) -> Mapping[FileId, SizeBytes]:
        if self._sizes is None:
            raise PolicyError(f"policy {self.name!r} is not bound to a cache")
        return self._sizes

    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def on_request(self, bundle: FileBundle) -> PolicyDecision:
        """Make room for the bundle's missing files (evicting via the cache)."""

    def on_serviced(
        self, bundle: FileBundle, loaded: frozenset[FileId], hit: bool
    ) -> None:
        """Notification that the request was serviced and files loaded."""

    def on_abandoned(self, loaded: frozenset[FileId]) -> None:
        """A decided request was given up before all its loads arrived.

        ``loaded`` are the files that did arrive; they stay resident and
        evictable, so by default they are booked as a missed request's
        loads.
        """
        if loaded:
            self.on_serviced(FileBundle(sorted(loaded)), loaded, False)

    def blocked_by_pins(self, bundle: FileBundle) -> bool:
        """Would pinned files keep :meth:`on_request` from making room?

        A driver that pins files (the timed SRM) asks before it starts a
        job, so a blocked start decides, evicts and emits nothing.  False
        when nothing is pinned, and for a bundle larger than the whole
        cache, which is unserviceable rather than blocked.
        """
        cache = self.cache
        pinned = cache.pinned_files()
        if not pinned or bundle.size_under(self.sizes) > cache.capacity:
            return False
        return self._lacks_room(bundle, pinned)

    def score(self, bundle: FileBundle) -> float | None:
        """Optional queue-scheduling priority of a bundle (higher first).

        Policies without a natural notion of request value return ``None``
        and the admission queue falls back to its non-policy disciplines.
        """
        return None

    @property
    def recorder(self) -> TraceRecorder:
        """The telemetry recorder captured at :meth:`bind` time."""
        return self._recorder

    def reset(self) -> None:
        """Detach from the cache so the policy object can be re-bound."""
        self._cache = None
        self._sizes = None
        self._recorder = NULL_RECORDER

    # ------------------------------------------------------------------ #
    # durable state (checkpoint/restore)

    def export_state(self) -> dict:
        """JSON-able snapshot of the policy's mutable decision state.

        The contract is exact restoration: constructing the same policy
        (same registry name and kwargs), binding it to a byte-identical
        cache, then :meth:`import_state`-ing this snapshot must reproduce
        every future decision the original object would have made —
        including heap tiebreak order.  Containers must round-trip
        through canonical JSON (string keys, no sets, exact floats).
        """
        return {}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`export_state` (call after bind)."""
        if state:
            raise PolicyError(
                f"policy {self.name!r} carries no durable state but got "
                f"keys {sorted(state)}"
            )

    # ------------------------------------------------------------------ #
    # shared helpers

    def _needed_bytes(self, bundle: FileBundle) -> SizeBytes:
        missing = self.cache.missing(bundle)
        return sum(self.sizes[f] for f in missing)

    def _room(self, bundle: FileBundle, pinned: frozenset[FileId]) -> SizeBytes:
        """Free bytes plus the resident bytes outside ``bundle`` and ``pinned``."""
        cache = self.cache
        return cache.free + sum(
            cache.size_of(f)
            for f in cache.residents()
            if f not in pinned and f not in bundle
        )

    def _lacks_room(self, bundle: FileBundle, pinned: frozenset[FileId]) -> bool:
        """Can no choice of victims outside ``pinned`` fit the bundle?"""
        return self._room(bundle, pinned) < self._needed_bytes(bundle)


class PerFilePolicy(ReplacementPolicy):
    """Base class for classical per-file policies.

    Implements ``on_request`` as: evict victims (never files of the current
    bundle) until the missing files fit.  Subclasses implement
    :meth:`_pick_victim` and may override the bookkeeping hooks
    :meth:`_note_evicted` / :meth:`_note_access`.
    """

    def on_request(self, bundle: FileBundle) -> PolicyDecision:
        cache = self.cache
        rec = self._recorder
        needed = self._needed_bytes(bundle)
        evicted: set[FileId] = set()
        pinned = cache.pinned_files()
        if pinned and cache.free < needed and self._room(bundle, pinned) < needed:
            # checked before the first eviction: a start blocked by the
            # pins of concurrent jobs must leave the cache as it found it
            raise PolicyError(
                f"{self.name}: pinned files leave too little evictable space "
                f"for {needed} bytes"
            )
        with rec.span("cache.evict"):
            while cache.free < needed:
                exclude = bundle.files | pinned if pinned else bundle.files
                victim = self._pick_victim(exclude)
                if victim is None:
                    raise PolicyError(
                        f"{self.name}: no evictable victim but "
                        f"{needed - cache.free} bytes still needed"
                    )
                if victim in bundle:
                    raise PolicyError(
                        f"{self.name}: attempted to evict requested file {victim!r}"
                    )
                if rec.active:
                    # detail must be read before the bookkeeping hook drops it
                    rec.emit(
                        FileEvicted(
                            file=str(victim),
                            bytes=self.sizes[victim],
                            policy=self.name,
                            detail=self._evict_detail(victim),
                        )
                    )
                cache.evict(victim)
                evicted.add(victim)
                self._note_evicted(victim)
        if rec.active:
            # Per-file policies never prefetch; loads is what the simulator
            # will admit for this bundle.  Emitting the same PlanComputed
            # event OptFileBundle emits keeps traces of *all* policies
            # alignable by the forensics diff tool.
            missing = cache.missing(bundle)
            rec.emit(
                PlanComputed(
                    policy=self.name,
                    loads=len(missing),
                    prefetches=0,
                    evictions=len(evicted),
                    hit=not missing,
                )
            )
        return PolicyDecision(evicted=frozenset(evicted))

    def on_serviced(
        self, bundle: FileBundle, loaded: frozenset[FileId], hit: bool
    ) -> None:
        for f in bundle:
            self._note_access(f, f in loaded)

    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _pick_victim(self, exclude: frozenset[FileId]) -> FileId | None:
        """Choose a resident file outside ``exclude`` to evict (or None)."""

    def _note_evicted(self, file_id: FileId) -> None:
        """Bookkeeping hook: a victim left the cache."""

    def _note_access(self, file_id: FileId, was_loaded: bool) -> None:
        """Bookkeeping hook: a requested file was accessed (hit or load)."""

    def _evict_detail(self, file_id: FileId) -> dict | None:
        """Telemetry hook: the policy's rationale for evicting ``file_id``.

        Called just before the eviction (while per-file state is still
        present) and only when tracing is on.  Values must be
        deterministic functions of the simulation (no host state).
        """
        return None
