"""Cache occupancy state with exact byte accounting.

:class:`CacheState` is the single source of truth for what is resident and
how many bytes were moved.  Policies mutate it only through
:meth:`load` / :meth:`evict`, which maintain the invariants

* ``used == sum(size of residents)``,
* ``0 <= used <= capacity``,
* a file is resident at most once,

and accumulate the load/eviction counters the metrics layer reads.
"""

from __future__ import annotations

from typing import Iterable, KeysView

from repro.core.bundle import FileBundle
from repro.errors import (
    CacheCapacityError,
    ConfigError,
    DuplicateFileError,
    StateInvariantError,
    UnknownFileError,
)
from repro.types import FileId, SizeBytes

__all__ = ["CacheState"]


class CacheState:
    """A fixed-capacity disk cache holding whole files.

    Parameters
    ----------
    capacity:
        Cache size ``s(C)`` in bytes (positive).
    """

    __slots__ = (
        "_capacity",
        "_resident",
        "_used",
        "_pins",
        "_reserved",
        "load_count",
        "evict_count",
        "bytes_loaded",
        "bytes_evicted",
    )

    def __init__(self, capacity: SizeBytes):
        if capacity <= 0:
            raise ConfigError(f"cache capacity must be positive, got {capacity}")
        self._capacity: SizeBytes = int(capacity)
        self._resident: dict[FileId, SizeBytes] = {}
        self._used: SizeBytes = 0
        # SRM-style pinning: reference counts of files in use by jobs, and
        # byte reservations for in-flight staging.  Pinned files cannot be
        # evicted; reserved bytes are not available for new reservations.
        self._pins: dict[FileId, int] = {}
        self._reserved: SizeBytes = 0
        self.load_count: int = 0
        self.evict_count: int = 0
        self.bytes_loaded: SizeBytes = 0
        self.bytes_evicted: SizeBytes = 0

    # ------------------------------------------------------------------ #
    # mutation

    def load(self, file_id: FileId, size: SizeBytes) -> None:
        """Bring a file into the cache.

        Raises :class:`DuplicateFileError` if already resident and
        :class:`CacheCapacityError` if it does not fit.
        """
        if size <= 0:
            raise ConfigError(f"file size must be positive, got {size}")
        if file_id in self._resident:
            raise DuplicateFileError(f"file {file_id!r} is already resident")
        if self._used + size > self._capacity:
            raise CacheCapacityError(size, self._capacity - self._used)
        self._resident[file_id] = size
        self._used += size
        self.load_count += 1
        self.bytes_loaded += size

    def evict(self, file_id: FileId) -> SizeBytes:
        """Remove a resident file; returns its size.

        Raises :class:`UnknownFileError` if the file is not resident and
        :class:`~repro.errors.PolicyError` if it is pinned.
        """
        if self._pins.get(file_id, 0) > 0:
            from repro.errors import PolicyError

            raise PolicyError(f"file {file_id!r} is pinned and cannot be evicted")
        try:
            size = self._resident.pop(file_id)
        except KeyError:
            raise UnknownFileError(f"file {file_id!r} is not resident") from None
        self._used -= size
        self.evict_count += 1
        self.bytes_evicted += size
        return size

    # ------------------------------------------------------------------ #
    # pinning and reservations (SRM semantics)

    def pin(self, file_id: FileId) -> None:
        """Pin a resident file against eviction (reference counted)."""
        if file_id not in self._resident:
            raise UnknownFileError(f"file {file_id!r} is not resident")
        self._pins[file_id] = self._pins.get(file_id, 0) + 1

    def unpin(self, file_id: FileId) -> None:
        """Release one pin of a file."""
        count = self._pins.get(file_id, 0)
        if count <= 0:
            raise UnknownFileError(f"file {file_id!r} is not pinned")
        if count == 1:
            del self._pins[file_id]
        else:
            self._pins[file_id] = count - 1

    def is_pinned(self, file_id: FileId) -> bool:
        return self._pins.get(file_id, 0) > 0

    def pinned_files(self) -> frozenset[FileId]:
        return frozenset(self._pins)

    def reserve(self, nbytes: SizeBytes) -> None:
        """Reserve free space for in-flight staging (release when loaded)."""
        if nbytes < 0:
            raise ConfigError(f"reservation must be non-negative, got {nbytes}")
        if self._used + self._reserved + nbytes > self._capacity:
            raise CacheCapacityError(
                nbytes, self._capacity - self._used - self._reserved
            )
        self._reserved += nbytes

    def release(self, nbytes: SizeBytes) -> None:
        """Release a reservation (typically when the staged file lands)."""
        if nbytes < 0 or nbytes > self._reserved:
            raise ConfigError(
                f"cannot release {nbytes} of {self._reserved} reserved bytes"
            )
        self._reserved -= nbytes

    @property
    def reserved(self) -> SizeBytes:
        return self._reserved

    @property
    def available(self) -> SizeBytes:
        """Free bytes not claimed by reservations."""
        return self._capacity - self._used - self._reserved

    # ------------------------------------------------------------------ #
    # queries

    @property
    def capacity(self) -> SizeBytes:
        return self._capacity

    @property
    def used(self) -> SizeBytes:
        """Bytes currently occupied."""
        return self._used

    @property
    def free(self) -> SizeBytes:
        """Bytes currently available."""
        return self._capacity - self._used

    def __contains__(self, file_id: object) -> bool:
        return file_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def residents(self) -> KeysView[FileId]:
        """A live view of resident file ids."""
        return self._resident.keys()

    def size_of(self, file_id: FileId) -> SizeBytes:
        """Size of a resident file."""
        try:
            return self._resident[file_id]
        except KeyError:
            raise UnknownFileError(f"file {file_id!r} is not resident") from None

    def missing(self, bundle: FileBundle) -> frozenset[FileId]:
        """The bundle's files that are not resident."""
        return bundle.missing_from(self._resident.keys())

    def supports(self, bundle: FileBundle) -> bool:
        """True when all files of the bundle are resident (a request-hit)."""
        return bundle.issubset(self._resident.keys())

    def resident_bytes(self, file_ids: Iterable[FileId]) -> SizeBytes:
        """Total size of the given files that are resident."""
        res = self._resident
        return sum(res[f] for f in file_ids if f in res)

    # ------------------------------------------------------------------ #
    # durable state (checkpoint/restore)

    def export_state(self) -> dict:
        """JSON-able snapshot of residency (in insertion order) + counters."""
        return {
            "capacity": self._capacity,
            "resident": [[fid, size] for fid, size in self._resident.items()],
            "pins": dict(self._pins),
            "reserved": self._reserved,
            "load_count": self.load_count,
            "evict_count": self.evict_count,
            "bytes_loaded": self.bytes_loaded,
            "bytes_evicted": self.bytes_evicted,
        }

    @classmethod
    def restore(cls, state: dict) -> "CacheState":
        """Rebuild a cache from an :meth:`export_state` snapshot.

        Residency insertion order is preserved (``residents()`` iteration
        order feeds policy victim scans), and the byte counters resume
        exactly, so post-restore accounting matches an uninterrupted run.
        """
        cache = cls(int(state["capacity"]))
        for fid, size in state["resident"]:
            cache._resident[str(fid)] = int(size)
        cache._used = sum(cache._resident.values())
        cache._pins = {str(f): int(n) for f, n in state["pins"].items()}
        cache._reserved = int(state["reserved"])
        cache.load_count = int(state["load_count"])
        cache.evict_count = int(state["evict_count"])
        cache.bytes_loaded = int(state["bytes_loaded"])
        cache.bytes_evicted = int(state["bytes_evicted"])
        cache.check_invariants()
        return cache

    def check_invariants(self) -> None:
        """Assert internal consistency (used by tests and debug runs).

        Raises :class:`~repro.errors.StateInvariantError` (an
        ``AssertionError`` subclass, preserving the historical contract).
        """
        total = sum(self._resident.values())
        if total != self._used:
            raise StateInvariantError(
                f"used={self._used} but residents sum to {total}"
            )
        if not (0 <= self._used <= self._capacity):
            raise StateInvariantError(
                f"used={self._used} outside [0, {self._capacity}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheState(capacity={self._capacity}, used={self._used}, "
            f"files={len(self._resident)})"
        )
