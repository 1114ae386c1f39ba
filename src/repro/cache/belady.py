"""Offline farthest-next-use replacement (Belady's MIN, bundle-adapted).

Given the *entire* future request sequence, evict the resident file whose
next use lies farthest in the future (never-used-again files first).  For
single-file unit-size requests this is Belady's optimal MIN; for bundles and
variable sizes it is a strong heuristic lower-bound reference, not provably
optimal (FBC is NP-hard even offline).  The paper does not evaluate an
offline policy; this is provided as an extension baseline.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.cache.policy import PerFilePolicy
from repro.core.bundle import FileBundle
from repro.types import FileId

__all__ = ["BeladyPolicy"]

_NEVER = 1 << 62


class BeladyPolicy(PerFilePolicy):
    """Evict the file with the farthest next use in the known future."""

    name = "belady"

    def __init__(self, future: Sequence[FileBundle]) -> None:
        """``future`` is the full bundle sequence the simulator will replay."""
        super().__init__()
        self._occurrences: dict[FileId, list[int]] = {}
        for t, bundle in enumerate(future):
            for f in bundle:
                self._occurrences.setdefault(f, []).append(t)
        self._clock = -1  # index of the job currently being serviced

    def on_request(self, bundle: FileBundle):
        self._clock += 1
        return super().on_request(bundle)

    def _next_use(self, file_id: FileId) -> int:
        occ = self._occurrences.get(file_id)
        if not occ:
            return _NEVER
        i = bisect_right(occ, self._clock)
        return occ[i] if i < len(occ) else _NEVER

    def _pick_victim(self, exclude: frozenset[FileId]) -> FileId | None:
        best: FileId | None = None
        best_key: tuple[int, str] | None = None
        for fid in self.cache.residents():
            if fid in exclude:
                continue
            key = (self._next_use(fid), fid)
            if best_key is None or key > best_key:
                best_key = key
                best = fid
        return best

    def export_state(self) -> dict:
        # occurrences derive from the (replayable) future; only the clock
        # is genuinely mutable state
        return {"clock": self._clock}

    def import_state(self, state: dict) -> None:
        self._clock = int(state["clock"])
