"""Persistent, incrementally-maintained selection state for ``OptFileBundle``.

Section 1.2 of the paper requires the replacement decision to be evaluated
"in an almost negligible time relative to the time it takes to cache an
object".  The from-scratch path (:func:`repro.core.optcacheselect.opt_cache_select`
over :meth:`FBCInstance.from_history`) rebuilds, on *every* arrival, the
candidate list, the effective degrees and adjusted sizes ``s(f)/d(f)``,
an inverted file → candidate index and the per-candidate residual sizes,
all of which change only slowly between arrivals.

:class:`SelectionState` keeps the degree-derived part alive across plans:
it subscribes to :meth:`RequestHistory.add_listener`, so a *new* request
type refreshes the adjusted sizes of exactly the files whose degree
changed (degrees only ever grow) and marks stale the cached base sizes
of the entries holding them.  Everything candidate-shaped comes from the history's
candidate index: the candidates themselves and, per candidate, the tuple
of files another candidate also holds.  A plan therefore costs
O(|candidates| + shared memberships): the shared greedy
(:func:`repro.core.optcacheselect._greedy`) charges a chosen candidate's
private files in one step and walks only its shared ones.

Bit-for-bit equivalence with the from-scratch path
--------------------------------------------------
The differential tests require :meth:`select` to return *byte-for-byte*
the same :class:`CacheSelection` as ``opt_cache_select`` on a freshly built
instance.  Floating-point addition is not associative, so a cached
per-bundle adjusted size is **recomputed in bundle iteration order** when
first read after a member file's degree changes (never updated by a
delta), and
bundles overlapping the per-call ``free`` set get their residual sizes
recomputed the same way the from-scratch loop accumulates them.  Every sum
here therefore reproduces the exact float the rebuild path produces.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from repro.core.history import HistoryEntry, RequestHistory
from repro.core.optcacheselect import CacheSelection, _empty_selection, _greedy
from repro.errors import StateInvariantError
from repro.telemetry import current_recorder
from repro.types import FileId, SizeBytes

__all__ = ["SelectionState"]

_STALE = -1.0


class SelectionState:
    """Incremental backing store for the refined ``OptCacheSelect`` greedy.

    Parameters
    ----------
    history:
        The planner's ``L(R)``; the state subscribes itself as a listener
        and replays any entries already recorded.
    sizes:
        File-size oracle ``s(f)``; must cover every file the history will
        ever record (the same oracle handed to the planner).

    Notes
    -----
    The state only caches *degree-derived* quantities (adjusted sizes and
    per-bundle base sizes).  Values, decay, candidate membership and the
    shared files are read from the history per call, so fault-injected
    eviction notifications and window churn need no dedicated
    synchronisation.
    """

    def __init__(self, history: RequestHistory, sizes: Mapping[FileId, SizeBytes]):
        self._history = history
        self._sizes = sizes
        self._recorder = current_recorder()
        # s(f) / d(f) under the *global* degrees; refreshed on degree change
        self._adj_size: dict[FileId, float] = {}
        # per-eid cached quantities, indexed by entry id; a base adjusted
        # size is _STALE (sizes are positive) until next read after a
        # degree change
        self._bundles: list = []
        self._base_adj: list[float] = []
        self._base_real: list[float] = []
        history.add_listener(self)

    # ------------------------------------------------------------------ #
    # history events

    def on_entry_added(self, entry: HistoryEntry) -> None:
        """Register a new request type (degrees of its files just grew)."""
        eid = entry.eid
        if eid != len(self._bundles):  # pragma: no cover - defensive
            raise StateInvariantError(
                f"entry id {eid} out of sync with state size {len(self._bundles)}"
            )
        bundle = entry.bundle
        sizes = self._sizes
        history = self._history
        base_adj = self._base_adj
        self._bundles.append(bundle)
        base_adj.append(_STALE)
        self._base_real.append(float(bundle.size_under(sizes)))
        for f in bundle:
            self._adj_size[f] = sizes[f] / max(1, history.degree(f))
            for other in history.entries_with(f):
                if other.eid >= eid:
                    break  # later entries of a warm history are replayed next
                base_adj[other.eid] = _STALE

    def _refresh_adj(self, eid: int) -> float:
        """Recompute one bundle's base adjusted size in bundle iteration order.

        Full recomputation (not a delta) so the cached float equals the
        left-to-right sum the from-scratch path accumulates.
        """
        adj = self._adj_size
        a = 0.0
        for f in self._bundles[eid]:
            a += adj[f]
        self._base_adj[eid] = a
        return a

    # ------------------------------------------------------------------ #
    # selection

    def select(
        self,
        budget: SizeBytes,
        *,
        free: AbstractSet[FileId] = frozenset(),
        safeguard: bool = True,
    ) -> CacheSelection:
        """Refined greedy over the current candidates, incremental edition.

        Feeds :func:`repro.core.optcacheselect._greedy` the same inputs
        :func:`~repro.core.optcacheselect._select_refined` builds, but
        draws ``adj_size``, the base residual sizes and the shared files
        from the persistent state and the history's candidate index; only
        candidates sharing a file with ``free`` (the arriving bundle) have
        their residuals recomputed for this call.
        """
        with self._recorder.span("optbundle.select"):
            history = self._history
            entries = history.candidates()
            if not entries or budget <= 0:
                return _empty_selection()
            sizes = self._sizes
            adj = self._adj_size
            bundles = [e.bundle for e in entries]
            values = [e.value for e in entries]
            ids = [e.eid for e in entries]
            base_adj, base_real = self._base_adj, self._base_real
            rem_adj = [base_adj[eid] for eid in ids]
            if _STALE in rem_adj:
                for k, eid in enumerate(ids):
                    if rem_adj[k] == _STALE:
                        rem_adj[k] = self._refresh_adj(eid)
            rem_real = [base_real[eid] for eid in ids]
            index = history.candidate_index()
            pos = dict(zip(ids, range(len(ids))))
            affected: set[int] = set()
            # repro: allow[RPR003] only inserts into the `affected` set;
            # visit order cannot influence its final contents
            for f in free:
                affected.update(map(pos.__getitem__, index.get(f, ())))
            # each iteration rewrites only its own rem_* slot; sorted so
            # the (order-insensitive) maintenance is also reproducible
            for k in sorted(affected):
                a = r = 0.0
                for f in bundles[k]:
                    if f in free:
                        continue
                    a += adj[f]
                    r += sizes[f]
                rem_adj[k] = a
                rem_real[k] = r
            return _greedy(
                bundles, values, rem_adj, rem_real, history.shared_files(entries),
                index, pos, adj, sizes, free, budget, safeguard=safeguard,
            )
