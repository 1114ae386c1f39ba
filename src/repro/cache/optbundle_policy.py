"""Policy adapter wiring :class:`OptFileBundlePlanner` into the simulator.

Translates the planner's :class:`~repro.core.optfilebundle.LoadPlan` into
the :class:`~repro.cache.policy.ReplacementPolicy` contract: evictions are
applied to the cache inside :meth:`on_request`, prefetches are handed back
to the simulator, and the history commit happens in :meth:`on_serviced`
(Algorithm 2's Step 4 — after the request was actually served).
"""

from __future__ import annotations

from typing import Mapping

from repro.cache.policy import PolicyDecision, ReplacementPolicy
from repro.cache.state import CacheState
from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory, TruncationMode
from repro.core.optfilebundle import LoadPlan, OptFileBundlePlanner
from repro.errors import CacheCapacityError, PolicyError
from repro.telemetry import FileEvicted, PlanComputed
from repro.types import FileId, SizeBytes

__all__ = ["OptFileBundlePolicy"]


class OptFileBundlePolicy(ReplacementPolicy):
    """The paper's OptFileBundle algorithm behind the policy interface.

    Keyword arguments mirror :class:`OptFileBundlePlanner`; see there for
    semantics of ``truncation``/``window``/``refine``/``safeguard``/
    ``decay``/``eager_evict``.
    """

    name = "optbundle"

    def __init__(
        self,
        *,
        truncation: TruncationMode = TruncationMode.CACHE_SUPPORTED,
        window: int | None = None,
        refine: bool = True,
        safeguard: bool = True,
        decay: float = 1.0,
        eager_evict: bool = False,
        degree_blind: bool = False,
        incremental: bool = True,
    ) -> None:
        super().__init__()
        self._planner_kwargs = dict(
            truncation=truncation,
            window=window,
            refine=refine,
            safeguard=safeguard,
            decay=decay,
            eager_evict=eager_evict,
            degree_blind=degree_blind,
            incremental=incremental,
        )
        self._planner: OptFileBundlePlanner | None = None
        self._last_plan: LoadPlan | None = None

    def bind(self, cache: CacheState, sizes: Mapping[FileId, SizeBytes]) -> None:
        super().bind(cache, sizes)
        self._planner = OptFileBundlePlanner(
            cache.capacity, sizes, **self._planner_kwargs
        )
        self._planner.history.sync_resident(cache.residents())

    @property
    def planner(self) -> OptFileBundlePlanner:
        if self._planner is None:
            raise PolicyError("optbundle policy is not bound to a cache")
        return self._planner

    @property
    def history(self) -> RequestHistory:
        return self.planner.history

    # ------------------------------------------------------------------ #

    def on_request(self, bundle: FileBundle) -> PolicyDecision:
        cache = self.cache
        plan = self.planner.plan(
            bundle, cache.residents(), cache.used, pinned=cache.pinned_files()
        )
        rec = self._recorder
        if rec.active:
            degree = self.planner.history.degree
            for f in sorted(plan.evict):
                # degree is read pre-commit: the candidate support that
                # justified dropping f, before this arrival re-records it
                rec.emit(
                    FileEvicted(
                        file=str(f),
                        bytes=self.sizes[f],
                        policy=self.name,
                        detail={"degree": degree(f)},
                    )
                )
            rec.emit(
                PlanComputed(
                    policy=self.name,
                    loads=len(plan.load),
                    prefetches=len(plan.prefetch),
                    evictions=len(plan.evict),
                    hit=plan.request_hit,
                )
            )
        with rec.span("cache.evict"):
            for f in plan.evict:
                self.cache.evict(f)
        # Commit (Algorithm 2 Step 4) immediately: the decision was taken
        # against the pre-record history either way, and committing here
        # keeps the history's resident view correct when a timed SRM
        # pipelines the next request's decision before this job completes.
        self.planner.commit(plan)
        self._last_plan = plan
        return PolicyDecision(prefetch=plan.prefetch, evicted=plan.evict)

    def on_serviced(
        self, bundle: FileBundle, loaded: frozenset[FileId], hit: bool
    ) -> None:
        """No-op: the plan was already committed in :meth:`on_request`."""

    def on_abandoned(self, loaded: frozenset[FileId]) -> None:
        """Forget the committed loads that never arrived.

        :meth:`on_request` told the history that every planned load is
        resident; without this resync a cache-supported history would
        keep selecting around files the cache does not hold, and prefetch
        them on later plans.
        """
        self.history.sync_resident(self.cache.residents())

    def _lacks_room(self, bundle: FileBundle, pinned: frozenset[FileId]) -> bool:
        # the plan, not the demand bytes alone, decides: its kept files
        # and prefetches count against the room too
        cache = self.cache
        try:
            self.planner.plan(bundle, cache.residents(), cache.used, pinned=pinned)
        except CacheCapacityError:
            return True
        return False

    @property
    def last_plan(self) -> LoadPlan | None:
        """The most recent load plan (observability/debugging aid)."""
        return self._last_plan

    def score(self, bundle: FileBundle) -> float | None:
        return self.planner.score(bundle)

    def reset(self) -> None:
        super().reset()
        self._planner = None
        self._last_plan = None

    def export_state(self) -> dict:
        # the planner's only mutable state is its history (the selection
        # state is derived and rebuilt on adopt_history)
        return {"history": self.planner.history.export_state()}

    def import_state(self, state: dict) -> None:
        self.planner.adopt_history(RequestHistory.restore(state["history"]))
