"""``OptCacheSelect`` — the greedy FBC heuristic (Algorithm 1 of the paper).

Given a collection of candidate requests with values ``v(r)`` over files with
sizes ``s(f)`` and degrees ``d(f)``, select a subset of requests of maximum
total value whose files fit in a byte budget.  Requests are served in
decreasing order of *adjusted relative value*

.. math::

    v'(r) = \\frac{v(r)}{\\sum_{f \\in F(r)} s(f) / d(f)}

skipping requests whose files do not fit, and the final answer is the better
of the greedy set and the single highest-value request (Step 3) — the
comparison that yields the proven ``½(1 − e^{−1/d})`` guarantee.

Two variants are provided, selected by ``refine``:

* ``refine=False`` — the literal algorithm: one sort, each request charged
  the full size of its bundle (shared files charged once per request).
* ``refine=True`` (default) — the paper's "Note" improvement: after each
  selection the sizes of already-selected files are treated as zero and the
  remaining requests re-ranked, so requests sharing files with the current
  solution become cheaper.  Implemented incrementally over the files the
  candidates share (:func:`_greedy`), so a full re-sort per step is never
  materialised.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.core.bundle import FileBundle
from repro.core.history import RequestHistory
from repro.errors import ConfigError
from repro.types import FileId, SizeBytes

__all__ = ["FBCInstance", "CacheSelection", "opt_cache_select", "relative_value"]


@dataclass(frozen=True)
class FBCInstance:
    """One instance of the File-Bundle Caching problem.

    Attributes
    ----------
    bundles:
        Candidate request types.
    values:
        ``v(r)`` per candidate, parallel to ``bundles``.
    sizes:
        File sizes ``s(f)``; must cover every file referenced by a bundle.
    budget:
        Cache byte budget ``s(C)``.
    degrees:
        Optional file degrees ``d(f)``.  When omitted they are computed from
        the candidate bundles themselves; when selecting against a truncated
        candidate set, pass the *global* history degrees here (Section 5.2).
    """

    bundles: tuple[FileBundle, ...]
    values: tuple[float, ...]
    sizes: Mapping[FileId, SizeBytes]
    budget: SizeBytes
    degrees: Mapping[FileId, int] | None = None

    def __post_init__(self) -> None:
        if len(self.bundles) != len(self.values):
            raise ConfigError(
                f"{len(self.bundles)} bundles but {len(self.values)} values"
            )
        if self.budget < 0:
            raise ConfigError(f"budget must be non-negative, got {self.budget}")
        for v in self.values:
            if v <= 0:
                raise ConfigError(f"request values must be positive, got {v}")
        for bundle in self.bundles:
            for f in bundle:
                if f not in self.sizes:
                    raise ConfigError(f"no size known for file {f!r}")
                if self.sizes[f] <= 0:
                    raise ConfigError(f"file {f!r} has non-positive size")

    def __len__(self) -> int:
        return len(self.bundles)

    def effective_degrees(self, *, degree_blind: bool = False) -> dict[FileId, int]:
        """Degrees to use: supplied ones, else computed from the candidates.

        Supplied degrees are floored at the locally observed degree so a
        stale/partial mapping can never make an adjusted size non-positive.
        ``degree_blind=True`` returns all-ones — the ranking then uses raw
        file sizes (``v(r)/s(F(r))``), which the ranking ablation uses to
        isolate the contribution of the paper's ``s(f)/d(f)`` adjustment.
        """
        local: dict[FileId, int] = {}
        for bundle in self.bundles:
            for f in bundle:
                local[f] = local.get(f, 0) + 1
        if degree_blind:
            return {f: 1 for f in local}
        if self.degrees is None:
            return local
        return {f: max(local[f], int(self.degrees.get(f, 0))) for f in local}

    @staticmethod
    def trusted(
        bundles: tuple[FileBundle, ...],
        values: tuple[float, ...],
        sizes: Mapping[FileId, SizeBytes],
        budget: SizeBytes,
        degrees: Mapping[FileId, int] | None = None,
    ) -> "FBCInstance":
        """Construct without re-validating every (bundle, file) membership.

        ``__post_init__`` walks every file of every bundle; on the planner's
        hot path that validation re-proves invariants the
        :class:`~repro.core.history.RequestHistory` already maintains
        (positive values, catalog-covered positive sizes).  Use only with
        inputs whose invariants are structurally guaranteed.
        """
        inst = object.__new__(FBCInstance)
        object.__setattr__(inst, "bundles", bundles)
        object.__setattr__(inst, "values", values)
        object.__setattr__(inst, "sizes", sizes)
        object.__setattr__(inst, "budget", budget)
        object.__setattr__(inst, "degrees", degrees)
        return inst

    @staticmethod
    def from_history(
        history: RequestHistory,
        sizes: Mapping[FileId, SizeBytes],
        budget: SizeBytes,
    ) -> "FBCInstance":
        """Build an instance from a history's current candidate set.

        Values are the (possibly decayed) occurrence counters, degrees the
        global history degrees — exactly the paper's configuration.  The
        history guarantees positive values and the caller's size oracle is
        validated once at simulation setup, so construction goes through
        :meth:`trusted` instead of re-checking every membership per plan.
        """
        entries = history.candidates()
        if budget < 0:
            raise ConfigError(f"budget must be non-negative, got {budget}")
        return FBCInstance.trusted(
            bundles=tuple(e.bundle for e in entries),
            values=tuple(e.value for e in entries),
            sizes=sizes,
            budget=budget,
            degrees=history.degrees(),
        )


@dataclass(frozen=True)
class CacheSelection:
    """Result of :func:`opt_cache_select`.

    ``selected`` holds indices into the instance's candidate list; ``files``
    is the union of their bundles (the set ``F(Opt)`` to retain in cache);
    ``used_bytes`` is the real (union) byte footprint of ``files``;
    ``single_fallback`` is True when Step 3 replaced the greedy set with the
    single highest-value request.
    """

    selected: tuple[int, ...]
    bundles: tuple[FileBundle, ...]
    files: frozenset[FileId]
    total_value: float
    used_bytes: SizeBytes
    single_fallback: bool = False

    def __post_init__(self) -> None:
        if len(self.selected) != len(self.bundles):
            raise ConfigError("selected indices and bundles must be parallel")


def relative_value(
    value: float,
    bundle: FileBundle,
    sizes: Mapping[FileId, SizeBytes],
    degrees: Mapping[FileId, int],
) -> float:
    """The adjusted relative value ``v'(r)`` used for ranking.

    Files with unknown/zero degree are treated as degree 1 (the request at
    hand itself uses them).
    """
    adjusted = sum(sizes[f] / max(1, degrees.get(f, 1)) for f in bundle)
    if adjusted <= 0:
        raise ConfigError(f"bundle {bundle!r} has non-positive adjusted size")
    return value / adjusted


def _empty_selection() -> CacheSelection:
    return CacheSelection((), (), frozenset(), 0.0, 0)


def _select_plain(
    inst: FBCInstance,
    *,
    safeguard: bool = True,
    free: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    degrees = inst.effective_degrees(degree_blind=degree_blind)
    bundles, values = inst.bundles, inst.values
    # Precompute the ranking key once per candidate; evaluating
    # relative_value inside the sort key would cost one adjusted-size sum
    # per key call rather than one per candidate.
    keys = [
        (-relative_value(values[i], bundles[i], inst.sizes, degrees), -values[i], i)
        for i in range(len(bundles))
    ]
    order = sorted(range(len(bundles)), key=keys.__getitem__)
    # bytes each request is charged: its files outside ``free``
    marginal = [sum(inst.sizes[f] for f in b if f not in free) for b in bundles]
    remaining = inst.budget
    chosen: list[int] = []
    for i in order:
        if marginal[i] <= remaining:
            chosen.append(i)
            remaining -= marginal[i]
    total = sum(values[i] for i in chosen)
    if safeguard:
        # Step 3: the first highest-value request fitting alone
        fits = [i for i in range(len(bundles)) if marginal[i] <= inst.budget]
        best = max(fits, key=values.__getitem__, default=None)
        if best is not None and values[best] > total:
            b = bundles[best]
            return CacheSelection(
                (best,), (b,), b.files, values[best], marginal[best], True
            )
    files = frozenset().union(*[bundles[i].files for i in chosen])
    return CacheSelection(
        selected=tuple(chosen),
        bundles=tuple(bundles[i] for i in chosen),
        files=files,
        total_value=total,
        used_bytes=sum(inst.sizes[f] for f in files if f not in free),
    )


_EPS = 1e-12


def _greedy(
    bundles: Sequence[FileBundle],
    values: Sequence[float],
    rem_adj: list[float],
    rem_real: list[float],
    shared: Sequence[tuple[FileId, ...]],
    holders: Mapping[FileId, Iterable[int]],
    pos: Sequence[int] | Mapping[int, int],
    adj_size: Mapping[FileId, float],
    sizes: Mapping[FileId, SizeBytes],
    free: AbstractSet[FileId],
    budget: SizeBytes,
    *,
    seed: Sequence[int] = (),
    safeguard: bool = True,
) -> CacheSelection:
    """The refined greedy, Step 3 included; both selection paths call it.

    Candidate ``k`` is ``bundles[k]`` with value ``values[k]`` and residual
    sizes ``rem_adj[k]``/``rem_real[k]`` over its files outside ``free``;
    ``shared[k]`` lists, in bundle order, its files another candidate
    holds, and ``holders[f]`` those candidates by key, ``pos`` mapping a key
    to its index.  ``seed`` indices (partial
    enumeration) are taken first; a repeated or unfitting one raises
    :class:`~repro.errors.ConfigError`.

    Taking ``k`` charges ``rem_real[k]`` whole (exact: sizes are integers)
    and walks only its untaken shared files, subtracting from each other
    holder in the order a walk over every file would, so every float
    matches.  A lazy max-heap yields the argmax: scores only grow, each
    growth pushes a fresh entry and stale snapshots are skipped, so the
    pop order depends only on the entries held, not on push order.
    """
    n = len(values)
    inf = float("inf")
    taken = set(free)
    # Step 3 needs the best *initially fitting* single request (index,
    # value, bytes); capture it before the greedy shrinks the residuals
    single: tuple[int, float, float] | None = None
    slack = budget + _EPS
    fits = [k for k in range(n) if rem_real[k] <= slack] if safeguard else []
    if fits:
        k = max(fits, key=values.__getitem__)  # the first of the highest
        single = (k, values[k], rem_real[k])

    score = [v / a if a > _EPS else inf for v, a in zip(values, rem_adj)]
    # Max-heap of (-score, index, score snapshot); stale entries are the
    # ones whose snapshot no longer matches score[k].
    heap = list(zip(map(operator.neg, score), range(n), score))
    heapq.heapify(heap)
    active = [True] * n
    remaining = float(budget)
    charged = 0.0  # integer-valued, so exact
    chosen: list[int] = []
    seeds = list(reversed(seed))
    heappush, heappop = heapq.heappush, heapq.heappop
    while seeds or heap:
        if seeds:
            k = seeds.pop()
            if not active[k]:
                raise ConfigError(f"duplicate seed index {k}")
            if rem_real[k] > remaining + _EPS:
                raise ConfigError(f"seed index {k} does not fit the budget")
        else:
            _neg, k, snap = heappop(heap)
            if not active[k] or snap != score[k]:
                continue  # stale or already decided
            if rem_real[k] > remaining + _EPS:
                active[k] = False  # skipped: insufficient space (Step 2)
                continue
        chosen.append(k)
        active[k] = False
        remaining -= rem_real[k]
        charged += rem_real[k]
        for f in shared[k]:
            if f in taken:
                continue
            taken.add(f)
            af, sf = adj_size[f], sizes[f]
            for j in map(pos.__getitem__, holders[f]):
                if not active[j]:
                    continue
                rem_adj[j] -= af
                rem_real[j] -= sf
                new = values[j] / rem_adj[j] if rem_adj[j] > _EPS else inf
                score[j] = new
                heappush(heap, (-new, j, new))

    # summed in selection order, as the plain path sums it
    total = sum(values[k] for k in chosen)
    if single is not None and single[1] > total:
        k, value, real = single
        return CacheSelection(
            (k,), (bundles[k],), bundles[k].files, value, int(real), True
        )
    return CacheSelection(
        selected=tuple(chosen),
        bundles=tuple([bundles[k] for k in chosen]),
        files=frozenset().union(*[bundles[k].files for k in chosen]),
        total_value=total,
        used_bytes=int(charged),
    )


def _select_refined(
    inst: FBCInstance,
    seed: Sequence[int] = (),
    *,
    safeguard: bool = True,
    free: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    """Refined greedy, optionally starting from pre-selected ``seed`` indices.

    Builds the :func:`_greedy` inputs from scratch.  ``seed`` is used by
    the partial-enumeration variant
    (:func:`repro.core.kenum.opt_cache_select_enum`).  Files in ``free``
    are charged zero bytes (they are already reserved in the cache by the
    caller — the paper's "set to 0 the size of files already in the
    cache").  With ``safeguard=False`` Step 3 (single-request comparison)
    is skipped, which the ablation benchmarks use to expose its effect.
    """
    degrees = inst.effective_degrees(degree_blind=degree_blind)
    sizes = inst.sizes
    n = len(inst.bundles)
    adj_size = {f: sizes[f] / degrees[f] for f in degrees}
    rem_adj = [0.0] * n
    rem_real = [0.0] * n
    containing: dict[FileId, list[int]] = {}
    for i, bundle in enumerate(inst.bundles):
        a = r = 0.0
        for f in bundle:
            if f in free:
                continue
            a += adj_size[f]
            r += sizes[f]
            containing.setdefault(f, []).append(i)
        rem_adj[i] = a
        rem_real[i] = r
    multi = {f for f, holders in containing.items() if len(holders) > 1}
    # sorted is bundle order, as FileBundle iterates
    shared = [tuple(sorted(b.files & multi)) for b in inst.bundles]
    return _greedy(
        inst.bundles, inst.values, rem_adj, rem_real, shared, containing,
        range(n), adj_size, sizes, free, inst.budget, seed=seed,
        safeguard=safeguard,
    )


def opt_cache_select(
    inst: FBCInstance,
    *,
    refine: bool = True,
    safeguard: bool = True,
    free_files: frozenset[FileId] = frozenset(),
    degree_blind: bool = False,
) -> CacheSelection:
    """Run ``OptCacheSelect`` on an FBC instance.

    Parameters
    ----------
    inst:
        The candidate requests, file sizes/degrees and byte budget.
    refine:
        Use the paper's recompute-and-resort improvement (default True).
    safeguard:
        Apply Step 3 (compare against the best single request); disabling it
        is only meant for the ablation study of that design choice.
    free_files:
        Files already reserved by the caller (e.g. the incoming request's
        bundle in ``OptFileBundle``); they are charged zero bytes.
    degree_blind:
        Rank by ``v(r)/s(F(r))`` without the paper's ``1/d(f)`` degree
        adjustment (ranking ablation only).

    Returns
    -------
    CacheSelection
        The requests to support and the file set ``F(Opt)`` to retain.
        ``used_bytes`` (bytes charged outside ``free_files``) never exceeds
        ``inst.budget``.
    """
    if len(inst) == 0 or inst.budget <= 0:
        return _empty_selection()
    if refine:
        return _select_refined(
            inst, safeguard=safeguard, free=free_files, degree_blind=degree_blind
        )
    return _select_plain(
        inst, safeguard=safeguard, free=free_files, degree_blind=degree_blind
    )
