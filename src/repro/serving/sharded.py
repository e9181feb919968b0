"""Sharded serving: fan-out over N per-shard engines, exact TA merge.

One :class:`~repro.serving.engine.ServingEngine` owns one pair index,
which caps the servable candidate set at what a single index build can
hold — the ceiling ROADMAP item 1 (millions of users) runs into.  This
module partitions the **partner axis** into N contiguous shards, gives
each shard its own :class:`ServingEngine` over its partner slice (all
candidate events, one slice of candidate partners), fans every query out
to all shards, and merges the per-shard top-n lists back into the global
top-n with a threshold-stop merge that is *provably exact*, ties
included.

Why the merge is exact
----------------------

Every engine orders equal scores by ascending pair index (both the TA
heap and the canonical brute-force kernel break ties this way), so the global
total order is "descending score, then ascending global pair index".
Shards are **contiguous** partner-rank slices, and every pair-space
layout the engine builds — event-major unpruned
(``idx = event_rank * P + partner_rank``), partner-major pruned
(``idx = partner_rank * k + preference_rank``), and the event-major
blocks :meth:`ServingEngine.refresh` appends — is monotone in
``(segment, …, partner_rank)``: restricting the global index order to
one shard's partners gives exactly that shard's local index order.  Two
consequences:

1. each shard's top-n under its local order contains every member of
   the global top-n that lives in that shard (there are at most n), and
2. the local -> global index map (:meth:`ShardedServingEngine._global_keys`)
   is order-preserving within a shard,

so a k-way merge of the per-shard sorted lists keyed on
``(-score, global_index)`` replays the single-index result bit-for-bit.
The merge maintains Fagin's threshold invariant: the best unconsumed
head across all shard lists bounds every deeper unconsumed item, so
after n pops nothing left can displace a popped pair — the merge stops
having touched at most ``n + N`` entries.  ``tests/test_sharded.py``
property-tests this against single-index engines across random shard
counts and tie-heavy score distributions.

Deadlines, degradation, and shedding
------------------------------------

The deadline path fans a request out under **child**
:class:`~repro.serving.lifecycle.RequestContext`\\ s sharing the parent's
admission timestamp, so all shards see the same draining budget; each
shard walks its own degradation ladder (private
:class:`~repro.serving.lifecycle.LadderPolicy` — a stalled shard learns
to degrade without dragging the others down).  The aggregate outcome is
coherent by construction: it answers only if *every* shard answered
(rung = the worst shard rung, ``exact`` only if all shards were exact,
``stale`` if any was), and sheds with the first shedding shard's reason
otherwise — one aggregate :class:`RequestOutcome` per request, zero
silent drops, with per-shard detail preserved in each shard's own
:class:`~repro.serving.telemetry.MetricsRegistry`.

**Thread-safety:** mirrors :class:`ServingEngine` — queries may run
concurrently from any number of threads and with maintenance
(:meth:`warm`, :meth:`warm_ladder`, :meth:`rebuild`, :meth:`refresh`),
which is serialised against itself.  The fleet publishes the tuple of
its shards' snapshots, with the index-map constants, as one object;
a fan-out loads it once, so its legs never mix shard versions.
Fan-out uses a persistent internal thread pool; call :meth:`close` (or
use the engine as a context manager) when discarding the engine.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from repro.obs.tracing import NULL_TRACER, Tracer, stamp_outcome
from repro.online.ta import RetrievalResult
from repro.sanitizer import tsan_lock
from repro.serving.engine import IndexSnapshot, Recommendation, ServingEngine
from repro.serving.lifecycle import (
    RUNGS,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
    validate_user,
    validate_users,
)
from repro.serving.telemetry import MetricsRegistry, QueryStats, _Timer

__all__ = ["ShardedServingEngine", "merge_sharded_topn"]

T = TypeVar("T")


@dataclass(slots=True)
class _MergedEntry:
    """One cached *merged* answer at the fan-out layer.

    Caching below the merge (each shard's private result cache) still
    pays the fan-out and the k-way merge on every repeat; this entry
    skips both.  ``keys`` holds the global pair indices when the entry
    came from an exact :meth:`ShardedServingEngine._query_merged` pass
    (so it can serve :meth:`~ShardedServingEngine.query` too) and is
    ``None`` when it came from a deadline-path outcome, which only
    carries decoded ids.  Entries are immutable once stored.
    """

    scores: np.ndarray
    keys: np.ndarray | None
    event_ids: np.ndarray
    partner_ids: np.ndarray


@dataclass(slots=True)
class _ShardList:
    """One shard's sorted candidate list, ready for the k-way merge.

    ``scores`` descend; ``keys`` are *global* pair indices (ascending
    within equal scores); ``event_ids``/``partner_ids`` align with both.
    """

    scores: np.ndarray
    keys: np.ndarray
    event_ids: np.ndarray
    partner_ids: np.ndarray


def merge_sharded_topn(
    shard_lists: list[_ShardList], n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact threshold-stop merge of per-shard sorted top lists.

    Classic k-way heap merge under the total order
    ``(-score, global_key)``.  The heap holds one *head* per unconsumed
    shard list; Fagin's threshold argument makes the early stop exact:
    the best head is an upper bound on every unconsumed item in every
    list (each list descends), so the popped prefix is final and the
    merge may stop after ``n`` pops without examining the tails.
    Returns aligned ``(scores, keys, event_ids, partner_ids)`` arrays of
    length ``<= n``.  Pure function; thread-safe; no deadline (the work
    is O((n + shards) log shards)).
    """
    heads: list[tuple[float, int, int, int]] = [
        (-float(sl.scores[0]), int(sl.keys[0]), s, 0)
        for s, sl in enumerate(shard_lists)
        if sl.scores.size
    ]
    heapq.heapify(heads)
    out_s: list[float] = []
    out_k: list[int] = []
    out_e: list[int] = []
    out_p: list[int] = []
    # replint: allow-loop(threshold-stop merge pops at most n + n_shards heads, not candidates)
    while heads and len(out_k) < n:
        neg_score, key, shard, pos = heapq.heappop(heads)
        sl = shard_lists[shard]
        out_s.append(-neg_score)
        out_k.append(key)
        out_e.append(int(sl.event_ids[pos]))
        out_p.append(int(sl.partner_ids[pos]))
        nxt = pos + 1
        if nxt < sl.scores.size:
            heapq.heappush(
                heads,
                (-float(sl.scores[nxt]), int(sl.keys[nxt]), shard, nxt),
            )
    return (
        np.asarray(out_s, dtype=np.float64),
        np.asarray(out_k, dtype=np.int64),
        np.asarray(out_e, dtype=np.int64),
        np.asarray(out_p, dtype=np.int64),
    )


@dataclass(frozen=True, slots=True)
class _FleetSnapshot:
    """One published version of the whole fleet.

    The shard snapshots are taken together with the constants the
    local -> global index map needs, so a fan-out that loads this once
    answers every leg from one version and maps keys consistently.
    """

    shards: tuple[IndexSnapshot, ...]
    built_events: int
    built_k: int | None

    @property
    def version(self) -> int:
        return self.shards[0].version

    @property
    def n_candidates(self) -> int:
        return sum(s.space.n_pairs for s in self.shards if s.space is not None)


class ShardedServingEngine:
    """N per-shard :class:`ServingEngine`\\ s behind one exact interface.

    Candidate partners are split into ``n_shards`` contiguous
    rank-slices; each shard engine indexes (its partners × all candidate
    events) and the fan-out/merge layer reconstructs single-index
    results exactly (see the module docstring for the proof sketch).

    Pass ``np.memmap`` matrices (from a frozen
    :class:`~repro.core.store.MemmapStore`) and every shard serves
    zero-copy from the same on-disk embedding copy — no process
    materialises the full matrix; each shard's build touches only its
    own partner slice.

    Parameters mirror :class:`ServingEngine` (including the
    ``ivf_clusters`` / ``ivf_nprobe`` ladder knobs, applied per shard);
    ``metrics`` is the *aggregate* registry (each shard additionally
    keeps a private one, see :meth:`shard_metrics`).
    ``merged_cache_size`` bounds the fan-out layer's **merged-answer
    cache**: exact answers are remembered keyed on
    ``(version, user, n)``, so a repeat request skips the fan-out *and*
    the k-way merge entirely (per-shard caches alone still pay both).
    Entries can never survive a version bump — the key carries the
    version and :meth:`refresh` / :meth:`rebuild` clear the map.  ``tracer`` traces at the fan-out layer:
    one root per request with a ``shard`` child per fan-out leg — shard
    engines keep the disabled default, and their rung attempts still
    appear because each leg walks its shard's ladder under its
    ``shard`` child span.

    **Thread-safety:** same contract as :class:`ServingEngine` (see the
    module docstring); :meth:`close` the engine when done to release the
    fan-out pool.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        n_shards: int,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        backend: str = "ta",
        cache_size: int = 256,
        metrics: MetricsRegistry | None = None,
        stale_cache_size: int = 1024,
        tracer: Tracer | None = None,
        ivf_clusters: int | None = None,
        ivf_nprobe: int | None = None,
        merged_cache_size: int = 256,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if candidate_partners is None:
            candidate_partners = np.arange(
                int(np.shape(user_vectors)[0]), dtype=np.int64
            )
        candidate_partners = np.asarray(candidate_partners, dtype=np.int64)
        if n_shards > candidate_partners.size:
            raise ValueError(
                f"n_shards={n_shards} exceeds the {candidate_partners.size} "
                "candidate partners (a shard may not be empty)"
            )
        self.n_shards = int(n_shards)
        self.backend_name = backend
        self.top_k_events = top_k_events
        self.candidate_partners = candidate_partners
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._label = f"sharded[{self.n_shards}]:{backend}"
        slices = np.array_split(candidate_partners, n_shards)
        self._sizes = [int(s.size) for s in slices]
        self._offsets = [
            int(o) for o in np.concatenate([[0], np.cumsum(self._sizes)[:-1]])
        ]
        self._shards = [
            ServingEngine(
                user_vectors,
                event_vectors,
                candidate_events,
                candidate_partners=part,
                top_k_events=top_k_events,
                backend=backend,
                cache_size=cache_size,
                metrics=MetricsRegistry(),
                stale_cache_size=stale_cache_size,
                ladder=LadderPolicy(),
                ivf_clusters=ivf_clusters,
                ivf_nprobe=ivf_nprobe,
            )
            for part in slices
        ]
        if merged_cache_size < 0:
            raise ValueError(
                f"merged_cache_size must be >= 0, got {merged_cache_size}"
            )
        self.merged_cache_size = int(merged_cache_size)
        self._merged_lock = tsan_lock(threading.Lock(), "_merged_lock")
        self._merged: OrderedDict[tuple, _MergedEntry] = OrderedDict()  # replint: guarded-by(_merged_lock)
        # The publication point, as on ServingEngine: read without a
        # lock, stored only under _build_lock once every shard's next
        # snapshot is complete.
        self._snap = self._fleet_snapshot(remap=True)
        self._build_lock = tsan_lock(threading.RLock(), "_build_lock")
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_shards, thread_name_prefix="shard-fanout"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # introspection
    @property
    def shards(self) -> tuple[ServingEngine, ...]:
        """The per-shard engines, in partner-rank order."""
        return tuple(self._shards)

    @property
    def version(self) -> int:
        """The embedding version currently served (all shards agree)."""
        return self._snap.version

    @property
    def candidate_events(self) -> np.ndarray:
        """Global ids of the events currently served."""
        return self._snap.shards[0].candidate_events

    @property
    def n_users(self) -> int:
        """Rows of the shared user embedding matrix."""
        return self._shards[0].n_users

    @property
    def n_events(self) -> int:
        """Rows of the event embedding matrix (all shards agree).

        Part of the ``fold_into_engine`` refresh contract: the next free
        global event id is ``n_events``.
        """
        return int(self._snap.shards[0].event_vectors.shape[0])

    def index_age_s(self) -> float:
        """Staleness age of the most-lagged shard index (-1 unbuilt).

        The pessimistic aggregate of :meth:`ServingEngine.index_age_s`:
        the age an operator should alarm on is the oldest shard's.
        """
        ages = [sh.index_age_s() for sh in self._shards]
        if any(age < 0 for age in ages):
            return -1.0
        return max(ages)

    @property
    def n_candidate_pairs(self) -> int:
        """Total candidate pairs across all shard indices (builds them)."""
        return self._built().n_candidates

    def memory_bytes(self) -> int:
        """Summed resident index bytes across shards."""
        return sum(sh.memory_bytes() for sh in self._shards)

    def shard_metrics(self) -> list[MetricsRegistry]:
        """Each shard's private registry, in shard order.

        The aggregate :attr:`metrics` registry records one
        :class:`QueryStats`/shed per *request*; these record one per
        shard sub-query — both views are kept so telemetry stays
        coherent under partial degradation.
        """
        return [sh.metrics for sh in self._shards]

    def close(self) -> None:
        """Release the fan-out thread pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedServingEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close` the fan-out pool."""
        self.close()

    # ------------------------------------------------------------------
    # offline: build / refresh
    def _fleet_snapshot(self, *, remap: bool) -> _FleetSnapshot:
        """The shards' current snapshots as one fleet snapshot.

        ``remap`` takes the index-map constants from the shards' build;
        otherwise the published ones are kept (a refresh appends pairs
        after them).
        """
        shard_snaps = tuple(sh.snapshot for sh in self._shards)
        if not remap:
            return replace(self._snap, shards=shard_snaps)
        n_events = int(shard_snaps[0].candidate_events.size)
        return _FleetSnapshot(
            shard_snaps, n_events, self._shards[0]._effective_top_k(n_events)
        )

    def _built(self) -> _FleetSnapshot:
        """The published fleet snapshot, building every shard first if needed."""
        snap = self._snap
        if snap.shards[0].space is None:
            with self._build_lock:
                snap = self._snap
                if snap.shards[0].space is None:
                    list(self._pool.map(lambda sh: sh.warm(), self._shards))
                    snap = self._snap = self._fleet_snapshot(remap=True)
        return snap

    def warm(self) -> "ShardedServingEngine":
        """Build every shard index now (otherwise first query pays it).

        Idempotent; shard builds run through the fan-out pool.  Also
        snapshots the candidate-event count and pruning level at build
        time — the constants the local -> global index map needs.
        """
        self._built()
        return self

    def warm_ladder(self) -> "ShardedServingEngine":
        """Warm every degradation rung on every shard (see engine docs)."""
        self._built()
        with self._build_lock:
            list(self._pool.map(lambda sh: sh.warm_ladder(), self._shards))
            self._snap = self._fleet_snapshot(remap=False)
        return self

    def rebuild(self) -> None:
        """Cold-rebuild every shard under a new version.

        Same contract as :meth:`ServingEngine.rebuild`; the fleet
        publishes the rebuilt shards (and re-read index-map constants)
        together.
        """
        with self._build_lock:
            list(self._pool.map(lambda sh: sh.rebuild(), self._shards))
            self._snap = self._fleet_snapshot(remap=True)
            self._clear_merged_cache()

    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """Fold new events into every shard (engine ``refresh`` per shard).

        All shards receive the same ids in the same order, so the
        appended event-major blocks stay aligned across shards and the
        exact merge keeps working (the appended-segment key formula).
        The refreshed shards are published together, so a concurrent
        fan-out sees every shard old or every shard new.  Returns the
        number of events added (identical on every shard).
        """
        with self._build_lock:
            added = [
                sh.refresh(new_event_ids, new_event_vectors)
                for sh in self._shards
            ]
            if len(set(added)) != 1:  # pragma: no cover - defensive
                raise RuntimeError(f"shards diverged during refresh: {added}")
            if added[0]:
                self._snap = self._fleet_snapshot(remap=False)
                self._clear_merged_cache()
            return added[0]

    # ------------------------------------------------------------------
    # the merged-answer cache
    def _merged_get(self, version: int, user: int, n: int) -> _MergedEntry | None:
        """Cache lookup for the merged answer of ``(user, n)`` at ``version``.

        Keys include the version, so an entry can never be returned
        across a version bump; :meth:`refresh` / :meth:`rebuild`
        additionally clear the map so dead-version entries do not linger
        until LRU eviction.  Thread-safe.
        """
        if self.merged_cache_size == 0:
            return None
        key = (version, int(user), int(n))
        with self._merged_lock:
            entry = self._merged.get(key)
            if entry is not None:
                self._merged.move_to_end(key)
            return entry

    def _merged_put(
        self, version: int, user: int, n: int, entry: _MergedEntry
    ) -> None:
        """Store one *exact* merged answer (thread-safe, LRU-bounded).

        A keyed entry (from the exact-merge path) is never downgraded to
        a keyless one (from the deadline path) — the richer entry serves
        both surfaces.
        """
        if self.merged_cache_size == 0:
            return
        key = (version, int(user), int(n))
        with self._merged_lock:
            prior = self._merged.get(key)
            if prior is not None and prior.keys is not None and entry.keys is None:
                return
            self._merged[key] = entry
            self._merged.move_to_end(key)
            # replint: allow-loop(LRU eviction pops at most one stale entry)
            while len(self._merged) > self.merged_cache_size:
                self._merged.popitem(last=False)

    def _clear_merged_cache(self) -> None:
        with self._merged_lock:
            self._merged.clear()

    # ------------------------------------------------------------------
    # the local -> global index map
    def _global_keys(
        self, snap: _FleetSnapshot, shard: int, local_idx: np.ndarray
    ) -> np.ndarray:
        """Map a shard's local pair indices to global pair indices.

        Piecewise by segment (see the module docstring): the initial
        build segment is event-major (unpruned) or partner-major
        (pruned); every refresh appends event-major blocks.  The map is
        strictly increasing in ``local_idx``, which is what makes the
        per-shard sort order the restriction of the global one.  The
        build-time constants come from ``snap``, the same snapshot the
        local indices were answered from.
        """
        k = snap.built_k
        e0 = snap.built_events
        local = np.asarray(local_idx, dtype=np.int64)
        off = self._offsets[shard]
        p_s = self._sizes[shard]
        p_all = int(self.candidate_partners.size)
        if k is None:
            base_s = e0 * p_s
            base_g = e0 * p_all
            ev, pa = np.divmod(local, p_s)
            key_initial = ev * p_all + off + pa
        else:
            base_s = p_s * k
            base_g = p_all * k
            pa, j = np.divmod(local, k)
            key_initial = (off + pa) * k + j
        fresh, pa2 = np.divmod(local - base_s, p_s)
        key_appended = base_g + fresh * p_all + off + pa2
        return np.where(local < base_s, key_initial, key_appended).astype(
            np.int64
        )

    def _shard_list(
        self, snap: _FleetSnapshot, shard: int, result: RetrievalResult
    ) -> _ShardList:
        """Package one shard's result for the merge (keys + ids)."""
        idx = result.pair_indices
        space = snap.shards[shard].space
        assert space is not None
        events, partners = space.pair_ids(idx)
        return _ShardList(
            scores=np.asarray(result.scores, dtype=np.float64),
            keys=self._global_keys(snap, shard, idx),
            event_ids=np.asarray(events, dtype=np.int64),
            partner_ids=np.asarray(partners, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # online: exact queries
    def query(self, user: int, n: int) -> RetrievalResult:
        """Fan out, merge: the *global* retrieval result for ``user``.

        ``pair_indices`` are global pair-space indices — bit-identical
        (ids and scores) to a single-index :meth:`ServingEngine.query`
        over the same data.  Thread-safe; no deadline; access statistics
        are summed across shards.
        """
        scores, keys, _events, _partners, stats = self._query_merged(user, n)
        return RetrievalResult(
            pair_indices=keys,
            scores=scores,
            n_examined=stats.n_examined,
            n_sorted_accesses=stats.n_sorted_accesses,
            fraction_examined=stats.fraction_examined,
            exact=stats.exact,
        )

    def _query_merged(
        self, user: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, QueryStats]:
        """Fan out + merge, recording one aggregate ``QueryStats``.

        The common substrate of :meth:`query` and :meth:`recommend`, so
        both surfaces feed the aggregate registry (per-shard registries
        are filled by the per-shard queries regardless).  A
        version-current merged-cache entry answers without fanning out
        at all (``cache_hit=True`` in the aggregate stats; shard
        registries see nothing, which is the point).
        """
        user = validate_user(user, self.n_users)
        n = int(n)
        snap = self._built()
        with _Timer() as lookup:
            cached = self._merged_get(snap.version, user, n)
        if cached is not None and cached.keys is not None:
            stats = QueryStats(
                user=user,
                n=n,
                backend=self._label,
                version=snap.version,
                n_candidates=snap.n_candidates,
                n_examined=0,
                n_sorted_accesses=0,
                fraction_examined=0.0,
                seconds_total=lookup.seconds,
                cache_hit=True,
                exact=True,
            )
            self.metrics.record(stats)
            return (
                cached.scores,
                cached.keys,
                cached.event_ids,
                cached.partner_ids,
                stats,
            )
        with self.tracer.start(
            "engine.query", user=user, n=n, backend=self._label
        ) as root, _Timer() as total:

            def q_shard(i: int) -> RetrievalResult:
                with root.child("shard", shard=i):
                    return self._shards[i]._query(snap.shards[i], user, n)

            results = self._fan_out(q_shard)
            with root.child("merge"):
                merged = merge_sharded_topn(
                    [self._shard_list(snap, s, r) for s, r in enumerate(results)],
                    n,
                )
        scores, keys, events, partners = merged
        n_cand = snap.n_candidates
        n_exam = sum(r.n_examined for r in results)
        stats = QueryStats(
            user=user,
            n=n,
            backend=self._label,
            version=snap.version,
            n_candidates=n_cand,
            n_examined=n_exam,
            n_sorted_accesses=sum(r.n_sorted_accesses for r in results),
            fraction_examined=n_exam / max(n_cand, 1),
            seconds_total=total.seconds,
            exact=all(r.exact for r in results),
        )
        self.metrics.record(stats)
        if stats.exact:
            self._merged_put(
                snap.version,
                user,
                n,
                _MergedEntry(
                    scores=scores,
                    keys=keys,
                    event_ids=events,
                    partner_ids=partners,
                ),
            )
        return scores, keys, events, partners, stats

    def recommend(self, user: int, n: int = 10) -> list[Recommendation]:
        """Global top-n recommendations for ``user`` (no deadline).

        Bit-exact against the single-index engine; thread-safe.
        """
        scores, _keys, events, partners, _stats = self._query_merged(user, n)
        return _recommendations(events, partners, scores)

    def recommend_batch(
        self, users: np.ndarray, n: int = 10
    ) -> list[list[Recommendation]]:
        """Batched global top-n: one vectorised pass per shard, then merge.

        Identical to calling :meth:`recommend` per user; thread-safe.
        """
        n = int(n)
        user_list = validate_users(users, self.n_users)
        snap = self._built()
        per_shard = self._fan_out(
            lambda i: self._shards[i]._query_batch(snap.shards[i], user_list, n)
        )
        out: list[list[Recommendation]] = []
        # replint: allow-loop(per-user merge over the requested batch, not candidates)
        for i in range(len(user_list)):
            scores, _keys, events, partners = merge_sharded_topn(
                [
                    self._shard_list(snap, s, shard_res[i])
                    for s, shard_res in enumerate(per_shard)
                ],
                n,
            )
            out.append(_recommendations(events, partners, scores))
        return out

    # ------------------------------------------------------------------
    # online: deadline-aware queries
    def recommend_within(
        self,
        user: int,
        n: int = 10,
        *,
        budget_s: float | None = None,
        ctx: RequestContext | None = None,
    ) -> RequestOutcome:
        """Serve one request under a deadline across all shards.

        Each shard receives a **child context sharing the parent's
        admission timestamp** — budgets drain in lockstep, so a request
        that queued for 40 ms of a 50 ms budget has 10 ms on every
        shard, and each shard's ladder degrades independently within it.
        Every leg answers from the same published fleet snapshot.
        The aggregate outcome answers only when every shard answered
        (rung = worst shard rung, ``exact`` = all shards exact,
        ``stale`` = any shard stale) and sheds with the first shedding
        shard's reason otherwise; the merge across degraded shard
        answers orders by ``(-score, event, partner)`` — deterministic,
        and identical to the exact merge whenever every shard served its
        ``full`` rung with sorted candidate ids.  Thread-safe.

        Tracing: a root parked on ``ctx.span`` (by
        :func:`~repro.serving.lifecycle.recommend_many`) is adopted,
        otherwise one is opened here; each fan-out leg walks its shard's
        ladder under a ``shard`` child span, so a flight-recorder dump
        shows which shard's rung walk consumed the budget.
        """
        if (budget_s is None) == (ctx is None):
            raise ValueError("pass exactly one of budget_s or ctx")
        if ctx is None:
            assert budget_s is not None
            ctx = RequestContext.with_budget(budget_s)
        user = validate_user(user, self.n_users)
        n = int(n)
        snap = self._built()
        parent = ctx
        root = ctx.span
        owns_root = root is None
        if root is None:
            root = self.tracer.request(
                "request",
                user=user,
                n=n,
                backend=self._label,
                budget_s=ctx.budget_s,
            )
            ctx.span = root

        def serve_shard(i: int) -> RequestOutcome:
            child = RequestContext(parent.budget_s, start=parent.start)
            with root.child("shard", shard=i) as shard_span:
                return self._shards[i]._serve_within(
                    snap.shards[i], user, n, child, shard_span
                )

        try:
            cached = self._merged_get(snap.version, user, n)
            if cached is not None:
                # A version-current merged answer is exact and free — no
                # fan-out, no shard-ladder walk, whatever the budget.
                stats = QueryStats(
                    user=user,
                    n=n,
                    backend=self._label,
                    version=snap.version,
                    n_candidates=snap.n_candidates,
                    n_examined=0,
                    n_sorted_accesses=0,
                    fraction_examined=0.0,
                    seconds_total=parent.elapsed(),
                    cache_hit=True,
                    rung="full",
                    deadline_budget_s=parent.budget_s,
                    deadline_remaining_s=parent.remaining(),
                    deadline_met=not parent.expired(),
                    queue_wait_s=parent.queue_wait_s,
                    exact=True,
                )
                self.metrics.record(stats)
                outcome = RequestOutcome(
                    user=user,
                    n=n,
                    answered=True,
                    recommendations=_recommendations(
                        cached.event_ids, cached.partner_ids, cached.scores
                    ),
                    stats=stats,
                )
                stamp_outcome(root, outcome)
                return outcome
            outcomes = self._fan_out(serve_shard)
            shed = [o for o in outcomes if not o.answered]
            if shed:
                reason = shed[0].shed_reason
                self.metrics.record_shed(
                    reason if reason is not None else "rungs_exhausted"
                )
                outcome = RequestOutcome(
                    user=user, n=n, answered=False, shed_reason=reason
                )
                stamp_outcome(root, outcome)
                return outcome
            with root.child("merge"):
                merged = self._merge_outcomes(outcomes, n)
            assert all(o.stats is not None for o in outcomes)
            stats_list = [o.stats for o in outcomes if o.stats is not None]
            worst = max(RUNGS.index(s.rung) for s in stats_list)
            n_cand = sum(s.n_candidates for s in stats_list)
            n_exam = sum(s.n_examined for s in stats_list)
            stats = QueryStats(
                user=user,
                n=n,
                backend=self._label,
                version=snap.version,
                n_candidates=n_cand,
                n_examined=n_exam,
                n_sorted_accesses=sum(s.n_sorted_accesses for s in stats_list),
                fraction_examined=n_exam / max(n_cand, 1),
                seconds_total=parent.elapsed(),
                cache_hit=all(s.cache_hit for s in stats_list),
                rung=RUNGS[worst],
                deadline_budget_s=parent.budget_s,
                deadline_remaining_s=parent.remaining(),
                deadline_met=not parent.expired(),
                queue_wait_s=parent.queue_wait_s,
                exact=all(s.exact for s in stats_list),
                stale=any(s.stale for s in stats_list),
            )
            self.metrics.record(stats)
            if stats.exact:
                self._merged_put(
                    snap.version,
                    user,
                    n,
                    _MergedEntry(
                        scores=np.array(
                            [r.score for r in merged], dtype=np.float64
                        ),
                        keys=None,
                        event_ids=np.array(
                            [r.event for r in merged], dtype=np.int64
                        ),
                        partner_ids=np.array(
                            [r.partner for r in merged], dtype=np.int64
                        ),
                    ),
                )
            outcome = RequestOutcome(
                user=user,
                n=n,
                answered=True,
                recommendations=merged,
                stats=stats,
            )
            stamp_outcome(root, outcome)
            return outcome
        finally:
            if owns_root:
                root.finish()

    # ------------------------------------------------------------------
    # internals
    def _fan_out(self, fn: Callable[[int], T]) -> list[T]:
        """Run ``fn(shard_index)`` for every shard via the engine pool.

        Results come back in shard order; with one shard the call is
        inlined (no pool hop).  Exceptions propagate to the caller.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if self.n_shards == 1:
            return [fn(0)]
        return list(self._pool.map(fn, range(self.n_shards)))

    @staticmethod
    def _merge_outcomes(
        outcomes: list[RequestOutcome], n: int
    ) -> list[Recommendation]:
        """Merge per-shard (possibly degraded) answers deterministically.

        Ordered by ``(-score, event, partner)``: equal to the exact
        global-index merge whenever all shards answered exactly with
        ascending candidate ids, and a stable, reproducible choice when
        some shard served a degraded rung (whose answer is already
        approximate by contract).
        """
        merged = [r for o in outcomes for r in o.recommendations]
        merged.sort(key=lambda r: (-r.score, r.event, r.partner))
        return merged[:n]


def _recommendations(
    events: np.ndarray, partners: np.ndarray, scores: np.ndarray
) -> list[Recommendation]:
    """Aligned id and score arrays as recommendations."""
    return [
        Recommendation(event=int(e), partner=int(p), score=float(s))
        for e, p, s in zip(events, partners, scores, strict=True)
    ]
