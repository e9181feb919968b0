"""The unified serving engine for joint event-partner recommendation.

This is the production substrate for the paper's Section IV: one object
that owns the offline side (the 2K+1 space transformation, optional
per-partner top-k pruning, index construction) and the online side
(single and batched top-n queries, result caching, telemetry), behind a
pluggable :class:`~repro.serving.backends.RetrievalBackend`.  Brute-force
engines never build the 2K+1 space: they serve a
:class:`~repro.online.bruteforce.FactoredBruteForceIndex` (Eqn 8 as
``u·x + C[x,u'] + u·u'``), and a 2K+1 space is materialised for them
only for the pruned-TA and opt-in IVF siblings.

Compared with the original ``EventPartnerRecommender`` (now a thin
facade over this class) the engine adds:

* **lazy, versioned builds** — the index is materialised on first use
  and stamped with a monotonically increasing *embedding version*;
* **incremental refresh** — :meth:`refresh` folds new events (e.g. from
  :class:`repro.core.fold_in.EventFoldIn`) into the candidate space by
  scoring only the new pairs and merging them into the existing
  index, instead of a cold rebuild;
* **batched queries** — :meth:`recommend_batch` vectorises query-vector
  construction and, where the backend supports it, answers the whole
  batch with one pass over the candidate matrix;
* **caching + telemetry** — an LRU result cache keyed on
  ``(version, user, n)`` and per-query :class:`QueryStats` records in a
  :class:`MetricsRegistry`;
* **deadline-aware serving** — :meth:`recommend_within` serves one
  request under a :class:`~repro.serving.lifecycle.RequestContext`
  budget, stepping down the degradation ladder (``full -> pruned ->
  ivf -> truncated -> stale_cache``) as the budget shrinks, and
  :func:`repro.serving.lifecycle.recommend_many` drives it from a
  thread pool behind a bounded admission queue with explicit load
  shedding.

**Thread-safety:** everything maintenance changes — the version, the
candidate events and event vectors, the served index and its ladder
siblings, the build time — lives in one frozen :class:`IndexSnapshot`.
Maintenance (:meth:`warm`, :meth:`warm_ladder`, :meth:`rebuild`,
:meth:`refresh`) builds the next snapshot under an internal build lock
and publishes it with a single attribute store; every query loads the
published snapshot once and reads nothing else that maintenance
changes.  Queries therefore run concurrently with each other and with
maintenance, take no build lock, and each sees one complete version:
old or new, never a mixture.  The result/stale caches and telemetry are
lock-protected.  See DESIGN.md §8/§11 and docs/OPERATIONS.md.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Span, Tracer, stamp_outcome
from repro.online.bruteforce import BruteForceIndex, FactoredBruteForceIndex
from repro.online.ivf import IVFIndex
from repro.online.pruning import build_pruned_pair_space
from repro.sanitizer import tsan_lock
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.online.transform import (
    PairSpace,
    query_vector,
    transform_all_pairs,
)
from repro.serving.backends import RetrievalBackend, create_backend
from repro.serving.faults import InjectedFault, fault_point
from repro.serving.lifecycle import (
    LadderPolicy,
    RequestContext,
    RequestOutcome,
    SHED_DEADLINE_EXPIRED,
    validate_user,
    validate_users,
)
from repro.serving.telemetry import (
    BuildStats,
    MetricsRegistry,
    QueryStats,
    _Timer,
)
from repro.utils.profiling import NULL_PROFILER, Profiler

#: What an engine serves pair indices from: the 2K+1 space (TA engines)
#: or the factored index (brute-force engines).  Both number pairs the
#: same way and decode them with ``pair_ids``.
ServedPairs = PairSpace | FactoredBruteForceIndex

#: Canonical build-phase names recorded by the engine's profiler (the
#: same :class:`~repro.utils.profiling.Profiler` API the offline trainer
#: uses, so one report format covers training and serving builds).
#: Brute-force engines build their factored index under
#: ``build.index`` and record no ``build.transform``.
BUILD_PHASES = (
    "build.transform",
    "build.index",
    "build.pruned_sibling",
    "build.ivf_sibling",
)

#: Geometric growth factor for the pair-space append buffers: a refresh
#: that outgrows the reserved capacity reallocates to ``factor * need``,
#: so n fold-ins cost O(n) amortised row copies instead of O(n^2).
_PAIR_BUFFER_GROWTH = 2.0

#: Default pruning level for ``*-pruned`` backends when the caller does
#: not pick k: 5% of the candidate events, Fig 7's sweet spot (the
#: approximation ratio is ≈1 from there on).
DEFAULT_PRUNED_FRACTION = 0.05

#: Initial throughput guess (rows/second) for sizing the truncated
#: brute-force rung before any observation exists; replaced by an EWMA
#: of measured scan throughput after the first truncated query.
_TRUNC_INITIAL_ROWS_PER_S = 2_000_000.0

#: Fraction of the remaining budget the truncated rung plans to spend
#: scanning (the rest absorbs top-n selection and scheduling noise).
_TRUNC_BUDGET_FRACTION = 0.5


def _as_served(vectors: np.ndarray) -> np.ndarray:
    """The engine's working view of an embedding matrix.

    Plain arrays keep the historical behaviour (a float64 working copy);
    ``np.memmap`` inputs — the sharded, store-backed path — are kept
    **zero-copy** so N shard engines mapping the same
    :class:`~repro.core.store.MemmapStore` share one on-disk copy
    through the page cache instead of each materialising a private
    float64 matrix.  Rows and candidate slices are widened to float64 at
    the point of use, which is exact (float32 -> float64 widening), so
    results are bit-identical across the two representations.
    """
    if isinstance(vectors, np.memmap):
        return vectors
    return np.asarray(vectors, dtype=np.float64)


def _candidate_rows(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of an embedding matrix, staged for an index build.

    A *contiguous* range of a memmap comes back as a zero-copy basic
    slice, so chunked consumers (the pruned build) never hold the whole
    candidate slice in memory — the property the million-user sharded
    store relies on.  Everything else (plain arrays, scattered ids)
    gathers the rows and widens to float64 eagerly, the historical
    behaviour; downstream transforms widen lazily-passed rows at the
    point of use, which is elementwise-exact, so both representations
    produce bit-identical indices.
    """
    if (
        isinstance(matrix, np.memmap)
        and idx.size
        and np.array_equal(
            idx, np.arange(int(idx[0]), int(idx[0]) + idx.size)
        )
    ):
        return matrix[int(idx[0]) : int(idx[0]) + idx.size]
    return np.asarray(matrix[idx], dtype=np.float64)


@dataclass(slots=True)
class Recommendation:
    """One recommended event-partner pair."""

    event: int
    partner: int
    score: float


@dataclass(frozen=True, slots=True)
class IndexSnapshot:
    """One published version of everything a query reads.

    Maintenance never changes a published snapshot: it builds the next
    one and publishes it with a single attribute store.  A reader that
    loaded a snapshot keeps a complete, self-consistent index — its
    version, candidates, served pairs and ladder siblings all belong
    together — however many refreshes are published meanwhile.
    ``space`` and ``backend`` are ``None`` until the first build.
    """

    version: int
    candidate_events: np.ndarray
    event_vectors: np.ndarray
    space: ServedPairs | None = None
    backend: RetrievalBackend | None = None
    pruned: ThresholdAlgorithmIndex | None = None
    ivf: IVFIndex | None = None
    built_monotonic: float | None = None

    @property
    def rungs(self) -> tuple[str, ...]:
        """The ladder rungs this snapshot can serve, best first.

        ``pruned`` requires its sibling index (see
        :meth:`ServingEngine.warm_ladder`) and ``ivf`` its clustered
        sibling; ``truncated`` and ``stale_cache`` are always present
        (the stale rung sheds when it has nothing to replay).
        """
        rungs = ["full"]
        if self.pruned is not None:
            rungs.append("pruned")
        if self.ivf is not None:
            rungs.append("ivf")
        return (*rungs, "truncated", "stale_cache")


class ServingEngine:
    """Versioned, cached, batch-capable joint recommendation service.

    Parameters
    ----------
    user_vectors, event_vectors:
        The trained embedding matrices (GEM or any latent-factor model).
    candidate_events:
        Global event ids eligible for recommendation.
    candidate_partners:
        Global user ids eligible as partners (default: everyone).
    top_k_events:
        Pruning level k (``None`` = no pruning unless the backend is a
        ``*-pruned`` variant, which defaults to 5% of the events).
    backend:
        Registered backend name (see
        :func:`repro.serving.backends.available_backends`).
    ivf_clusters, ivf_nprobe:
        Opt-in knobs for the ``ivf`` degradation rung: when
        ``ivf_clusters`` is set, :meth:`warm_ladder` additionally builds
        a clustered inverted-file sibling (:class:`~repro.online.ivf.
        IVFIndex`) over the primary pair space, and deadline-scoped
        requests may answer from it by scanning only the ``ivf_nprobe``
        nearest clusters (default: 25% of the clusters).  ``None``
        (the default) leaves the rung cold — the ladder behaves exactly
        as before this rung existed.
    cache_size:
        Maximum entries in the LRU result cache (0 disables caching).
    metrics:
        A shared :class:`MetricsRegistry`; a private one is created when
        omitted.
    stale_cache_size:
        Maximum entries in the stale-answer cache backing the
        ``stale_cache`` degradation rung (0 disables it, turning
        deadline-expired requests into sheds).
    ladder:
        A shared :class:`~repro.serving.lifecycle.LadderPolicy`; a
        private one is created when omitted.
    profiler:
        Optional :class:`~repro.utils.profiling.Profiler` recording the
        build-phase breakdown (:data:`BUILD_PHASES`) across
        :meth:`warm` / :meth:`warm_ladder` / :meth:`rebuild` /
        :meth:`refresh`; defaults to the shared disabled instance.  Only
        touched under the build lock, matching the profiler's
        one-thread-at-a-time contract.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` producing per-request
        span trees (admission → queue wait → rung attempts → cache
        write); defaults to the shared disabled
        :data:`~repro.obs.tracing.NULL_TRACER`, which makes every span
        operation a structural no-op.

    **Thread-safety:** every method may be called from any thread.
    Queries load the published :class:`IndexSnapshot` once and never
    wait for maintenance; :meth:`refresh`, :meth:`rebuild` and
    :meth:`warm_ladder` build the next snapshot under the build lock
    and publish it whole, so a query concurrent with them answers from
    the old version or the new one, never a mixture (DESIGN.md §11).
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        backend: str = "ta",
        ivf_clusters: int | None = None,
        ivf_nprobe: int | None = None,
        cache_size: int = 256,
        metrics: MetricsRegistry | None = None,
        stale_cache_size: int = 1024,
        ladder: LadderPolicy | None = None,
        profiler: Profiler | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.user_vectors = _as_served(user_vectors)
        candidates = np.asarray(candidate_events, dtype=np.int64)
        if candidates.size == 0:
            raise ValueError("candidate_events must be non-empty")
        if candidate_partners is None:
            candidate_partners = np.arange(
                self.user_vectors.shape[0], dtype=np.int64
            )
        self.candidate_partners = np.asarray(
            candidate_partners, dtype=np.int64
        )
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if stale_cache_size < 0:
            raise ValueError(
                f"stale_cache_size must be >= 0, got {stale_cache_size}"
            )
        if ivf_clusters is not None and ivf_clusters < 1:
            raise ValueError(
                f"ivf_clusters must be >= 1, got {ivf_clusters}"
            )
        if ivf_nprobe is not None and ivf_clusters is None:
            raise ValueError("ivf_nprobe requires ivf_clusters")
        self.backend_name = backend
        self._prunes_by_default = create_backend(backend).prunes_by_default
        self.top_k_events = top_k_events
        self.ivf_clusters = ivf_clusters
        self.ivf_nprobe = ivf_nprobe
        self.cache_size = cache_size
        self.stale_cache_size = stale_cache_size
        # `is not None` matters: an empty registry is falsy via __len__.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ladder = ladder if ladder is not None else LadderPolicy()
        self.profiler = profiler if profiler is not None else NULL_PROFILER  # replint: guarded-by(_build_lock)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.build_stats = BuildStats()  # replint: guarded-by(_build_lock)
        # The publication point: queries load this one attribute without
        # a lock (a reference load is atomic); only the build path
        # stores it, under _build_lock, after the next snapshot is
        # complete.  Deliberately not lock-annotated — the lock-free
        # read is the design (DESIGN.md §11).
        self._snap = IndexSnapshot(
            version=1,
            candidate_events=candidates,
            event_vectors=_as_served(event_vectors),
        )
        self._cache: OrderedDict[tuple, RetrievalResult] = OrderedDict()  # replint: guarded-by(_cache_lock)
        # Stale-answer cache: (user, n) -> (version, result, space); kept
        # across version bumps on purpose — it backs the stale_cache rung.
        # replint: guarded-by(_cache_lock)
        self._stale: OrderedDict[
            tuple[int, int], tuple[int, RetrievalResult, ServedPairs]
        ] = OrderedDict()
        # Growable append buffers backing incremental refresh of a 2K+1
        # space (the TA primary, or a brute-force engine's ivf sibling):
        # each fold-in writes its new rows into reserved tail capacity
        # and re-views the prefix, instead of concatenating (= copying)
        # the whole pair space per refresh.  Only the build path touches
        # them; published PairSpace views alias the immutable prefix.
        # The factored index keeps its own buffers.
        self._buf_points: np.ndarray | None = None  # replint: guarded-by(_build_lock)
        self._buf_partners: np.ndarray | None = None  # replint: guarded-by(_build_lock)
        self._buf_events: np.ndarray | None = None  # replint: guarded-by(_build_lock)
        self._trunc_rows_per_s = _TRUNC_INITIAL_ROWS_PER_S  # replint: guarded-by(_cache_lock)
        self._build_lock = tsan_lock(threading.RLock(), "_build_lock")
        self._cache_lock = tsan_lock(threading.Lock(), "_cache_lock")

    # ------------------------------------------------------------------
    # introspection
    @property
    def snapshot(self) -> IndexSnapshot:
        """The published snapshot (unbuilt until the first query/warm)."""
        return self._snap

    @property
    def version(self) -> int:
        """The embedding version currently served."""
        return self._snap.version

    @property
    def candidate_events(self) -> np.ndarray:
        """Global ids of the events currently served."""
        return self._snap.candidate_events

    @property
    def event_vectors(self) -> np.ndarray:
        """The event embedding matrix, folded-in rows included."""
        return self._snap.event_vectors

    @property
    def n_users(self) -> int:
        """Rows of the user embedding matrix (valid query user range)."""
        return int(self.user_vectors.shape[0])

    @property
    def n_events(self) -> int:
        """Rows of the event embedding matrix."""
        return int(self._snap.event_vectors.shape[0])

    @property
    def is_built(self) -> bool:
        """Whether the primary index has been materialised yet."""
        return self._snap.space is not None

    @property
    def space(self) -> ServedPairs:
        """The served pairs (building them if necessary).

        The 2K+1 :class:`PairSpace` for TA engines, the
        :class:`~repro.online.bruteforce.FactoredBruteForceIndex` for
        brute-force ones; both decode pair indices with ``pair_ids``.
        """
        space = self._built().space
        assert space is not None
        return space

    @property
    def backend(self) -> RetrievalBackend:
        """The built retrieval backend (building it if necessary)."""
        backend = self._built().backend
        assert backend is not None
        return backend

    @property
    def n_candidate_pairs(self) -> int:
        """Candidate pairs in the primary index (builds it if needed)."""
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes of the built index (0 before first build)."""
        backend = self._snap.backend
        return 0 if backend is None else backend.memory_bytes()

    def index_age_s(self) -> float:
        """Seconds since the served index was last built or refreshed.

        ``-1.0`` before the first build.  This is the *staleness age*
        the metrics exporter publishes as ``repro_index_age_seconds``
        (ROADMAP item 2): together with :attr:`version` it tells an
        operator how far the served index lags the trainer.  Measured on
        the monotonic clock; thread-safe.
        """
        built = self._snap.built_monotonic
        if built is None:
            return -1.0
        return time.monotonic() - built

    def build_profile(self) -> dict:
        """Per-phase breakdown of build work (:data:`BUILD_PHASES`).

        Shape matches :meth:`repro.utils.profiling.Profiler.as_dict` —
        the same report format the offline trainer emits — covering every
        build performed through the attached profiler so far (all empty
        when the engine was constructed without one).  Taken under the
        build lock so a concurrent refresh cannot tear the snapshot.
        """
        with self._build_lock:
            return self.profiler.as_dict()

    def cache_info(self) -> dict:
        """Result-cache occupancy: ``{"size": ..., "max_size": ...}``."""
        with self._cache_lock:
            return {"size": len(self._cache), "max_size": self.cache_size}

    # ------------------------------------------------------------------
    # offline: build / refresh
    def _effective_top_k(self, n_candidates: int) -> int | None:
        if self.top_k_events is not None:
            return self.top_k_events
        if self._prunes_by_default:
            return max(1, int(round(DEFAULT_PRUNED_FRACTION * n_candidates)))
        return None

    def _built(self) -> IndexSnapshot:
        """The published snapshot, building the primary index first if needed.

        Double-checked under the build lock, so only one thread builds.
        """
        snap = self._snap
        if snap.space is None:
            with self._build_lock:
                if self._snap.space is None:
                    self._snap = self._build(self._snap)
                snap = self._snap
        return snap

    def warm(self) -> "ServingEngine":
        """Build the index now (otherwise it happens on first query).

        Idempotent and safe to call from multiple threads; only one
        thread performs the build.
        """
        self._built()
        return self

    def warm_ladder(self) -> "ServingEngine":
        """Build every degradation rung now (primary + sibling indices).

        The ``pruned`` rung serves from a per-partner top-k pruned
        sibling TA index; the ``ivf`` rung (opt-in via ``ivf_clusters``)
        from a clustered inverted-file sibling over the primary space.
        A rung is only eligible once its sibling has been built (a cold
        rung is skipped downward rather than paying its build inside
        someone's deadline).  When the primary index is itself pruned
        the pruned sibling is redundant and skipped.  Call this before
        opening deadline-scoped traffic; the pruned sibling is dropped
        (and rebuilt on the next call) by :meth:`rebuild` /
        :meth:`refresh`, while the ivf sibling *survives* a refresh —
        it absorbs the appended rows through its incremental ``extend``
        path — and is only dropped by :meth:`rebuild`.
        """
        self._built()
        with self._build_lock:
            snap = self._snap
            assert snap.space is not None
            pruned, ivf = snap.pruned, snap.ivf
            n_cand = snap.candidate_events.size
            if pruned is None and self._effective_top_k(n_cand) is None:
                k = max(1, int(round(DEFAULT_PRUNED_FRACTION * n_cand)))
                with _Timer() as t, self.profiler.phase("build.pruned_sibling"):
                    space = build_pruned_pair_space(
                        np.asarray(
                            snap.event_vectors[snap.candidate_events],
                            dtype=np.float64,
                        ),
                        _candidate_rows(
                            self.user_vectors, self.candidate_partners
                        ),
                        k,
                        event_ids=snap.candidate_events,
                        partner_ids=self.candidate_partners,
                    )
                    space.version = snap.version
                    pruned = ThresholdAlgorithmIndex(space)
                self.build_stats.n_pairs_transformed += space.n_pairs
                self.build_stats.seconds_building += t.seconds
            if ivf is None and self.ivf_clusters is not None:
                with _Timer() as ti, self.profiler.phase("build.ivf_sibling"):
                    primary = snap.space
                    ivf = IVFIndex(
                        primary.to_pair_space()
                        if isinstance(primary, FactoredBruteForceIndex)
                        else primary,
                        n_clusters=self.ivf_clusters,
                        nprobe=self.ivf_nprobe,
                    )
                self.build_stats.seconds_building += ti.seconds
            self._snap = replace(snap, pruned=pruned, ivf=ivf)
        return self

    def _build(self, base: IndexSnapshot) -> IndexSnapshot:
        """``base`` with its primary index built (caller holds the build lock)."""
        # Candidate events are few — gather them eagerly; the partner
        # slice can be millions of memmap rows, so it stays lazy when
        # contiguous (the pruned build chunks it; widening at the point
        # of use keeps results bit-identical to the eager float64 path).
        ev = np.asarray(
            base.event_vectors[base.candidate_events], dtype=np.float64
        )
        pa = _candidate_rows(self.user_vectors, self.candidate_partners)
        k = self._effective_top_k(base.candidate_events.size)
        backend = create_backend(self.backend_name)
        with self.tracer.start(
            "engine.build", version=base.version, backend=self.backend_name
        ) as bs, _Timer() as t:
            fault_point("backend.build", span=bs)
            space: ServedPairs
            if not backend.needs_pair_space:
                # Factored brute force: no 2K+1 transform at all.
                with self.profiler.phase("build.index"):
                    space = FactoredBruteForceIndex.build(
                        ev,
                        pa,
                        event_ids=base.candidate_events,
                        partner_ids=self.candidate_partners,
                        top_k=k,
                        version=base.version,
                    )
                    backend.build(space)
            else:
                with self.profiler.phase("build.transform"):
                    if k is not None:
                        space = build_pruned_pair_space(
                            ev,
                            pa,
                            k,
                            event_ids=base.candidate_events,
                            partner_ids=self.candidate_partners,
                        )
                    else:
                        space = transform_all_pairs(
                            ev,
                            pa,
                            event_ids=base.candidate_events,
                            partner_ids=self.candidate_partners,
                        )
                    space.version = base.version
                with self.profiler.phase("build.index"):
                    backend.build(space)
        self.build_stats.n_full_builds += 1
        self.build_stats.n_pairs_transformed += space.n_pairs
        self.build_stats.seconds_building += t.seconds
        return replace(
            base,
            space=space,
            backend=backend,
            pruned=None,
            ivf=None,
            built_monotonic=time.monotonic(),
        )

    def rebuild(self) -> None:
        """Cold rebuild under a new version (reapplies pruning).

        Serialised on the build lock and published whole, like
        :meth:`refresh`.  Drops the pruned and ivf siblings (and the
        append buffers) — re-warm with :meth:`warm_ladder`.
        """
        with self._build_lock:
            self._buf_points = None
            self._buf_partners = None
            self._buf_events = None
            snap = self._snap
            self._snap = self._build(replace(snap, version=snap.version + 1))
            self._clear_result_cache()

    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """Fold new events into the served candidate space incrementally.

        ``new_event_ids`` are global event ids; pass ``new_event_vectors``
        (``(len(ids), K)``, e.g. from
        :meth:`repro.core.fold_in.EventFoldIn.fold_in_many`) when the ids
        extend the embedding matrix — they must then be exactly the row
        indices being appended.  Ids already served are skipped.

        Only the *new* (event × partner) pairs are computed and the
        backend absorbs them via its incremental ``extend`` path — the
        pre-existing pair rows are not recomputed (pruned engines keep
        all pairs of a fresh event until the next :meth:`rebuild`, since
        cold-start events are exactly what the online system must not
        prune away).  Bumps the served version, invalidates the result
        cache (the stale-answer cache intentionally survives) and drops
        the pruned sibling rung until the next :meth:`warm_ladder`; a
        warmed ivf sibling is *kept* — it absorbs the new pairs through
        its own incremental ``extend``.  The new rows are appended into
        geometrically over-allocated buffers, so a fold-in costs O(new
        pairs) amortised instead of copying the whole space
        (docs/OPERATIONS.md §10).  Safe under traffic: the next
        snapshot is built beside the served one and published with one
        attribute store, so each query sees the old version or the new
        one, never a mixture.  Serialised on the build lock.  Returns
        the number of events actually added.
        """
        with self._build_lock:
            snap, added = self._refreshed(
                self._snap, new_event_ids, new_event_vectors
            )
            if added:
                self._snap = snap
                self._clear_result_cache()
            return added

    def _refreshed(
        self,
        snap: IndexSnapshot,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None,
    ) -> tuple[IndexSnapshot, int]:
        """The snapshot after folding the events in, and how many were new."""
        new_event_ids = np.atleast_1d(
            np.asarray(new_event_ids, dtype=np.int64)
        )
        event_vectors = snap.event_vectors
        n_events = int(event_vectors.shape[0])
        if new_event_vectors is not None:
            new_event_vectors = np.asarray(
                new_event_vectors, dtype=np.float64
            )
            if new_event_vectors.ndim != 2 or new_event_vectors.shape[0] != new_event_ids.size:
                raise ValueError(
                    "new_event_vectors must be (len(new_event_ids), K), "
                    f"got {new_event_vectors.shape}"
                )
            if new_event_vectors.shape[1] != event_vectors.shape[1]:
                raise ValueError(
                    f"new event vectors have dim "
                    f"{new_event_vectors.shape[1]}, expected "
                    f"{event_vectors.shape[1]}"
                )
            expected = np.arange(
                n_events, n_events + new_event_ids.size, dtype=np.int64
            )
            if not np.array_equal(np.sort(new_event_ids), expected):
                raise ValueError(
                    "new_event_ids must be exactly the appended embedding "
                    f"rows {expected[0]}..{expected[-1]}"
                )
            order = np.argsort(new_event_ids)
            # Extending the event matrix materialises it in-process (the
            # memmap store is append-immutable once frozen); the *user*
            # matrix — the one that scales with millions of users — stays
            # a zero-copy view.
            event_vectors = np.vstack(
                [
                    np.asarray(event_vectors, dtype=np.float64),
                    new_event_vectors[order],
                ]
            )
        elif new_event_ids.size and new_event_ids.max() >= n_events:
            raise ValueError(
                f"event id {int(new_event_ids.max())} is outside the "
                f"embedding matrix ({n_events} events); pass "
                "new_event_vectors to extend it"
            )

        fresh = new_event_ids[
            ~np.isin(new_event_ids, snap.candidate_events)
        ]
        if fresh.size == 0:
            return snap, 0
        version = snap.version + 1
        candidates = np.concatenate([snap.candidate_events, fresh])
        old = snap.space
        if old is None:
            # Not built yet: the (lazy) first build will cover everything.
            return (
                replace(
                    snap,
                    version=version,
                    candidate_events=candidates,
                    event_vectors=event_vectors,
                ),
                int(fresh.size),
            )

        assert snap.backend is not None
        fresh_vectors = np.asarray(event_vectors[fresh], dtype=np.float64)
        ivf = snap.ivf
        combined: ServedPairs
        with _Timer() as t:
            if isinstance(old, FactoredBruteForceIndex):
                with self.profiler.phase("build.index"):
                    combined = old.extended(
                        fresh_vectors, fresh, version=version
                    )
                    backend = snap.backend.extend(combined, old.n_pairs)
                if ivf is not None:
                    with self.profiler.phase("build.ivf_sibling"):
                        ivf = ivf.extend(
                            self._append_pairs(
                                ivf.space,
                                combined.to_pair_space(old.n_pairs),
                                version,
                            ),
                            old.n_pairs,
                        )
            else:
                with self.profiler.phase("build.transform"):
                    block = transform_all_pairs(
                        fresh_vectors,
                        np.asarray(
                            self.user_vectors[self.candidate_partners],
                            dtype=np.float64,
                        ),
                        event_ids=fresh,
                        partner_ids=self.candidate_partners,
                    )
                    combined = self._append_pairs(old, block, version)
                with self.profiler.phase("build.index"):
                    backend = snap.backend.extend(combined, old.n_pairs)
                if ivf is not None:
                    with self.profiler.phase("build.ivf_sibling"):
                        ivf = ivf.extend(combined, old.n_pairs)
        self.build_stats.n_incremental_refreshes += 1
        self.build_stats.n_pairs_transformed += combined.n_pairs - old.n_pairs
        self.build_stats.seconds_building += t.seconds
        return (
            IndexSnapshot(
                version=version,
                candidate_events=candidates,
                event_vectors=event_vectors,
                space=combined,
                backend=backend,
                pruned=None,
                ivf=ivf,
                built_monotonic=time.monotonic(),
            ),
            int(fresh.size),
        )

    def _append_pairs(
        self, old: PairSpace, block: PairSpace, version: int
    ) -> PairSpace:
        """Append ``block``'s rows after ``old``'s without copying ``old``.

        A published :class:`PairSpace` is a prefix *view* of growable
        buffers owned by the engine.  When the buffers have room the new
        rows are written past the prefix and a longer view is returned —
        O(new pairs), not O(all pairs).  When they do not (first fold-in
        after a build/rebuild, or capacity exhausted), buffers of
        ``max(need, growth * old)`` rows are allocated and the old prefix
        is copied once; geometric growth makes the copy amortised O(1)
        per appended row.  Safe with concurrent readers: rows in the old
        prefix are never mutated after publication, so a reader holding
        the previous (shorter) view observes frozen data while the writer
        fills rows beyond that view's end.  Caller holds the build lock.
        """
        need = old.n_pairs + block.n_pairs
        fits = (
            self._buf_points is not None
            and old.points.base is self._buf_points
            and need <= self._buf_points.shape[0]
        )
        if not fits:
            cap = max(need, int(_PAIR_BUFFER_GROWTH * old.n_pairs))
            self._buf_points = np.empty((cap, old.dim), dtype=np.float64)
            self._buf_partners = np.empty(cap, dtype=np.int64)
            self._buf_events = np.empty(cap, dtype=np.int64)
            self._buf_points[: old.n_pairs] = old.points
            self._buf_partners[: old.n_pairs] = old.partner_ids
            self._buf_events[: old.n_pairs] = old.event_ids
        assert self._buf_points is not None
        assert self._buf_partners is not None
        assert self._buf_events is not None
        self._buf_points[old.n_pairs : need] = block.points
        self._buf_partners[old.n_pairs : need] = block.partner_ids
        self._buf_events[old.n_pairs : need] = block.event_ids
        return PairSpace(
            points=self._buf_points[:need],
            partner_ids=self._buf_partners[:need],
            event_ids=self._buf_events[:need],
            version=version,
        )

    # ------------------------------------------------------------------
    # online: queries
    def _record(self, stats: QueryStats) -> None:
        self.metrics.record(stats)

    def _clear_result_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    def _cache_get(self, key: tuple) -> RetrievalResult | None:
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
            return result

    def _cache_put(self, key: tuple, result: RetrievalResult) -> None:
        if self.cache_size == 0:
            return
        with self._cache_lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            # replint: allow-loop(LRU eviction pops at most one stale entry)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def _stale_put(
        self,
        version: int,
        user: int,
        n: int,
        result: RetrievalResult,
        space: ServedPairs,
    ) -> None:
        """Remember the freshest good answer for (user, n) across versions."""
        if self.stale_cache_size == 0:
            return
        with self._cache_lock:
            self._stale[(user, n)] = (version, result, space)
            self._stale.move_to_end((user, n))
            # replint: allow-loop(LRU eviction pops at most one stale entry)
            while len(self._stale) > self.stale_cache_size:
                self._stale.popitem(last=False)

    def _stale_get(
        self, user: int, n: int
    ) -> tuple[int, RetrievalResult, ServedPairs] | None:
        with self._cache_lock:
            entry = self._stale.get((user, n))
            if entry is not None:
                self._stale.move_to_end((user, n))
            return entry

    def query(self, user: int, n: int) -> RetrievalResult:
        """Raw retrieval result with access statistics.

        Thread-safe; no deadline — the configured backend runs to
        completion (rung ``full`` in the recorded stats).
        """
        user = validate_user(user, self.n_users)
        return self._query(self._built(), user, int(n))

    def _query(self, snap: IndexSnapshot, user: int, n: int) -> RetrievalResult:
        """:meth:`query` against one snapshot (the sharded fan-out leg)."""
        assert snap.space is not None and snap.backend is not None
        key = (snap.version, user, n)
        with self.tracer.start(
            "engine.query", user=user, n=n, backend=self.backend_name
        ) as root, _Timer() as total:
            cached = self._cache_get(key)
            if cached is not None:
                result = cached
                t_q = t_r = 0.0
            else:
                with _Timer() as tq:
                    q = query_vector(
                        np.asarray(self.user_vectors[user], dtype=np.float64)
                    )
                with root.child("retrieval") as rs, _Timer() as tr:
                    fault_point("backend.query", span=rs)
                    result = snap.backend.query(q, n, exclude=user)
                t_q, t_r = tq.seconds, tr.seconds
                with root.child("cache.write"):
                    self._cache_put(key, result)
                    self._stale_put(snap.version, user, n, result, snap.space)
            root.tag(cache_hit=cached is not None, version=snap.version)
        self._record(
            QueryStats(
                user=user,
                n=n,
                backend=self.backend_name,
                version=snap.version,
                n_candidates=snap.space.n_pairs,
                n_examined=0 if cached is not None else result.n_examined,
                n_sorted_accesses=(
                    0 if cached is not None else result.n_sorted_accesses
                ),
                fraction_examined=(
                    0.0 if cached is not None else result.fraction_examined
                ),
                seconds_total=total.seconds,
                seconds_query_vector=t_q,
                seconds_retrieval=t_r,
                cache_hit=cached is not None,
                n_clusters_probed=(
                    0 if cached is not None else result.n_clusters_probed
                ),
                exact=result.exact,
            )
        )
        return result

    def recommend(self, user: int, n: int = 10) -> list[Recommendation]:
        """Top-n event-partner recommendations for ``user`` (no deadline)."""
        user = validate_user(user, self.n_users)
        snap = self._built()
        assert snap.space is not None
        return _decode(self._query(snap, user, int(n)), snap.space)

    def recommend_batch(
        self, users: np.ndarray, n: int = 10
    ) -> list[list[Recommendation]]:
        """Top-n recommendations for many users in one engine pass.

        Query vectors for all cache misses are built with one vectorised
        concatenation, and backends exposing ``query_batch`` (brute
        force) answer the whole batch with a single candidate-matrix
        product.  Results are identical to calling :meth:`recommend` per
        user.  Thread-safe, but intended as a single caller's bulk path
        — for concurrent deadline-scoped traffic use
        :func:`repro.serving.lifecycle.recommend_many`.
        """
        user_list = validate_users(users, self.n_users)
        snap = self._built()
        assert snap.space is not None
        return [
            _decode(r, snap.space)
            for r in self._query_batch(snap, user_list, int(n))
        ]

    def query_batch(
        self, users: np.ndarray, n: int = 10
    ) -> list[RetrievalResult]:
        """Raw batched retrieval results, one per input user.

        The engine pass behind :meth:`recommend_batch` (identical
        caching, telemetry, and ordering); exposed separately so callers
        can reach the scores and pair indices before decoding.
        Thread-safe, no deadline.
        """
        user_list = validate_users(users, self.n_users)
        return self._query_batch(self._built(), user_list, int(n))

    def _query_batch(
        self, snap: IndexSnapshot, users: list[int], n: int
    ) -> list[RetrievalResult]:
        """:meth:`query_batch` against one snapshot (validated users)."""
        assert snap.space is not None and snap.backend is not None
        backend = snap.backend
        results: dict[int, RetrievalResult] = {}
        hit_flags: dict[int, bool] = {}
        misses: list[int] = []
        with self.tracer.start(
            "engine.query_batch", n_users=len(users), n=n,
            backend=self.backend_name,
        ) as root, _Timer() as total:
            pending: set[int] = set()
            # replint: allow-loop(per-user cache/dedup bookkeeping, O(batch))
            for u in users:
                cached = self._cache_get((snap.version, u, n))
                if cached is not None:
                    results[u] = cached
                    hit_flags[u] = True
                elif u not in pending:
                    pending.add(u)
                    misses.append(u)
            t_q = t_r = 0.0
            if misses:
                miss_arr = np.array(misses, dtype=np.int64)
                with _Timer() as tq:
                    uv = np.asarray(
                        self.user_vectors[miss_arr], dtype=np.float64
                    )
                    queries = np.concatenate(
                        [uv, uv, np.ones((uv.shape[0], 1))], axis=1
                    )
                with root.child(
                    "retrieval", n_misses=len(misses)
                ) as rs, _Timer() as tr:
                    fault_point("backend.batch", span=rs)
                    if hasattr(backend, "query_batch"):
                        batch = backend.query_batch(
                            queries, n, excludes=miss_arr
                        )
                    else:
                        batch = [
                            backend.query(queries[i], n, exclude=u)
                            for i, u in enumerate(misses)
                        ]
                t_q, t_r = tq.seconds, tr.seconds
                with root.child("cache.write"):
                    # replint: allow-loop(cache insertion per miss, O(batch))
                    for u, result in zip(misses, batch, strict=True):
                        results[u] = result
                        hit_flags[u] = False
                        self._cache_put((snap.version, u, n), result)
                        self._stale_put(snap.version, u, n, result, snap.space)
            root.tag(n_cache_hits=len(users) - len(misses))
        # Amortise the batch wall-clock evenly across the recorded queries.
        per_query = total.seconds / max(len(users), 1)
        per_q = t_q / max(len(misses), 1)
        per_r = t_r / max(len(misses), 1)
        # replint: allow-loop(telemetry record per query, O(batch))
        for u in users:
            hit = hit_flags[u]
            result = results[u]
            self._record(
                QueryStats(
                    user=u,
                    n=n,
                    backend=self.backend_name,
                    version=snap.version,
                    n_candidates=snap.space.n_pairs,
                    n_examined=0 if hit else result.n_examined,
                    n_sorted_accesses=0 if hit else result.n_sorted_accesses,
                    fraction_examined=0.0 if hit else result.fraction_examined,
                    seconds_total=per_query,
                    seconds_query_vector=0.0 if hit else per_q,
                    seconds_retrieval=0.0 if hit else per_r,
                    cache_hit=hit,
                    batched=True,
                    n_clusters_probed=0 if hit else result.n_clusters_probed,
                    exact=result.exact,
                )
            )
        return [results[u] for u in users]

    # ------------------------------------------------------------------
    # online: deadline-aware queries (the request lifecycle)
    def _run_full(
        self,
        snap: IndexSnapshot,
        q: np.ndarray,
        user: int,
        n: int,
        remaining_s: float,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        fault_point("backend.query", span=span)
        backend = snap.backend
        assert backend is not None
        if backend.supports_budget:
            return backend.query(  # type: ignore[call-arg]
                q, n, exclude=user, budget_s=max(remaining_s, 1e-4)
            )
        return backend.query(q, n, exclude=user)

    def _run_pruned(
        self,
        snap: IndexSnapshot,
        q: np.ndarray,
        user: int,
        n: int,
        remaining_s: float,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        fault_point("backend.pruned", span=span)
        if snap.pruned is None:
            raise RuntimeError("pruned rung not warmed; call warm_ladder()")
        return snap.pruned.query_extended(
            q, n, exclude_partner=user, budget_s=max(remaining_s, 1e-4)
        )

    def _run_ivf(
        self,
        snap: IndexSnapshot,
        q: np.ndarray,
        user: int,
        n: int,
        remaining_s: float,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        """Scan the ``nprobe`` nearest coarse clusters of the ivf sibling.

        Cost is governed by the probe width (a recall knob), not the
        candidate count — the sublinear rung between ``pruned`` and
        ``truncated``.  The result carries ``n_clusters_probed`` for the
        per-query telemetry.
        """
        fault_point("backend.ivf", span=span)
        if snap.ivf is None:
            raise RuntimeError("ivf rung not warmed; call warm_ladder()")
        return snap.ivf.query_extended(q, n, exclude_partner=user)

    def _run_truncated(
        self,
        snap: IndexSnapshot,
        q: np.ndarray,
        user: int,
        n: int,
        remaining_s: float,
        span: Span = NULL_SPAN,
    ) -> RetrievalResult:
        """Brute-force a budget-sized prefix of the candidate pairs.

        The prefix length is planned from an EWMA of observed scan
        throughput so the rung adapts to the hardware it runs on; the
        answer is the exact top-n *of the scanned prefix* (``exact``
        only when the prefix covered everything).  TA engines scan the
        prefix of their 2K+1 space, brute-force engines that of their
        factored index; both select with the canonical kernel.
        """
        fault_point("backend.truncated", span=span)
        space = snap.space
        assert space is not None
        scan = (
            space
            if isinstance(space, FactoredBruteForceIndex)
            else BruteForceIndex(space)
        )
        # Snapshot the throughput estimate under the cache lock: the EWMA
        # is shared mutable state updated by every concurrent truncated
        # query (REP007 guards it).
        with self._cache_lock:
            rows_per_s = self._trunc_rows_per_s
        planned = int(
            rows_per_s * max(remaining_s, 1e-4) * _TRUNC_BUDGET_FRACTION
        )
        m = max(min(space.n_pairs, planned), min(space.n_pairs, 8 * n))
        with _Timer() as t:
            result = scan.query_extended(q, n, exclude_partner=user, limit=m)
        if t.seconds > 0:
            observed = m / t.seconds
            with self._cache_lock:
                self._trunc_rows_per_s = (
                    0.3 * observed + 0.7 * self._trunc_rows_per_s
                )
        return result

    def _serve_stale(
        self,
        snap: IndexSnapshot,
        user: int,
        n: int,
        ctx: RequestContext,
        span: Span = NULL_SPAN,
    ) -> RequestOutcome:
        """Terminal rung: replay the last good answer, or shed."""
        with span.child("rung.stale_cache", rung="stale_cache") as rs:
            entry = self._stale_get(user, n)
            if entry is None:
                rs.tag(hit=False)
                self.metrics.record_shed(SHED_DEADLINE_EXPIRED)
                outcome = RequestOutcome(
                    user=user,
                    n=n,
                    answered=False,
                    shed_reason=SHED_DEADLINE_EXPIRED,
                )
                stamp_outcome(span, outcome)
                return outcome
            version, result, space = entry
            rs.tag(hit=True, stale_version=version)
            assert snap.space is not None
            stats = QueryStats(
                user=user,
                n=n,
                backend=self.backend_name,
                version=version,
                n_candidates=snap.space.n_pairs,
                n_examined=0,
                n_sorted_accesses=0,
                fraction_examined=0.0,
                seconds_total=ctx.elapsed(),
                cache_hit=True,
                rung="stale_cache",
                deadline_budget_s=ctx.budget_s,
                deadline_remaining_s=ctx.remaining(),
                deadline_met=not ctx.expired(),
                queue_wait_s=ctx.queue_wait_s,
                exact=False,
                stale=True,
            )
            self._record(stats)
            outcome = RequestOutcome(
                user=user,
                n=n,
                answered=True,
                recommendations=_decode(result, space),
                stats=stats,
            )
        stamp_outcome(span, outcome)
        return outcome

    def recommend_within(
        self,
        user: int,
        n: int = 10,
        *,
        budget_s: float | None = None,
        ctx: RequestContext | None = None,
    ) -> RequestOutcome:
        """Serve one request under a deadline budget via the ladder.

        Exactly one of ``budget_s`` (a fresh budget starting now) or
        ``ctx`` (an admission-time context whose budget is already
        draining) must be given.  The engine selects the highest
        degradation rung predicted to fit the remaining budget, steps
        down on rung failure (e.g. injected faults) or overrun, and
        always returns an explicit :class:`RequestOutcome` — an answer
        with the serving rung recorded in its stats, or a shed with a
        reason.  The whole ladder walk reads one snapshot.  Thread-safe.

        Tracing: a root span already parked on ``ctx.span`` (by
        :func:`~repro.serving.lifecycle.recommend_many`) is adopted —
        rung attempts become its children and the submitter owns its
        lifetime.  Otherwise a fresh root is opened and closed here.
        """
        if (budget_s is None) == (ctx is None):
            raise ValueError("pass exactly one of budget_s or ctx")
        if ctx is None:
            assert budget_s is not None
            ctx = RequestContext.with_budget(budget_s)
        user = validate_user(user, self.n_users)
        n = int(n)
        snap = self._built()
        parent = ctx.span
        if parent is not None:
            return self._serve_within(snap, user, n, ctx, parent)
        with self.tracer.start(
            "request",
            user=user,
            n=n,
            backend=self.backend_name,
            budget_s=ctx.budget_s,
        ) as root:
            ctx.span = root
            outcome = self._serve_within(snap, user, n, ctx, root)
        return outcome

    def _serve_within(
        self,
        snap: IndexSnapshot,
        user: int,
        n: int,
        ctx: RequestContext,
        span: Span,
    ) -> RequestOutcome:
        """The ladder walk behind :meth:`recommend_within`, on one snapshot.

        ``span`` is the request's root span (possibly ``NULL_SPAN``);
        every exit path stamps its outcome onto it via
        :func:`~repro.obs.tracing.stamp_outcome` — the caller owns the
        span's lifetime.
        """
        assert snap.space is not None

        # A version-current cached result is a free exact answer.
        cached = self._cache_get((snap.version, user, n))
        if cached is not None:
            stats = QueryStats(
                user=user,
                n=n,
                backend=self.backend_name,
                version=snap.version,
                n_candidates=snap.space.n_pairs,
                n_examined=0,
                n_sorted_accesses=0,
                fraction_examined=0.0,
                seconds_total=ctx.elapsed(),
                cache_hit=True,
                rung="full",
                deadline_budget_s=ctx.budget_s,
                deadline_remaining_s=ctx.remaining(),
                deadline_met=not ctx.expired(),
                queue_wait_s=ctx.queue_wait_s,
                exact=True,
            )
            self._record(stats)
            outcome = RequestOutcome(
                user=user,
                n=n,
                answered=True,
                recommendations=_decode(cached, snap.space),
                stats=stats,
            )
            stamp_outcome(span, outcome)
            return outcome

        available = snap.rungs
        first = self.ladder.select(ctx.remaining(), available=available)
        runners = {
            "full": self._run_full,
            "pruned": self._run_pruned,
            "ivf": self._run_ivf,
            "truncated": self._run_truncated,
        }
        q = query_vector(
            np.asarray(self.user_vectors[user], dtype=np.float64)
        )
        # replint: allow-loop(<= 5 ladder rungs per request, not candidates)
        for rung in available[available.index(first):]:
            if rung == "stale_cache":
                return self._serve_stale(snap, user, n, ctx, span)
            try:
                with span.child(
                    "rung." + rung, rung=rung
                ) as rung_span, _Timer() as t:
                    result = runners[rung](
                        snap, q, user, n, ctx.remaining(), rung_span
                    )
            except (InjectedFault, RuntimeError):
                continue  # rung failed: step down
            self.ladder.observe(rung, t.seconds)
            if result.pair_indices.size == 0 and not result.exact:
                rung_span.tag(discarded=True)
                continue  # budget ran out before anything was scored
            serving_space = (
                snap.pruned.space
                if rung == "pruned" and snap.pruned is not None
                else snap.space
            )
            exact = result.exact and rung == "full"
            with span.child("cache.write"):
                if exact:
                    self._cache_put((snap.version, user, n), result)
                self._stale_put(snap.version, user, n, result, serving_space)
            stats = QueryStats(
                user=user,
                n=n,
                backend=self.backend_name,
                version=snap.version,
                n_candidates=snap.space.n_pairs,
                n_examined=result.n_examined,
                n_sorted_accesses=result.n_sorted_accesses,
                fraction_examined=result.fraction_examined,
                seconds_total=ctx.elapsed(),
                seconds_retrieval=t.seconds,
                rung=rung,
                n_clusters_probed=result.n_clusters_probed,
                deadline_budget_s=ctx.budget_s,
                deadline_remaining_s=ctx.remaining(),
                deadline_met=not ctx.expired(),
                queue_wait_s=ctx.queue_wait_s,
                exact=exact,
                stale=False,
            )
            self._record(stats)
            outcome = RequestOutcome(
                user=user,
                n=n,
                answered=True,
                recommendations=_decode(result, serving_space),
                stats=stats,
            )
            stamp_outcome(span, outcome)
            return outcome
        return self._serve_stale(snap, user, n, ctx, span)


def _decode(result: RetrievalResult, space: ServedPairs) -> list[Recommendation]:
    """A result's pairs as recommendations, decoded against ``space``."""
    return [
        Recommendation(event=e, partner=p, score=s)
        for e, p, s in result.pairs(space)
    ]
