"""Tests for streaming ingestion: snapshot publication + fold-in pump.

The load-bearing test is :meth:`TestSnapshotPublication.
test_fold_into_engine_old_or_new_only`: concurrent queries against an
engine being folded into must only ever observe *complete* index
versions — each recorded ``(version, n_candidates)`` pair matches a
published version exactly, and every exact answer is the float64
oracle's top-n of the version it reports.
"""

import threading

import numpy as np
import pytest

from repro.core.embeddings import EmbeddingSet
from repro.core.fold_in import EventFoldIn, FoldInConfig
from repro.data import ArrivalTraceConfig, generate_arrival_trace
from repro.data.synthetic import SyntheticConfig
from repro.ebsn.graphs import EntityType
from repro.ebsn.regions import RegionAssignment
from repro.ebsn.text import build_vocabulary
from repro.ebsn.timeslots import N_TIME_SLOTS
from repro.online.ta import ThresholdAlgorithmIndex
from repro.serving import (
    DoubleBufferedEngine,
    FoldInPump,
    LadderPolicy,
    MetricsRegistry,
    ServingEngine,
    ShardedServingEngine,
)

DIM = 8
SYN = SyntheticConfig(n_topics=3, words_per_topic=10, n_common_words=8)


def make_vectors(users, events, seed):
    rng = np.random.default_rng(seed)
    user_vectors = np.abs(rng.normal(size=(users, DIM))).astype(np.float32)
    event_vectors = np.abs(rng.normal(size=(events, DIM))).astype(np.float32)
    return user_vectors, event_vectors


def make_engine(*, users=30, events=40, seed=7, **kwargs) -> ServingEngine:
    """A warmed TA engine over one synthetic model, no result cache."""
    user_vectors, event_vectors = make_vectors(users, events, seed)
    kwargs.setdefault("backend", "ta")
    return ServingEngine(
        user_vectors,
        event_vectors,
        np.arange(events, dtype=np.int64),
        cache_size=0,
        **kwargs,
    ).warm()


def make_front(*, users=30, events=40, seed=7) -> DoubleBufferedEngine:
    """Twin engines over one synthetic model, shared telemetry."""
    metrics = MetricsRegistry()
    ladder = LadderPolicy()

    def replica() -> ServingEngine:
        user_vectors, event_vectors = make_vectors(users, events, seed)
        return ServingEngine(
            user_vectors,
            event_vectors,
            np.arange(events, dtype=np.int64),
            backend="ta",
            cache_size=0,
            metrics=metrics,
            ladder=ladder,
        )

    return DoubleBufferedEngine(replica(), replica()).warm_ladder()


def make_folder(seed=3) -> EventFoldIn:
    """A fold-in learner over a tiny attribute world matching ``SYN``."""
    documents = [
        [f"t{t}w{i}" for i in range(SYN.words_per_topic)]
        for t in range(SYN.n_topics)
    ] + [[f"common{i}" for i in range(SYN.n_common_words)]]
    vocabulary = build_vocabulary(documents)
    n_regions = 4
    rng = np.random.default_rng(seed)
    centroids = np.column_stack(
        [
            SYN.city_lat + rng.normal(0.0, 0.05, size=n_regions),
            SYN.city_lon + rng.normal(0.0, 0.05, size=n_regions),
        ]
    )
    regions = RegionAssignment(
        venue_ids=[f"r{i}" for i in range(n_regions)],
        labels=np.arange(n_regions),
        n_regions=n_regions,
        n_clustered_regions=n_regions,
        centroids=centroids,
    )
    embeddings = EmbeddingSet.random(
        {
            EntityType.WORD: len(vocabulary),
            EntityType.TIME: N_TIME_SLOTS,
            EntityType.LOCATION: n_regions,
        },
        DIM,
        rng=rng,
    )
    return EventFoldIn(embeddings, vocabulary, regions)


def make_arrivals(n, *, seed=5, **kwargs):
    trace = ArrivalTraceConfig(
        n_arrivals=n, duration_s=0.2, seed=seed, **kwargs
    )
    return generate_arrival_trace(SYN, trace)


def fold_vectors(rng, n):
    return np.abs(rng.normal(size=(n, DIM))).astype(np.float32)


class TestArrivalTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalTraceConfig(n_arrivals=0).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(duration_s=0.0).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(flash_crowds=-1).validate()
        with pytest.raises(ValueError):
            ArrivalTraceConfig(flash_crowd_mass=1.5).validate()

    def test_deterministic_and_sorted(self):
        a = make_arrivals(24, seed=9)
        b = make_arrivals(24, seed=9)
        assert [x.offset_s for x in a] == [x.offset_s for x in b]
        assert [x.event.description for x in a] == [
            x.event.description for x in b
        ]
        offsets = [x.offset_s for x in a]
        assert offsets == sorted(offsets)
        assert all(0.0 <= o <= 0.2 for o in offsets)

    def test_flash_crowd_concentrates_arrivals(self):
        def tightest_half_window(arrivals):
            offsets = sorted(x.offset_s for x in arrivals)
            half = len(offsets) // 2
            return min(
                offsets[i + half] - offsets[i]
                for i in range(len(offsets) - half)
            )

        smooth = make_arrivals(40, seed=9)
        bursty = make_arrivals(
            40,
            seed=9,
            flash_crowds=1,
            flash_crowd_width=0.01,
            flash_crowd_mass=0.9,
        )
        assert tightest_half_window(bursty) < tightest_half_window(smooth) / 2

    def test_tokens_recognised_by_matching_vocabulary(self):
        folder = make_folder()
        events = [a.event for a in make_arrivals(4)]
        vectors = folder.fold_in_many(events, FoldInConfig(n_steps=5))
        assert vectors.shape == (4, DIM)
        assert np.all(np.linalg.norm(vectors, axis=1) > 0)


def _event_vectors(engine):
    if isinstance(engine, ShardedServingEngine):
        return engine.shards[0].event_vectors
    return engine.event_vectors


def _oracle_top_n(user_vectors, event_vectors, candidates, user, n):
    """Canonical float64 Eqn-8 top-n: ``u·x + u'·x + u·u'``, u' != u."""
    users = np.asarray(user_vectors, dtype=np.float64)
    events = np.asarray(event_vectors, dtype=np.float64)[candidates]
    u = users[user]
    scores = (events @ u)[:, None] + events @ users.T + (users @ u)[None, :]
    scores[:, user] = -np.inf
    flat = scores.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:n]
    ev, pa = np.divmod(order, users.shape[0])
    return list(zip(candidates[ev].tolist(), pa.tolist())), flat[order]


def _single(backend, ivf_clusters=None):
    engine = make_engine(
        users=24, events=32, backend=backend, ivf_clusters=ivf_clusters
    )
    return engine.warm_ladder() if ivf_clusters else engine


def _sharded():
    user_vectors, event_vectors = make_vectors(24, 32, 7)
    return ShardedServingEngine(
        user_vectors,
        event_vectors,
        np.arange(32, dtype=np.int64),
        n_shards=2,
        cache_size=0,
        merged_cache_size=0,
    ).warm()


class TestSnapshotPublication:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _single("ta"),
            lambda: _single("bruteforce", ivf_clusters=4),
            _sharded,
        ],
        ids=["ta", "bruteforce-ivf", "sharded-2"],
    )
    def test_fold_into_engine_old_or_new_only(self, make):
        """Concurrent queries during folds see complete versions only."""
        engine = make()
        folder = make_folder()
        events = [a.event for a in make_arrivals(30)]

        def publish(record):
            record[engine.version] = (
                engine.n_candidate_pairs,
                engine.candidate_events.copy(),
                np.array(_event_vectors(engine), dtype=np.float64),
            )

        published: dict = {}
        publish(published)
        stop = threading.Event()
        failures: list[str] = []
        answers: list = []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    user = int(rng.integers(0, 24))
                    out = engine.recommend_within(user, 5, budget_s=5.0)
                    answers.append((user, out))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(f"reader {seed}: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(s,), daemon=True)
            for s in range(4)
        ]
        for t in threads:
            t.start()
        config = FoldInConfig(n_steps=4, seed=2)
        try:
            for event in events:
                folder.fold_into_engine(engine, [event], config)
                publish(published)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            close = getattr(engine, "close", None)
            if close is not None:
                close()
        assert not failures
        assert len(published) == len(events) + 1
        allowed = {(v, rec[0]) for v, rec in published.items()}
        observed = {(r.version, r.n_candidates) for r in engine.metrics.records}
        torn = observed - allowed
        assert not torn, f"half-refreshed index observed: {torn}"
        # The queries actually ran, and spanned the folds.
        assert len({v for v, _ in observed}) > 1
        user_vectors = engine.shards[0].user_vectors if isinstance(
            engine, ShardedServingEngine
        ) else engine.user_vectors
        n_exact = 0
        for user, out in answers:
            assert out.answered and out.stats is not None
            if not out.stats.exact:
                continue
            n_exact += 1
            _n_pairs, candidates, event_vectors = published[out.stats.version]
            pairs, scores = _oracle_top_n(
                user_vectors, event_vectors, candidates, user, 5
            )
            assert [(r.event, r.partner) for r in out.recommendations] == pairs
            np.testing.assert_allclose(
                [r.score for r in out.recommendations], scores, rtol=1e-9
            )
        assert n_exact > 0

    def test_reader_holding_old_snapshot_keeps_old_answer(self, monkeypatch):
        engine = make_engine(users=20, events=24)
        user = 3
        before = engine.query(user, 5)
        v0, pairs0 = engine.version, engine.n_candidate_pairs
        entered, release = threading.Event(), threading.Event()
        real = ThresholdAlgorithmIndex.query_extended

        def parked(self, *args, **kwargs):
            entered.set()
            assert release.wait(10)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ThresholdAlgorithmIndex, "query_extended", parked)
        held: list = []
        reader = threading.Thread(
            target=lambda: held.append(engine.query(user, 5)), daemon=True
        )
        reader.start()
        assert entered.wait(10)
        # The reader has loaded its snapshot and is inside the index scan.
        # Fold in events that dominate every score, so the new version's
        # answer differs from the old one.
        big = np.full((3, DIM), 10.0)
        assert engine.refresh(np.arange(24, 27, dtype=np.int64), big) == 3
        release.set()
        reader.join(timeout=10)
        monkeypatch.undo()
        (old,) = held
        np.testing.assert_array_equal(old.pair_indices, before.pair_indices)
        assert old.scores.tobytes() == before.scores.tobytes()
        held_stats = engine.metrics.records[-1]
        assert (held_stats.version, held_stats.n_candidates) == (v0, pairs0)
        after = engine.recommend(user, 5)
        assert {r.event for r in after} <= {24, 25, 26}
        assert engine.version == v0 + 1


class TestDoubleBufferedEngine:
    def test_replica_validation(self):
        front = make_front()
        a, b = front.replicas
        with pytest.raises(ValueError):
            DoubleBufferedEngine(a, a)
        rng = np.random.default_rng(0)
        smaller = ServingEngine(
            np.abs(rng.normal(size=(3, DIM))).astype(np.float32),
            np.abs(rng.normal(size=(4, DIM))).astype(np.float32),
            np.arange(4, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            DoubleBufferedEngine(a, smaller)

    def test_refresh_flips_and_serves(self):
        front = make_front(events=20)
        rng = np.random.default_rng(1)
        v0, n0 = front.version, front.n_events

        added = front.refresh(
            np.arange(n0, n0 + 3, dtype=np.int64), fold_vectors(rng, 3)
        )
        assert added == 3
        assert front.version == v0 + 1
        assert front.n_events == n0 + 3
        # The folded events are queryable through the front.
        out = front.recommend_within(0, n=5, budget_s=5.0)
        assert out.answered and len(out.recommendations) == 5
        assert front.active.query(1, n=4).pair_indices.size == 4
        # The shadow is never built: one index is resident.
        primary, shadow = front.replicas
        assert front.active is primary
        assert shadow.memory_bytes() == 0 < primary.memory_bytes()

    def test_sharded_replicas_supported(self):
        rng = np.random.default_rng(11)
        user_vectors = np.abs(rng.normal(size=(10, DIM))).astype(np.float32)
        event_vectors = np.abs(rng.normal(size=(12, DIM))).astype(np.float32)

        def replica() -> ShardedServingEngine:
            return ShardedServingEngine(
                user_vectors,
                event_vectors,
                np.arange(12, dtype=np.int64),
                n_shards=2,
                cache_size=0,
            )

        with DoubleBufferedEngine(replica(), replica()) as front:
            front.warm_ladder()
            v0, n0 = front.version, front.n_events
            front.refresh(
                np.arange(n0, n0 + 2, dtype=np.int64), fold_vectors(rng, 2)
            )
            assert (front.version, front.n_events) == (v0 + 1, n0 + 2)
            assert front.active.query(3, n=4).pair_indices.size == 4


class ExplodingFolder:
    """A folder that always fails — exercises the explicit-drop path."""

    def fold_in_many(self, events, config=None):
        raise RuntimeError("boom")


class FlakyFolder:
    """Fails the first ``failures`` folds, then delegates."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures

    def fold_in_many(self, events, config=None):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient")
        return self.inner.fold_in_many(events, config)


class TestFoldInPump:
    def test_knob_validation(self):
        engine = make_engine(events=8)
        folder = make_folder()
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_batch=0)
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_delay_s=-1.0)
        with pytest.raises(ValueError):
            FoldInPump(engine, folder, max_retries=0)
        with pytest.raises(ValueError):
            FoldInPump(engine, folder).replay([], speed=0.0)

    def test_ledger_balances_and_staleness_recorded(self):
        engine = make_engine(events=16)
        base = engine.n_events
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=4,
            max_delay_s=0.01,
        )
        arrivals = make_arrivals(10)
        with pump:
            pump.replay(arrivals, speed=50.0)
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["offered"] == 10
        assert counters["visible"] == 10
        assert counters["dropped"] == 0
        assert counters["pending"] == 0
        assert engine.n_events == base + 10
        records = pump.staleness_records()
        assert sum(r.n_events for r in records) == 10
        versions = [r.version for r in records]
        assert versions == sorted(versions)
        assert all(r.lag_max_s >= r.lag_p50_s >= 0.0 for r in records)
        lag = pump.lag_percentiles()
        assert set(lag) == {"p50", "p95", "p99"}
        summary = pump.summary()
        assert summary["swaps"] == counters["batches"]
        assert engine.version == 1 + counters["batches"]
        assert summary["versions"][-1]["version"] == engine.version

    def test_staleness_records_stay_bounded(self):
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            make_folder(),
            config=FoldInConfig(n_steps=2, seed=2),
            max_batch=1,
            max_delay_s=0.0,
            max_lag_samples=3,
        )
        with pump:
            # One arrival per batch: 7 batches against a bound of 3.
            for arrival in make_arrivals(7):
                pump.offer(arrival.event)
                assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["batches"] == 7
        assert counters["offered"] == (
            counters["visible"] + counters["pending"] + counters["dropped"]
        )
        assert counters["visible"] == 7
        records = pump.staleness_records()
        assert len(records) == 3
        # The newest records survive, still in publication order.
        assert [r.version for r in records] == list(
            range(engine.version - 2, engine.version + 1)
        )
        summary = pump.summary()
        assert [v["version"] for v in summary["versions"]] == [
            r.version for r in records
        ]
        assert summary["visible"] == 7

    def test_persistent_failure_is_an_explicit_drop(self):
        engine = make_engine(events=8)
        base = engine.n_events
        pump = FoldInPump(
            engine,
            ExplodingFolder(),
            max_batch=4,
            max_delay_s=0.0,
            max_retries=3,
            retry_backoff_s=0.0,
        )
        # Offer before starting so both land in one deterministic batch.
        for arrival in make_arrivals(2):
            pump.offer(arrival.event)
        with pump:
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["dropped"] == 2
        assert counters["visible"] == 0
        assert counters["pending"] == 0
        assert counters["errors"] == 3
        assert engine.n_events == base
        assert "boom" in pump.summary()["last_error"]

    def test_transient_failure_retries_to_visible(self):
        engine = make_engine(events=8)
        pump = FoldInPump(
            engine,
            FlakyFolder(make_folder(), failures=2),
            config=FoldInConfig(n_steps=5, seed=2),
            max_batch=8,
            max_delay_s=0.0,
            retry_backoff_s=0.0,
        )
        events = [a.event for a in make_arrivals(3)]
        with pump:
            for event in events:
                pump.offer(event)
            assert pump.drain(timeout_s=30.0)
        counters = pump.counters()
        assert counters["visible"] == 3
        assert counters["dropped"] == 0
        assert counters["errors"] == 2
