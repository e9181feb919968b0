"""Closed/open-loop load harness for the deadline-aware serving path.

Drives a :class:`repro.serving.ServingEngine` with concurrent,
deadline-scoped traffic and emits ``BENCH_serving_load.json`` — the
latency-percentile trajectory (p50/p95/p99 overall and per degradation
rung), shed counters, and the zero-silent-drop accounting check
(``submitted == answered + shed``, always).

Three generator modes:

* **closed loop** (default): ``--workers`` threads each issue the next
  request the moment the previous one completes — throughput-bound,
  measures the engine's service capacity.
* **open loop** (``--mode open --rate HZ``): requests arrive on a fixed
  schedule regardless of completions, queue behind a bounded
  :class:`~repro.serving.lifecycle.AdmissionController`, and shed with
  reason ``queue_full`` when it saturates — latency-under-overload, the
  regime the degradation ladder exists for.
* **capacity** (``--mode capacity --shards 1,2,4``): the million-user
  scale-out curve.  Builds (or reuses, via ``--store-dir``) a frozen
  :class:`~repro.core.store.MemmapStore` sized from ``--preset`` (e.g.
  ``beijing-xl``, >= 1M users), fills it chunk-by-chunk, then for each
  shard count drives a closed loop against a
  :class:`~repro.serving.ShardedServingEngine` mapping the store
  read-only — the embedding matrices stay ``np.memmap`` views end to
  end, never materialised wholesale in the serving process.  Emits the
  rps-vs-shard-count curve as ``BENCH_sharded_load.json``;
  ``--assert-merge-exact`` additionally compares every sampled sharded
  top-n bit-for-bit against a single-index reference engine (the CI
  smoke runs this on the ``tiny`` preset with 2 shards).
* **streaming** (``--mode streaming``): open-loop queries against a
  :class:`~repro.serving.ServingEngine` *while* a
  :class:`~repro.serving.FoldInPump` replays a timestamped synthetic
  arrival trace (flash crowds included) and folds the new events into
  that engine, each batch published as one immutable index snapshot.
  The report adds the streaming ledger (offered = visible +
  dropped, drained), per-version staleness records, and fold-in lag
  percentiles; ``--assert-staleness-bounded`` turns the staleness SLO
  into an exit code.  Emits ``BENCH_streaming_load.json`` — see
  DESIGN.md §11 and docs/OPERATIONS.md §10.

A warmup phase (excluded from all reported stats) trains the
:class:`~repro.serving.lifecycle.LadderPolicy` EWMA estimates, so the
measured phase shows the *steady-state* routing decision, not the
one-time discovery cost of a stalled rung.

Fault injection: ``--faults "backend.query:delay=0.05"`` installs a
:class:`~repro.serving.faults.FaultPlan` (same grammar as the
``REPRO_FAULTS`` environment variable) before traffic starts.  The CI
smoke in scripts/check.sh runs exactly that scenario and asserts p99
within budget and zero silent drops on the tiny synthetic preset::

    PYTHONPATH=src:. python benchmarks/load_harness.py \
        --faults "backend.query:delay=0.05" \
        --assert-p99-within-budget --assert-no-silent-drops

See docs/OPERATIONS.md for how to read the output and size deadlines,
queue depth and workers from it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.embeddings import EmbeddingSet
from repro.core.fold_in import EventFoldIn, FoldInConfig
from repro.core.store import MANIFEST_NAME, MemmapStore
from repro.data import ArrivalTraceConfig, EventArrival, generate_arrival_trace
from repro.data.presets import get_preset
from repro.data.synthetic import SyntheticConfig
from repro.ebsn.graphs import EntityType
from repro.ebsn.regions import RegionAssignment
from repro.ebsn.text import build_vocabulary
from repro.ebsn.timeslots import N_TIME_SLOTS
from repro.obs import (
    FlightRecorder,
    MetricsExporter,
    Tracer,
    audit_trace,
    engine_families,
    flight_families,
    foldin_families,
    registry_families,
    stamp_outcome,
    tracer_families,
)
from repro.serving import (
    RUNGS,
    AdmissionController,
    FoldInPump,
    RequestContext,
    RequestOutcome,
    ServingEngine,
    ShardedServingEngine,
    install,
    parse_faults,
)


def build_engine(
    args: argparse.Namespace, *, tracer: Tracer | None = None
) -> ServingEngine:
    """A warmed engine over a synthetic non-negative embedding model.

    Synthetic on purpose: the harness measures the *serving substrate*
    (ladder, queue, caches), which only needs realistic shapes, not a
    trained model — and CI must not pay for GEM training in a smoke job.
    """
    rng = np.random.default_rng(args.seed)
    user_vectors = np.abs(rng.normal(size=(args.users, args.dim)))
    event_vectors = np.abs(rng.normal(size=(args.events, args.dim)))
    engine = ServingEngine(
        user_vectors,
        event_vectors,
        np.arange(args.events, dtype=np.int64),
        backend=args.backend,
        cache_size=args.cache_size,
        tracer=tracer,
    )
    engine.warm_ladder()
    return engine


@dataclass(slots=True)
class StreamingWorld:
    """Everything the streaming mode drives, bundled for the report."""

    engine: ServingEngine
    pump: FoldInPump
    arrivals: list[EventArrival]
    base_events: int
    trace_config: ArrivalTraceConfig


def build_streaming_world(
    args: argparse.Namespace, *, tracer: Tracer | None = None
) -> StreamingWorld:
    """A warmed engine plus a fold-in pump over synthetic attributes.

    Same synthetic-on-purpose reasoning as :func:`build_engine`, with one
    addition: fold-in needs the *attribute* side of the model (word, time
    slot and region embeddings plus a vocabulary and region map), so a
    small deterministic attribute world is built to match the arrival
    trace's vocabulary (``t{topic}w{i}`` / ``common{i}``).  The pump
    folds straight into the served engine: each refresh is published as
    one snapshot, so telemetry and rung estimates carry across versions.
    """
    rng = np.random.default_rng(args.seed)
    syn = SyntheticConfig(n_topics=6, words_per_topic=30, n_common_words=40)
    documents = [
        [f"t{t}w{i}" for i in range(syn.words_per_topic)]
        for t in range(syn.n_topics)
    ] + [[f"common{i}" for i in range(syn.n_common_words)]]
    vocabulary = build_vocabulary(documents)

    n_regions = 12
    centroids = np.column_stack(
        [
            syn.city_lat + rng.normal(0.0, 0.05, size=n_regions),
            syn.city_lon + rng.normal(0.0, 0.05, size=n_regions),
        ]
    )
    regions = RegionAssignment(
        venue_ids=[f"r{i:02d}" for i in range(n_regions)],
        labels=np.arange(n_regions),
        n_regions=n_regions,
        n_clustered_regions=n_regions,
        centroids=centroids,
    )
    embeddings = EmbeddingSet.random(
        {
            EntityType.USER: args.users,
            EntityType.EVENT: args.events,
            EntityType.WORD: len(vocabulary),
            EntityType.TIME: N_TIME_SLOTS,
            EntityType.LOCATION: n_regions,
        },
        args.dim,
        rng=rng,
    )
    folder = EventFoldIn(embeddings, vocabulary, regions)

    engine = ServingEngine(
        embeddings.of(EntityType.USER),
        embeddings.of(EntityType.EVENT),
        np.arange(args.events, dtype=np.int64),
        backend=args.backend,
        cache_size=args.cache_size,
        tracer=tracer,
    )
    engine.warm_ladder()

    trace = ArrivalTraceConfig(
        n_arrivals=args.arrivals,
        duration_s=args.stream_seconds,
        flash_crowds=args.flash_crowds,
        seed=args.seed + 2,
    )
    arrivals = generate_arrival_trace(syn, trace)
    pump = FoldInPump(
        engine,
        folder,
        config=FoldInConfig(n_steps=args.foldin_steps, seed=args.seed),
        max_batch=args.foldin_batch,
        max_delay_s=args.foldin_delay_ms / 1000.0,
        tracer=tracer,
    )
    return StreamingWorld(
        engine=engine,
        pump=pump,
        arrivals=arrivals,
        base_events=engine.n_events,
        trace_config=trace,
    )


def run_streaming_phase(
    world: StreamingWorld,
    user_ids: np.ndarray,
    *,
    n: int,
    budget_s: float,
    workers: int,
    rate_hz: float,
    queue_depth: int,
    tracer: Tracer | None = None,
) -> list[RequestOutcome]:
    """Open-loop queries while the pump folds the replayed arrival trace.

    A feeder thread replays the trace at wall-clock pace into the pump;
    the caller's thread drives the standard open loop against the engine
    concurrently.  On exit the feeder has finished and the pump has
    drained and stopped, so the streaming ledger in the report is final.
    """
    feeder = threading.Thread(
        target=world.pump.replay,
        args=(world.arrivals,),
        name="arrival-feeder",
        daemon=True,
    )
    world.pump.start()
    feeder.start()
    try:
        return run_open_loop(
            world.engine,
            user_ids,
            n=n,
            budget_s=budget_s,
            workers=workers,
            rate_hz=rate_hz,
            queue_depth=queue_depth,
            tracer=tracer,
        )
    finally:
        feeder.join()
        world.pump.stop(drain=True)


def run_closed_loop(
    engine: ServingEngine,
    user_ids: np.ndarray,
    *,
    n: int,
    budget_s: float,
    workers: int,
) -> list[RequestOutcome]:
    """Each worker issues its next request as soon as the last returns."""
    cursor = {"i": 0}
    lock = threading.Lock()
    outcomes: list[RequestOutcome] = []

    def worker() -> list[RequestOutcome]:
        mine: list[RequestOutcome] = []
        while True:
            with lock:
                i = cursor["i"]
                if i >= user_ids.size:
                    return mine
                cursor["i"] = i + 1
            mine.append(
                engine.recommend_within(
                    int(user_ids[i]), n, budget_s=budget_s
                )
            )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(lambda _: worker(), range(workers)):
            outcomes.extend(chunk)
    return outcomes


def run_open_loop(
    engine: ServingEngine,
    user_ids: np.ndarray,
    *,
    n: int,
    budget_s: float,
    workers: int,
    rate_hz: float,
    queue_depth: int,
    tracer: Tracer | None = None,
) -> list[RequestOutcome]:
    """Fixed-rate arrivals behind a bounded admission queue.

    Arrival pacing is independent of completions (the open-loop
    property), so when service cannot keep up the admission controller
    saturates and sheds with an explicit ``queue_full`` reason instead
    of letting latency grow without bound.  With a ``tracer``, the
    harness-level ``queue_full`` sheds get a stamped root span too (the
    engine only sees admitted requests), so the flight recorder's offer
    stream covers every arrival.
    """
    controller = AdmissionController(queue_depth, metrics=engine.metrics)
    interval = 1.0 / rate_hz
    outcomes: list[RequestOutcome | None] = [None] * user_ids.size

    def serve(i: int, user: int, ctx: RequestContext) -> None:
        span = ctx.span
        try:
            wait_s = ctx.mark_dequeued()
            if span is not None:
                span.annotate("queue.wait", wait_s)
            outcomes[i] = engine.recommend_within(user, n, ctx=ctx)
        finally:
            if span is not None:
                span.finish()
            controller.release()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        t0 = time.perf_counter()
        for i, user in enumerate(user_ids.tolist()):
            target = t0 + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if not controller.try_admit():
                outcome = RequestOutcome(
                    user=user, n=n, answered=False, shed_reason="queue_full"
                )
                outcomes[i] = outcome
                if tracer is not None:
                    shed_span = tracer.request(
                        "request",
                        user=user,
                        n=n,
                        budget_s=budget_s,
                        source="load_harness",
                    )
                    stamp_outcome(shed_span, outcome)
                    shed_span.finish()
                continue
            ctx = RequestContext.with_budget(budget_s)
            if tracer is not None:
                # Root opens at submission (the explicit cross-thread
                # spelling); the worker annotates the wait + finishes.
                ctx.span = tracer.request(
                    "request",
                    user=user,
                    n=n,
                    budget_s=budget_s,
                    source="load_harness",
                )
            pool.submit(serve, i, user, ctx)
    done = [o for o in outcomes if o is not None]
    assert len(done) == user_ids.size, "lost outcomes — silent drop bug"
    return done


def open_capacity_store(
    directory: Path, *, n_users: int, n_events: int, dim: int, seed: int
) -> MemmapStore:
    """A frozen read-only store at ``directory``, creating it if absent.

    Creation never materialises a full matrix: :meth:`fill_random`
    writes bounded chunks straight into the mapped files.  An existing
    store is reused as-is (re-runs skip the fill), after checking its
    shape matches the requested scale.
    """
    if not (directory / MANIFEST_NAME).exists():
        store = MemmapStore.create(
            directory,
            {EntityType.USER: n_users, EntityType.EVENT: n_events},
            dim,
        )
        store.fill_random(rng=np.random.default_rng(seed))
        store.freeze()
    ro = MemmapStore.open(directory)
    counts = ro.entity_counts()
    if (
        counts.get(EntityType.USER) != n_users
        or counts.get(EntityType.EVENT) != n_events
        or ro.dim != dim
    ):
        raise SystemExit(
            f"store at {directory} is {counts} dim={ro.dim}, expected "
            f"users={n_users} events={n_events} dim={dim} — pass a fresh "
            "--store-dir"
        )
    return ro


def run_capacity_point(
    engine: ShardedServingEngine,
    user_ids: np.ndarray,
    *,
    n: int,
    workers: int,
) -> tuple[float, int]:
    """Closed-loop full-exact queries; returns (wall_s, answered)."""
    cursor = {"i": 0}
    lock = threading.Lock()

    def worker() -> int:
        mine = 0
        while True:
            with lock:
                i = cursor["i"]
                if i >= user_ids.size:
                    return mine
                cursor["i"] = i + 1
            engine.recommend(int(user_ids[i]), n)
            mine += 1

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        answered = sum(pool.map(lambda _: worker(), range(workers)))
    return time.perf_counter() - t0, answered


def check_merge_exact(
    reference: ServingEngine,
    engine: ShardedServingEngine,
    sample_users: np.ndarray,
    n: int,
) -> list[str]:
    """Bit-exactness of sharded top-n vs the single-index engine."""
    failures: list[str] = []
    for user in sample_users.tolist():
        ref = reference.query(int(user), n)
        got = engine.query(int(user), n)
        if not (
            np.array_equal(ref.pair_indices, got.pair_indices)
            and np.array_equal(ref.scores, got.scores)
        ):
            failures.append(
                f"user {user}: sharded[{engine.n_shards}] top-{n} diverges "
                f"from the single-index reference"
            )
    return failures


def run_capacity(args: argparse.Namespace) -> int:
    """The rps-vs-shard-count curve over the memmap store."""
    if args.preset:
        cfg = get_preset(args.preset)
        n_users, n_events = cfg.n_users, cfg.n_events
    else:
        n_users, n_events = args.users, args.events
    shard_counts = sorted({int(s) for s in args.shards.split(",")})

    tmp: tempfile.TemporaryDirectory[str] | None = None
    if args.store_dir is not None:
        store_dir = Path(args.store_dir)
    else:
        tmp = tempfile.TemporaryDirectory(prefix="capacity-store-")
        store_dir = Path(tmp.name) / "store"
    try:
        t0 = time.perf_counter()
        store = open_capacity_store(
            store_dir,
            n_users=n_users,
            n_events=n_events,
            dim=args.dim,
            seed=args.seed,
        )
        store_s = time.perf_counter() - t0
        emb = store.embeddings()
        user_vectors, event_vectors = emb.users, emb.events
        # The scale-out contract: engines serve straight off the mapped
        # files; nothing below may copy the full matrices.
        assert isinstance(user_vectors, np.memmap), "store must stay mapped"
        candidates = np.arange(
            min(args.candidate_events, n_events), dtype=np.int64
        )
        print(
            f"capacity: store {n_users:,} users x {n_events:,} events "
            f"dim={args.dim} ({store.nbytes() / 1e6:.0f} MB on disk, "
            f"ready in {store_s:.1f}s), {candidates.size} candidate "
            f"events, top-k={args.top_k}, shards {shard_counts}"
        )

        rng = np.random.default_rng(args.seed + 1)
        load_users = rng.integers(0, n_users, size=args.requests)
        sample_users = np.unique(load_users[: args.exact_samples])

        reference: ServingEngine | None = None
        if args.assert_merge_exact:
            reference = ServingEngine(
                user_vectors,
                event_vectors,
                candidates,
                top_k_events=args.top_k,
                backend=args.backend,
                cache_size=0,
            ).warm()

        curve = []
        failures: list[str] = []
        for n_shards in shard_counts:
            engine = ShardedServingEngine(
                user_vectors,
                event_vectors,
                candidates,
                n_shards=n_shards,
                top_k_events=args.top_k,
                backend=args.backend,
                cache_size=0,
            )
            t0 = time.perf_counter()
            engine.warm()
            build_s = time.perf_counter() - t0
            if reference is not None:
                failures.extend(
                    check_merge_exact(reference, engine, sample_users, args.n)
                )
                engine.metrics.reset()
            wall_s, answered = run_capacity_point(
                engine, load_users, n=args.n, workers=args.workers
            )
            latency = engine.metrics.percentiles()
            shard_pairs = [s.n_candidate_pairs for s in engine.shards]
            point = {
                "shards": n_shards,
                "build_s": build_s,
                "wall_s": wall_s,
                "requests": answered,
                "rps": answered / wall_s if wall_s > 0 else 0.0,
                "latency_s": latency,
                "n_candidate_pairs": engine.n_candidate_pairs,
                "pairs_per_shard": shard_pairs,
                "max_shard_index_bytes": max(
                    s.memory_bytes() for s in engine.shards
                ),
                "total_index_bytes": engine.memory_bytes(),
            }
            engine.close()
            curve.append(point)
            print(
                f"  shards={n_shards}: build {build_s:.1f}s, "
                f"{answered} requests in {wall_s:.2f}s "
                f"({point['rps']:.1f} rps, p50 "
                f"{latency['p50'] * 1000:.1f}ms p99 "
                f"{latency['p99'] * 1000:.1f}ms), max shard index "
                f"{point['max_shard_index_bytes'] / 1e6:.0f} MB"
            )

        report = {
            "bench": "sharded_load",
            "config": {
                "preset": args.preset or None,
                "users": n_users,
                "events": n_events,
                "dim": args.dim,
                "candidate_events": int(candidates.size),
                "top_k_events": args.top_k,
                "backend": args.backend,
                "requests": args.requests,
                "n": args.n,
                "workers": args.workers,
                "shard_counts": shard_counts,
                "seed": args.seed,
            },
            "store": {
                "bytes": store.nbytes(),
                "dtype": "float32",
                "memmap": True,
                "embedding_version": store.embedding_version,
            },
            "merge_exact_checked": bool(
                args.assert_merge_exact and sample_users.size
            ),
            "merge_exact_failures": failures,
            "curve": curve,
        }
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"  wrote {args.out}")
        if failures:
            print(
                "FAIL: sharded merge diverged: " + "; ".join(failures[:5]),
                file=sys.stderr,
            )
            return 1
        return 0
    finally:
        if tmp is not None:
            tmp.cleanup()


def summarise(
    engine: ServingEngine,
    outcomes: list[RequestOutcome],
    *,
    budget_s: float,
    args: argparse.Namespace,
    wall_s: float,
    tracer: Tracer | None = None,
    flight: FlightRecorder | None = None,
) -> dict:
    """The BENCH_serving_load.json payload."""
    answered = [o for o in outcomes if o.answered]
    shed = [o for o in outcomes if not o.answered]
    metrics = engine.metrics
    overall = metrics.percentiles()
    report = {
        "bench": "serving_load",
        "config": {
            "mode": args.mode,
            "backend": args.backend,
            "users": args.users,
            "events": args.events,
            "dim": args.dim,
            "requests": args.requests,
            "warmup": args.warmup,
            "budget_s": budget_s,
            "workers": args.workers,
            "rate_hz": args.rate if args.mode in ("open", "streaming") else None,
            "queue_depth": args.queue_depth,
            "faults": args.faults or None,
            "seed": args.seed,
        },
        "wall_seconds": wall_s,
        "throughput_rps": len(outcomes) / wall_s if wall_s > 0 else 0.0,
        "submitted": len(outcomes),
        "answered": len(answered),
        "shed": len(shed),
        "silent_drops": len(outcomes) - len(answered) - len(shed),
        "shed_reasons": metrics.shed_counts(),
        "deadline_miss_rate": (
            sum(1 for o in answered if not o.stats.deadline_met)
            / max(len(answered), 1)
        ),
        "latency_s": overall,
        # include= pins every declared rung (ivf included) into the
        # payload so dashboards see zero-count rungs rather than holes.
        "per_rung": metrics.rung_summary(include=RUNGS),
        "rung_counts": {
            rung: sum(1 for o in answered if o.rung == rung)
            for rung in sorted({o.rung for o in answered if o.rung})
        },
        "ladder_estimates_s": (
            engine.ladder.estimates() if engine.ladder is not None else None
        ),
    }
    if tracer is not None:
        summary = tracer.span_summary()
        report["trace"] = {
            "span_summary": summary,
            # The trace-derived breakdown: where request wall-clock went,
            # split into queue wait vs per-rung attempt time.
            "queue_wait": summary.get("queue.wait"),
            "rung_breakdown": {
                name: entry
                for name, entry in summary.items()
                if name.startswith("rung.")
            },
        }
    if flight is not None:
        report["flight"] = {
            "counts": flight.counts(),
            "exemplars": flight.snapshot()[-args.flight_exemplars:],
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--mode",
        choices=("closed", "open", "capacity", "streaming"),
        default="closed",
    )
    parser.add_argument("--backend", default="ta")
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--events", type=int, default=400)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument(
        "--warmup",
        type=int,
        default=50,
        help="ladder-training requests excluded from all reported stats",
    )
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--budget-ms", type=float, default=50.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--rate", type=float, default=200.0, help="open-loop arrivals/s"
    )
    parser.add_argument("--queue-depth", type=int, default=32)
    parser.add_argument("--cache-size", type=int, default=0,
                        help="result-cache entries (0 keeps every request live)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--faults",
        default="",
        help='fault plan, e.g. "backend.query:delay=0.05" (REPRO_FAULTS grammar)',
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON (default: BENCH_serving_load.json, or "
             "BENCH_sharded_load.json in capacity mode)",
    )
    capacity = parser.add_argument_group("capacity mode")
    capacity.add_argument(
        "--preset",
        default="",
        help="size the store from a named dataset preset (e.g. beijing-xl) "
             "instead of --users/--events",
    )
    capacity.add_argument(
        "--shards", default="1,2,4", help="comma-separated shard counts"
    )
    capacity.add_argument(
        "--candidate-events",
        type=int,
        default=384,
        help="served candidate-event window (the upcoming-events subset)",
    )
    capacity.add_argument(
        "--top-k",
        type=int,
        default=4,
        help="per-partner top-k event pruning for the served index",
    )
    capacity.add_argument(
        "--store-dir",
        default=None,
        help="reuse/persist the memmap store here (default: temp dir)",
    )
    capacity.add_argument(
        "--exact-samples",
        type=int,
        default=16,
        help="users spot-checked by --assert-merge-exact",
    )
    capacity.add_argument(
        "--assert-merge-exact",
        action="store_true",
        help="exit non-zero unless every sampled sharded top-n is "
             "bit-identical to a single-index reference engine",
    )
    streaming = parser.add_argument_group("streaming mode")
    streaming.add_argument(
        "--arrivals",
        type=int,
        default=48,
        help="post-training events replayed over the stream",
    )
    streaming.add_argument(
        "--stream-seconds",
        type=float,
        default=1.5,
        help="wall-clock length of the arrival trace (keep it below "
             "requests/rate so queries outlast the folds)",
    )
    streaming.add_argument(
        "--flash-crowds",
        type=int,
        default=1,
        help="arrival bursts concentrated into narrow windows (0 = smooth)",
    )
    streaming.add_argument(
        "--foldin-batch",
        type=int,
        default=8,
        help="max arrivals folded per shadow-refresh-and-flip",
    )
    streaming.add_argument(
        "--foldin-delay-ms",
        type=float,
        default=30.0,
        help="how long the pump waits for a batch to fill",
    )
    streaming.add_argument(
        "--foldin-steps",
        type=int,
        default=120,
        help="SGD steps per folded event (trainer default is 400; the "
             "harness measures the serving path, not embedding quality)",
    )
    streaming.add_argument(
        "--staleness-budget-s",
        type=float,
        default=2.0,
        help="fold-in lag SLO checked by --assert-staleness-bounded",
    )
    streaming.add_argument(
        "--assert-staleness-bounded",
        action="store_true",
        help="exit non-zero unless every arrival became visible (zero "
             "dropped) and p99 fold-in lag <= --staleness-budget-s",
    )
    tracing = parser.add_argument_group("tracing / observability")
    tracing.add_argument(
        "--trace",
        action="store_true",
        help="trace every request; adds the trace-derived queue/rung "
             "breakdown and flight-recorder exemplars to the report",
    )
    tracing.add_argument(
        "--flight-capacity",
        type=int,
        default=256,
        help="flight-recorder ring capacity (interesting trees retained)",
    )
    tracing.add_argument(
        "--flight-exemplars",
        type=int,
        default=4,
        help="newest retained trees embedded in the report",
    )
    tracing.add_argument(
        "--flight-dump",
        type=Path,
        default=None,
        help="also write the full flight-recorder dump to this JSON path",
    )
    tracing.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write a Prometheus text-format exposition of the run's "
             "metrics here (exporter textfile mode)",
    )
    tracing.add_argument(
        "--assert-complete-traces",
        action="store_true",
        help="exit non-zero unless every retained span tree is closed, "
             "parented, and names its rung or shed reason (implies --trace)",
    )
    parser.add_argument(
        "--assert-p99-within-budget",
        action="store_true",
        help="exit non-zero unless answered p99 latency <= the budget",
    )
    parser.add_argument(
        "--assert-no-silent-drops",
        action="store_true",
        help="exit non-zero unless submitted == answered + shed",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = Path(
            {
                "capacity": "BENCH_sharded_load.json",
                "streaming": "BENCH_streaming_load.json",
            }.get(args.mode, "BENCH_serving_load.json")
        )
    if args.mode == "capacity":
        return run_capacity(args)
    budget_s = args.budget_ms / 1000.0

    tracing_on = (
        args.trace
        or args.assert_complete_traces
        or args.flight_dump is not None
    )
    flight = FlightRecorder(capacity=args.flight_capacity) if tracing_on else None
    tracer = Tracer(recorder=flight) if tracing_on else None

    world: StreamingWorld | None = None
    if args.mode == "streaming":
        world = build_streaming_world(args, tracer=tracer)
        engine = world.engine
    else:
        engine = build_engine(args, tracer=tracer)
    if args.faults:
        install(parse_faults(args.faults))

    rng = np.random.default_rng(args.seed + 1)
    warm_users = rng.integers(0, args.users, size=args.warmup)
    load_users = rng.integers(0, args.users, size=args.requests)

    # Warmup trains the LadderPolicy EWMAs (e.g. discovers a stalled full
    # rung); its stats are wiped so the report shows steady state only.
    for u in warm_users.tolist():
        engine.recommend_within(int(u), args.n, budget_s=budget_s)
    engine.metrics.reset()
    if tracer is not None:
        tracer.reset()
    if flight is not None:
        flight.clear()

    t0 = time.perf_counter()
    if args.mode == "streaming":
        assert world is not None
        outcomes = run_streaming_phase(
            world,
            load_users,
            n=args.n,
            budget_s=budget_s,
            workers=args.workers,
            rate_hz=args.rate,
            queue_depth=args.queue_depth,
            tracer=tracer,
        )
    elif args.mode == "closed":
        assert isinstance(engine, ServingEngine)
        outcomes = run_closed_loop(
            engine,
            load_users,
            n=args.n,
            budget_s=budget_s,
            workers=args.workers,
        )
    else:
        outcomes = run_open_loop(
            engine,
            load_users,
            n=args.n,
            budget_s=budget_s,
            workers=args.workers,
            rate_hz=args.rate,
            queue_depth=args.queue_depth,
            tracer=tracer,
        )
    wall_s = time.perf_counter() - t0

    report = summarise(
        engine,
        outcomes,
        budget_s=budget_s,
        args=args,
        wall_s=wall_s,
        tracer=tracer,
        flight=flight,
    )
    if world is not None:
        pump_summary = world.pump.summary()
        report["streaming"] = {
            "arrivals": {
                "n_arrivals": world.trace_config.n_arrivals,
                "duration_s": world.trace_config.duration_s,
                "flash_crowds": world.trace_config.flash_crowds,
                "seed": world.trace_config.seed,
            },
            "events_at_start": world.base_events,
            "events_visible": world.engine.n_events,
            "final_version": world.engine.version,
            "staleness_budget_s": args.staleness_budget_s,
            "pump": pump_summary,
        }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if flight is not None and args.flight_dump is not None:
        flight.dump_json(args.flight_dump)
        print(f"  wrote flight dump {args.flight_dump}")
    if args.metrics_out is not None:
        def collect():
            families = registry_families(engine.metrics)
            families += engine_families(engine)
            if world is not None:
                families += foldin_families(world.pump)
            if tracer is not None:
                families += tracer_families(tracer)
            if flight is not None:
                families += flight_families(flight)
            return families

        MetricsExporter(collect, flight=flight).write_textfile(
            args.metrics_out
        )
        print(f"  wrote metrics exposition {args.metrics_out}")

    per_rung = ", ".join(
        f"{rung}: n={s['count']} p50={s['p50'] * 1000:.1f}ms "
        f"p99={s['p99'] * 1000:.1f}ms"
        for rung, s in sorted(report["per_rung"].items())
    )
    print(
        f"serving_load [{args.mode}] {report['submitted']} requests in "
        f"{wall_s:.2f}s ({report['throughput_rps']:.0f} rps): "
        f"answered {report['answered']}, shed {report['shed']} "
        f"{report['shed_reasons']}, silent drops {report['silent_drops']}"
    )
    print(
        f"  latency p50={report['latency_s']['p50'] * 1000:.1f}ms "
        f"p95={report['latency_s']['p95'] * 1000:.1f}ms "
        f"p99={report['latency_s']['p99'] * 1000:.1f}ms "
        f"(budget {args.budget_ms:.0f}ms, deadline miss rate "
        f"{report['deadline_miss_rate']:.1%})"
    )
    if per_rung:
        print(f"  per rung: {per_rung}")
    if world is not None:
        streaming_report = report["streaming"]
        pump_summary = streaming_report["pump"]
        lag = pump_summary["lag_percentiles"]
        print(
            f"  streaming: {pump_summary['offered']} arrivals -> "
            f"{pump_summary['visible']} visible, "
            f"{pump_summary['dropped']} dropped, "
            f"{pump_summary['swaps']} swaps over "
            f"{pump_summary['batches']} batches "
            f"({pump_summary['errors']} fold errors retried); index "
            f"{streaming_report['events_at_start']} -> "
            f"{streaming_report['events_visible']} events at version "
            f"{streaming_report['final_version']}"
        )
        print(
            f"  fold-in lag p50={lag['p50'] * 1000:.0f}ms "
            f"p99={lag['p99'] * 1000:.0f}ms "
            f"(staleness budget {args.staleness_budget_s:.1f}s)"
        )
    print(f"  wrote {args.out}")

    failures = []
    if args.assert_no_silent_drops and report["silent_drops"] != 0:
        failures.append(f"silent drops: {report['silent_drops']}")
    if world is not None:
        counters = report["streaming"]["pump"]
        if args.assert_no_silent_drops:
            ledger_gap = (
                counters["offered"]
                - counters["visible"]
                - counters["dropped"]
                - counters["pending"]
            )
            if ledger_gap != 0 or counters["pending"] != 0:
                failures.append(
                    f"arrival ledger imbalance: offered {counters['offered']} "
                    f"!= visible {counters['visible']} + dropped "
                    f"{counters['dropped']} (pending {counters['pending']} "
                    "after drain)"
                )
        if args.assert_staleness_bounded:
            if counters["dropped"] != 0:
                failures.append(
                    f"{counters['dropped']} arrivals dropped after "
                    "exhausting fold retries — never became visible"
                )
            if counters["visible"] != counters["offered"]:
                failures.append(
                    f"only {counters['visible']}/{counters['offered']} "
                    "arrivals visible after drain"
                )
            lag_p99 = counters["lag_percentiles"]["p99"]
            if lag_p99 > args.staleness_budget_s:
                failures.append(
                    f"fold-in lag p99 {lag_p99:.3f}s exceeds staleness "
                    f"budget {args.staleness_budget_s:.3f}s"
                )
    if args.assert_complete_traces and flight is not None:
        interesting = sum(
            1
            for o in outcomes
            if not o.answered
            or (o.stats is not None and not o.stats.deadline_met)
        )
        retained = flight.counts()["retained"]
        if retained < interesting:
            failures.append(
                f"flight recorder retained {retained} trees for "
                f"{interesting} shed/deadline-missed requests"
            )
        for tree in flight.snapshot():
            problems = audit_trace(tree)
            if problems:
                failures.append(
                    f"incomplete trace {tree.get('trace_id')}: "
                    + "; ".join(problems)
                )
                break
    if (
        args.assert_p99_within_budget
        and report["answered"] > 0
        and report["latency_s"]["p99"] > budget_s
    ):
        failures.append(
            f"p99 {report['latency_s']['p99'] * 1000:.1f}ms exceeds "
            f"budget {args.budget_ms:.0f}ms"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
