"""Streaming ingestion: fold post-training arrivals into a live engine.

The paper's Section IV fold-in answers cold-start for *one* new event;
a live EBSN sees a continuous arrival stream and must make new events
recommendable **while queries are in flight**.  The building blocks
exist elsewhere — :meth:`repro.core.fold_in.EventFoldIn.fold_in_many`
learns vectors against frozen attribute embeddings, and both engines
grow incrementally via ``refresh()``, which builds the next index
snapshot beside the served one and publishes it with one attribute
store (old or new, never a mixture; DESIGN.md §11).  This module adds
the maintenance side:

* :class:`FoldInPump` is the background maintenance thread: it batches
  arrivals from :meth:`~FoldInPump.offer`, learns their vectors, calls
  the engine's ``refresh`` and records per-version staleness telemetry
  (events visible vs. arrived, fold-in lag percentiles) — every batch
  traced as a ``foldin.*`` span tree.  Every offered arrival ends
  visible, retrying, or in an explicit ``dropped`` counter — zero
  silent drops, mirroring the request-side outcome discipline.

* :class:`DoubleBufferedEngine` is a thin front over one engine: it
  serves and folds through ``primary`` and never builds ``shadow``.

Fault injection applies at the ``foldin.apply`` site (see
:mod:`repro.serving.faults`).  Tuning and recovery:
docs/OPERATIONS.md §10.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sanitizer import tsan_lock
from repro.serving.faults import fault_point
from repro.serving.telemetry import MetricsRegistry, percentile

if TYPE_CHECKING:
    from repro.core.fold_in import FoldInConfig, NewEventDescription
    from repro.data.synthetic import EventArrival
    from repro.serving.engine import ServingEngine
    from repro.serving.lifecycle import RequestContext, RequestOutcome
    from repro.serving.sharded import ShardedServingEngine


class Refreshable(Protocol):
    """What the pump folds into: any engine with the refresh contract.

    :class:`~repro.serving.engine.ServingEngine`,
    :class:`~repro.serving.sharded.ShardedServingEngine` and
    :class:`DoubleBufferedEngine` match it.
    """

    @property
    def version(self) -> int:
        """The embedding version currently served."""
        ...

    @property
    def n_events(self) -> int:
        """Rows of the event embedding matrix (the next free event id)."""
        ...

    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """Fold new events into the served candidate space."""
        ...


class Folder(Protocol):
    """Structural interface of the vector learner the pump drives.

    :class:`repro.core.fold_in.EventFoldIn` matches it.
    """

    def fold_in_many(
        self,
        events: "list[NewEventDescription]",
        config: "FoldInConfig | None" = None,
    ) -> np.ndarray:
        """Learn ``(n, K)`` float32 vectors for a batch of arrivals."""
        ...


class DoubleBufferedEngine:
    """A front that serves and folds through ``primary``.

    An engine publishes each refresh as one immutable snapshot, so one
    engine already gives old-or-new reads.  ``shadow`` is validated
    against ``primary`` but never built, so it holds no index
    (``memory_bytes() == 0``); the ``(primary, shadow)`` constructor and
    the members below stay so existing callers of this API keep working.
    """

    def __init__(
        self,
        primary: "ServingEngine | ShardedServingEngine",
        shadow: "ServingEngine | ShardedServingEngine",
    ) -> None:
        if primary is shadow:
            raise ValueError("primary and shadow must be distinct engines")
        if (primary.n_users, primary.n_events, primary.version) != (
            shadow.n_users,
            shadow.n_events,
            shadow.version,
        ):
            raise ValueError(
                "replicas diverge: "
                f"primary (users={primary.n_users}, events={primary.n_events}, "
                f"version={primary.version}) vs shadow (users={shadow.n_users}, "
                f"events={shadow.n_events}, version={shadow.version})"
            )
        self._primary = primary
        self._shadow = shadow

    @property
    def version(self) -> int:
        """The version queries currently observe."""
        return self._primary.version

    @property
    def n_events(self) -> int:
        """Event rows visible to queries."""
        return self._primary.n_events

    @property
    def active(self) -> "ServingEngine | ShardedServingEngine":
        """The engine serving queries (always ``primary``)."""
        return self._primary

    @property
    def replicas(
        self,
    ) -> "tuple[ServingEngine | ShardedServingEngine, ServingEngine | ShardedServingEngine]":
        """``(primary, shadow)``, construction order."""
        return (self._primary, self._shadow)

    @property
    def metrics(self) -> MetricsRegistry:
        """The primary engine's metrics registry."""
        return self._primary.metrics

    def warm_ladder(self) -> "DoubleBufferedEngine":
        """Warm every degradation rung of ``primary``."""
        self._primary.warm_ladder()
        return self

    def refresh(
        self,
        new_event_ids: np.ndarray,
        new_event_vectors: np.ndarray | None = None,
    ) -> int:
        """``primary.refresh``: safe under traffic, published whole."""
        return self._primary.refresh(new_event_ids, new_event_vectors)

    def recommend_within(
        self,
        user: int,
        n: int = 10,
        *,
        budget_s: float | None = None,
        ctx: "RequestContext | None" = None,
    ) -> "RequestOutcome":
        """``primary.recommend_within`` (one snapshot per request)."""
        return self._primary.recommend_within(
            user, n, budget_s=budget_s, ctx=ctx
        )

    def close(self) -> None:
        """Release both engines' resources (sharded fan-out pools)."""
        for engine in (self._primary, self._shadow):  # replint: allow-loop(two engines)
            close = getattr(engine, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "DoubleBufferedEngine":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()


@dataclass(slots=True)
class StalenessRecord:
    """Per-version visibility record for one published fold batch.

    ``lag`` is the fold-in lag: seconds from an event's *arrival*
    (its ``offer`` call) to the publication that made it queryable —
    the staleness the streaming layer is accountable for (DESIGN.md
    §11).
    """

    version: int
    n_events: int
    visible_monotonic: float
    lag_p50_s: float
    lag_max_s: float


class FoldInPump:
    """Background fold-in: batch arrivals, learn vectors, refresh.

    The single maintenance writer of a :class:`Refreshable` engine —
    ``fold_into_engine``-style id assignment reads ``n_events`` before
    calling ``refresh``, so concurrent writers could race it.
    Arrivals enter through :meth:`offer` (thread-safe, non-blocking) or
    :meth:`replay`; the pump thread gathers them into batches of at
    most ``max_batch`` (waiting up to ``max_delay_s`` for a batch to
    fill), learns vectors through the folder, and calls the engine's
    ``refresh``, which publishes the batch as one snapshot.  Every batch
    is traced as a ``foldin.batch`` span with ``foldin.fold`` /
    ``foldin.apply`` children, and passes the ``foldin.apply`` fault
    point — injected errors are retried up to ``max_retries`` times
    before the batch lands in the explicit ``dropped`` counter.  **Zero
    silent drops**: at any instant
    ``offered == visible + pending() + dropped``.

    Staleness telemetry accumulates per published version
    (:class:`StalenessRecord`) and as overall fold-in lag percentiles,
    each bounded to the newest ``max_lag_samples`` entries;
    :meth:`summary` is the duck-typed payload
    :func:`repro.obs.exporter.foldin_families` exports.  Tuning and
    recovery: docs/OPERATIONS.md §10.
    """

    def __init__(
        self,
        engine: Refreshable,
        folder: Folder,
        *,
        config: "FoldInConfig | None" = None,
        max_batch: int = 16,
        max_delay_s: float = 0.05,
        max_retries: int = 16,
        retry_backoff_s: float = 0.005,
        max_lag_samples: int = 4096,
        tracer: Tracer | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if max_lag_samples < 1:
            raise ValueError("max_lag_samples must be >= 1")
        self._engine = engine
        self._folder = folder
        self._config = config
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.max_lag_samples = max_lag_samples
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._queue: deque[tuple[NewEventDescription, float]] = deque()  # replint: guarded-by(_lock)
        self._inflight = 0  # replint: guarded-by(_lock)
        self._offered = 0  # replint: guarded-by(_lock)
        self._visible = 0  # replint: guarded-by(_lock)
        self._dropped = 0  # replint: guarded-by(_lock)
        self._errors = 0  # replint: guarded-by(_lock)
        self._batches = 0  # replint: guarded-by(_lock)
        self._records: deque[StalenessRecord] = deque(maxlen=max_lag_samples)  # replint: guarded-by(_lock)
        self._lags: list[float] = []  # replint: guarded-by(_lock)
        self._last_error: str | None = None  # replint: guarded-by(_lock)
        self._lock = tsan_lock(threading.Lock(), "_lock")
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # the arrival side (any thread)
    def offer(self, event: "NewEventDescription") -> None:
        """Enqueue one arrival (non-blocking; stamps its arrival time)."""
        now = time.monotonic()
        with self._lock:
            self._queue.append((event, now))
            self._offered += 1

    def replay(
        self, arrivals: "list[EventArrival]", *, speed: float = 1.0
    ) -> None:
        """Offer a timestamped trace at wall-clock pace (blocking).

        Sleeps until each arrival's offset (divided by ``speed``) and
        offers it — the driver side of a
        :meth:`repro.data.synthetic.SyntheticEBSNGenerator.
        generate_arrival_trace` trace.  Run from a feeder thread when
        queries share the caller.
        """
        if speed <= 0:
            raise ValueError(f"speed must be > 0, got {speed}")
        start = time.monotonic()
        # replint: allow-loop(wall-clock replay of the arrival trace)
        for arrival in arrivals:
            delay = arrival.offset_s / speed - (time.monotonic() - start)
            if delay > 0:
                time.sleep(delay)
            self.offer(arrival.event)

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "FoldInPump":
        """Start the maintenance thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._run, name="foldin-pump", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the pump; by default fold everything still queued first.

        With ``drain`` the pump keeps applying batches until the queue
        is empty (bounded by ``timeout_s``), so a clean shutdown leaves
        ``pending() == 0`` and the zero-silent-drop ledger balanced.
        """
        if drain:
            self.drain(timeout_s=timeout_s)
        self._stop_event.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout_s)

    def drain(self, *, timeout_s: float = 30.0) -> bool:
        """Wait until every offered arrival is visible or dropped."""
        deadline = time.monotonic() + timeout_s
        while True:  # replint: allow-loop(bounded wait for queue drain)
            if self.pending() == 0:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.002)

    def __enter__(self) -> "FoldInPump":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc: object) -> None:
        """Context-manager exit: drain and :meth:`stop`."""
        self.stop()

    # ------------------------------------------------------------------
    # telemetry
    def pending(self) -> int:
        """Arrivals offered but not yet visible or dropped."""
        with self._lock:
            return len(self._queue) + self._inflight

    def counters(self) -> dict[str, int]:
        """The zero-silent-drop ledger (offered = visible + pending + dropped)."""
        with self._lock:
            return {
                "offered": self._offered,
                "visible": self._visible,
                "pending": len(self._queue) + self._inflight,
                "dropped": self._dropped,
                "errors": self._errors,
                "batches": self._batches,
            }

    def staleness_records(self) -> list[StalenessRecord]:
        """Per-version visibility records, publication order.

        Only the newest ``max_lag_samples`` records are kept, so a
        long-running pump holds bounded memory.
        """
        with self._lock:
            return list(self._records)

    def lag_percentiles(
        self, qs: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, float]:
        """Nearest-rank percentiles of per-event fold-in lag (seconds)."""
        with self._lock:
            lags = list(self._lags)
        return {f"p{q:g}": percentile(lags, q) for q in qs}

    def summary(self) -> dict[str, object]:
        """Everything an exporter or harness needs, as one dict.

        Counters, overall lag percentiles, the number of published
        swaps (one per folded batch), and the last ``64`` per-version
        staleness records (newest last) — the duck-typed payload
        :func:`repro.obs.exporter.foldin_families` renders as
        Prometheus families.
        """
        counters = self.counters()
        with self._lock:
            records = list(islice(reversed(self._records), 64))[::-1]
            last_error = self._last_error
        payload: dict[str, object] = dict(counters)
        payload["swaps"] = counters["batches"]
        payload["lag_percentiles"] = self.lag_percentiles()
        payload["last_error"] = last_error
        payload["versions"] = [
            {
                "version": r.version,
                "events": r.n_events,
                "lag_p50_s": r.lag_p50_s,
                "lag_max_s": r.lag_max_s,
            }
            for r in records
        ]
        return payload

    # ------------------------------------------------------------------
    # the maintenance thread
    def _run(self) -> None:
        """Pump loop: one iteration per fold batch until stopped."""
        while True:  # replint: allow-loop(pump lifetime, one turn per batch)
            batch = self._take_batch()
            if batch:
                self._apply_batch(batch)
            elif self._stop_event.is_set():
                return

    def _take_batch(self) -> "list[tuple[NewEventDescription, float]]":
        """Gather up to ``max_batch`` arrivals, waiting for the first.

        Once the first arrival is seen, waits ``max_delay_s`` more for
        the batch to fill (skipped when stopping, to flush promptly).
        """
        while True:  # replint: allow-loop(poll until arrival or stop)
            with self._lock:
                if self._queue:
                    break
            if self._stop_event.is_set():
                return []
            time.sleep(0.002)
        if not self._stop_event.is_set():
            full = self._stop_event.wait(self.max_delay_s)
            del full
        with self._lock:
            take = min(self.max_batch, len(self._queue))
            # replint: allow-loop(dequeue one bounded batch)
            batch = [self._queue.popleft() for _ in range(take)]
            self._inflight += len(batch)
        return batch

    def _apply_batch(
        self, batch: "list[tuple[NewEventDescription, float]]"
    ) -> None:
        """Fold one batch into the engine, with bounded retries."""
        events = [event for event, _arrived in batch]
        attempt = 0
        while True:  # replint: allow-loop(bounded retry of one fold batch)
            try:
                self._fold_once(events, attempt)
                break
            except Exception as exc:  # noqa: BLE001 - ledgered, then retried
                with self._lock:
                    self._errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
                attempt += 1
                if attempt >= self.max_retries:
                    with self._lock:
                        self._dropped += len(batch)
                        self._inflight -= len(batch)
                    return
                time.sleep(self.retry_backoff_s)
        now = time.monotonic()
        version = self._engine.version
        lags = [now - arrived for _event, arrived in batch]
        with self._lock:
            self._visible += len(batch)
            self._inflight -= len(batch)
            self._batches += 1
            self._records.append(
                StalenessRecord(
                    version=version,
                    n_events=len(batch),
                    visible_monotonic=now,
                    lag_p50_s=percentile(lags, 50.0),
                    lag_max_s=max(lags),
                )
            )
            self._lags.extend(lags)
            if len(self._lags) > self.max_lag_samples:
                del self._lags[: len(self._lags) - self.max_lag_samples]

    def _fold_once(
        self, events: "list[NewEventDescription]", attempt: int
    ) -> None:
        """One traced fold attempt: learn vectors, refresh the engine."""
        with self._tracer.start(
            "foldin.batch", n=len(events), attempt=attempt
        ) as span:
            with span.child("foldin.fold"):
                vectors = self._folder.fold_in_many(events, self._config)
            fault_point("foldin.apply", span=span)
            with span.child("foldin.apply"):
                base = self._engine.n_events
                ids = np.arange(
                    base, base + vectors.shape[0], dtype=np.int64
                )
                added = self._engine.refresh(ids, new_event_vectors=vectors)
            span.tag(version=self._engine.version, added=added)
