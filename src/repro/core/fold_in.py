"""Folding in events that arrive *after* training.

A deployed EBSN recommender receives new events continuously; retraining
GEM for each arrival is wasteful.  Because a cold-start event's embedding
is determined entirely by its content/location/time edges (it has no
attendance), its vector can be learned *post hoc* against the frozen
word/region/time-slot embeddings by running the same Eqn 5 updates
restricted to the new event's rows — the same objective the joint trainer
optimises, so the folded-in vector converges to what full training would
have produced for that event (the tests verify ranking agreement).

This implements the natural deployment extension of Section IV: the
online index is refreshed per arrival by transforming the new event's
pairs only.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_shapes
from repro.core.embeddings import EmbeddingSet
from repro.ebsn.graphs import EntityType
from repro.ebsn.regions import RegionAssignment
from repro.ebsn.text import Vocabulary, tfidf_document, tokenize
from repro.ebsn.timeslots import time_slots
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    from repro.serving.engine import ServingEngine


#: The SGD loop below is interpreter-bound and never releases the GIL on
#: its own, so a query thread in the same process (the fold-in pump runs
#: beside live reads) waits a whole switch interval after each release
#: its numpy calls make, and a TA read stretches to ~100 ms.  Sleeping
#: briefly every few steps hands the lock over and keeps such reads near
#: their idle latency.  The pauses cost wall time but no CPU: ~12 ms per
#: 400-step event.
_YIELD_EVERY_STEPS = 4
_YIELD_S = 5e-5


def _sigmoid(x: np.float64) -> float:
    """Scalar :func:`repro.core.objective.sigmoid`, same branches and bits."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    ex = np.exp(x)
    return float(ex / (1.0 + ex))


@dataclass(slots=True)
class NewEventDescription:
    """Attributes of an event arriving after training."""

    description: str
    venue_lat: float
    venue_lon: float
    start_time: float


@dataclass(slots=True)
class FoldInConfig:
    """Optimisation knobs for fold-in (matched to trainer defaults)."""

    n_steps: int = 400
    learning_rate: float = 0.05
    n_negatives: int = 2
    nonnegative: bool = True
    init_scale: float = 0.1
    seed: int = 97

    def validate(self) -> None:
        """Fail fast on invalid optimisation knobs."""
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")


class EventFoldIn:
    """Computes embeddings for post-training events against frozen
    attribute embeddings.

    Parameters
    ----------
    embeddings:
        The trained :class:`EmbeddingSet` (only read, never written).
    vocabulary:
        The training vocabulary (new events' words are matched against it;
        out-of-vocabulary words are ignored, as they would be in any
        deployed system).
    regions:
        The training region assignment; the new event is attached to the
        nearest region centroid (DBSCAN regions are fixed at training
        time).
    """

    def __init__(
        self,
        embeddings: EmbeddingSet,
        vocabulary: Vocabulary,
        regions: RegionAssignment,
    ) -> None:
        if regions.n_regions == 0:
            raise ValueError("regions must be non-empty")
        self.embeddings = embeddings
        self.vocabulary = vocabulary
        self.regions = regions

    # ------------------------------------------------------------------
    def _attribute_edges(
        self, event: NewEventDescription
    ) -> list[tuple[EntityType, int, float]]:
        """The (type, node, weight) edges the new event would have had."""
        edges: list[tuple[EntityType, int, float]] = []
        tokens = tokenize(event.description)
        for word_id, weight in sorted(tfidf_document(tokens, self.vocabulary).items()):
            edges.append((EntityType.WORD, word_id, weight))
        for slot in time_slots(event.start_time):
            edges.append((EntityType.TIME, slot, 1.0))
        centroids = self.regions.centroids
        d2 = (centroids[:, 0] - event.venue_lat) ** 2 + (
            centroids[:, 1] - event.venue_lon
        ) ** 2
        edges.append((EntityType.LOCATION, int(np.argmin(d2)), 1.0))
        return edges

    @check_shapes("-,- -> (K,)", dtype="float32")
    def fold_in(
        self,
        event: NewEventDescription,
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Learn the new event's K-dim vector; returns it (float32).

        The update is Eqn 5 restricted to the event side: the event vector
        is pulled toward its attribute vectors (sampled proportionally to
        edge weight) and pushed from uniformly sampled attribute noise of
        the same type, with the ReLU projection; attribute embeddings stay
        frozen.
        """
        config = config or FoldInConfig()
        config.validate()
        rng = ensure_rng(config.seed)

        edges = self._attribute_edges(event)
        if not edges:
            return np.zeros(self.embeddings.dim, dtype=np.float32)
        weights = np.array([w for _, _, w in edges], dtype=np.float64)
        # The edge draw is Generator.choice(len(edges), p=weights/sum)
        # unrolled: the same CDF and one rng.random() per step, searched
        # like searchsorted(side="right"), so the random stream and the
        # draws are unchanged.
        cdf = np.cumsum(weights / weights.sum())
        cdf = (cdf / cdf[-1]).tolist()
        matrices = {
            etype: self.embeddings.of(etype).astype(np.float64)
            for etype, _node, _w in edges
        }

        vec = np.abs(
            rng.normal(0.0, config.init_scale, size=self.embeddings.dim)
        )
        lr0 = config.learning_rate
        for step in range(config.n_steps):
            if step % _YIELD_EVERY_STEPS == _YIELD_EVERY_STEPS - 1:
                time.sleep(_YIELD_S)
            lr = lr0 * max(1.0 - step / config.n_steps, 1e-3)
            etype, node, _w = edges[bisect_right(cdf, rng.random())]
            matrix = matrices[etype]
            target = matrix[node]
            grad = (1.0 - _sigmoid(vec @ target)) * target
            for _ in range(config.n_negatives):
                noise = matrix[int(rng.integers(0, matrix.shape[0]))]
                grad -= _sigmoid(vec @ noise) * noise
            vec += lr * grad
            if config.nonnegative:
                np.maximum(vec, 0.0, out=vec)
        return vec.astype(np.float32)

    @check_shapes("-,- -> (n,K)", dtype="float32")
    def fold_in_many(
        self,
        events: list[NewEventDescription],
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Fold in a batch of arrivals; returns ``(n_events, K)``."""
        if not events:
            return np.zeros((0, self.embeddings.dim), dtype=np.float32)
        return np.stack([self.fold_in(e, config) for e in events])

    def fold_into_engine(
        self,
        engine: ServingEngine,
        events: list[NewEventDescription],
        config: FoldInConfig | None = None,
    ) -> np.ndarray:
        """Fold new arrivals straight into a serving engine.

        Learns each event's vector against the frozen attribute
        embeddings, assigns the next free global event ids, and calls
        ``engine.refresh`` so the engine extends its candidate space
        incrementally (no cold rebuild).  ``engine`` is any object with
        the :class:`repro.serving.engine.ServingEngine` refresh contract.
        Returns the assigned event ids.
        """
        vectors = self.fold_in_many(events, config)
        new_ids = np.arange(
            engine.n_events, engine.n_events + vectors.shape[0], dtype=np.int64
        )
        if new_ids.size:
            engine.refresh(new_ids, new_event_vectors=vectors)
        return new_ids
