"""End-to-end online event-partner recommender (Section IV assembled).

.. note::
   This class is now a thin, backwards-compatible facade over
   :class:`repro.serving.engine.ServingEngine` — the unified serving
   stack that owns the 2K+1 transform, pluggable retrieval backends,
   versioned indices, batched queries, caching and telemetry.  The
   constructor signature, attributes (``space``, ``index``, ``method``,
   ``top_k_events``, …) and the :meth:`query`/:meth:`recommend`
   behaviour are unchanged; new code should use the engine directly.

Offline: take the trained model's event/user vectors, restrict to the
candidate events (the *new* events — cold-start items are exactly what an
online system serves) and candidate partners, optionally prune to top-k
events per partner, transform into the 2K+1 space, and build the retrieval
index (TA or brute force).

Online: :meth:`recommend` maps a target user to the extended query
vector and returns the top-n ``(event, partner, score)`` triples, never
recommending the user as her own partner.
"""

from __future__ import annotations

import numpy as np

from repro.online.bruteforce import FactoredBruteForceIndex
from repro.online.ta import RetrievalResult, ThresholdAlgorithmIndex
from repro.serving.engine import Recommendation, ServedPairs, ServingEngine

METHODS = ("ta", "bruteforce")

__all__ = ["METHODS", "EventPartnerRecommender", "Recommendation"]


class EventPartnerRecommender:
    """Offline-indexed, online-queried joint event-partner recommender.

    Parameters
    ----------
    user_vectors, event_vectors:
        The trained embedding matrices (GEM or any latent-factor model).
    candidate_events:
        Global event ids eligible for recommendation (e.g. upcoming/test
        events).
    candidate_partners:
        Global user ids eligible as partners (default: everyone).
    top_k_events:
        Pruning level k: keep only each partner's k favourite candidate
        events (``None`` = no pruning, the full cross product).
    method:
        ``"ta"`` (threshold algorithm) or ``"bruteforce"``.
    """

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
        *,
        candidate_partners: np.ndarray | None = None,
        top_k_events: int | None = None,
        method: str = "ta",
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        # The facade keeps the original eager-build semantics: the index
        # exists (and invalid inputs fail) at construction time.  The
        # result cache is disabled so `query` timings stay comparable to
        # the historical behaviour; use ServingEngine directly for
        # caching and batching.
        self.engine = ServingEngine(
            user_vectors,
            event_vectors,
            candidate_events,
            candidate_partners=candidate_partners,
            top_k_events=top_k_events,
            backend=method,
            cache_size=0,
        ).warm()

    # ------------------------------------------------------------------
    @property
    def user_vectors(self) -> np.ndarray:
        return self.engine.user_vectors

    @property
    def event_vectors(self) -> np.ndarray:
        return self.engine.event_vectors

    @property
    def candidate_events(self) -> np.ndarray:
        return self.engine.candidate_events

    @property
    def candidate_partners(self) -> np.ndarray:
        return self.engine.candidate_partners

    @property
    def method(self) -> str:
        return self.engine.backend_name

    @property
    def top_k_events(self) -> int | None:
        return self.engine.top_k_events

    @property
    def space(self) -> ServedPairs:
        """The served pairs: the 2K+1 space (TA) or the factored index."""
        return self.engine.space

    @property
    def index(self) -> FactoredBruteForceIndex | ThresholdAlgorithmIndex | None:
        """The underlying index object (TA or factored brute force)."""
        return self.engine.backend.index

    @property
    def n_candidate_pairs(self) -> int:
        return self.engine.n_candidate_pairs

    def query(self, user: int, n: int) -> RetrievalResult:
        """Raw retrieval result with access statistics (for benchmarks)."""
        return self.engine.query(user, n)

    def recommend(self, user: int, n: int = 10) -> list[Recommendation]:
        """Top-n event-partner recommendations for ``user``."""
        return self.engine.recommend(user, n=n)
