"""The space transformation of Section IV ("Fast Online Recommendation").

The triple score ``u·x + u'·x + u·u'`` (Eqn 8) is not an inner product
between the query user and a candidate vector, so off-the-shelf
maximum-inner-product retrieval cannot index event-partner pairs directly.
The paper's trick creates a ``2K+1``-dimensional space where it *is* one:

.. math::
    \\vec p_{xu'} = (\\vec x,\\; \\vec u',\\; \\vec u'^\\top\\vec x), \\qquad
    \\vec q_u = (\\vec u,\\; \\vec u,\\; 1)

so that :math:`\\vec q_u^\\top \\vec p_{xu'} = \\vec u^\\top\\vec x +
\\vec u^\\top\\vec u' + \\vec u'^\\top\\vec x` — exactly Eqn 8.  The
transformation runs offline; the resulting point set is what the TA-based
retrieval of :mod:`repro.online.ta` indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import check_shapes


@dataclass(slots=True)
class PairSpace:
    """Candidate event-partner pairs materialised in the 2K+1 space.

    Attributes
    ----------
    points:
        ``(n_pairs, 2K+1)`` transformed pair vectors :math:`\\vec p_{xu'}`.
    partner_ids, event_ids:
        ``(n_pairs,)`` the pair each point represents.
    version:
        Embedding version this space was materialised from.  0 means
        "unversioned" (spaces built outside a serving engine); the
        :class:`~repro.serving.engine.ServingEngine` stamps its own
        monotonically increasing version so persisted indices and cached
        results can be matched to the embeddings that produced them.
    """

    points: np.ndarray
    partner_ids: np.ndarray
    event_ids: np.ndarray
    version: int = 0

    def __post_init__(self) -> None:
        if self.points.ndim != 2:
            raise ValueError(f"points must be 2-D, got {self.points.shape}")
        n = self.points.shape[0]
        if self.partner_ids.shape != (n,) or self.event_ids.shape != (n,):
            raise ValueError("partner_ids/event_ids must align with points")
        if (self.points.shape[1] - 1) % 2 != 0:
            raise ValueError(
                f"point dimension must be 2K+1, got {self.points.shape[1]}"
            )

    @property
    def n_pairs(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def embedding_dim(self) -> int:
        """The original K."""
        return (self.dim - 1) // 2

    def pair(self, index: int) -> tuple[int, int]:
        """(event, partner) of point ``index``."""
        return int(self.event_ids[index]), int(self.partner_ids[index])

    def pair_ids(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(event_ids, partner_ids)`` of the points ``idx``."""
        return self.event_ids[idx], self.partner_ids[idx]


@check_shapes("(n,K),(n,K),(n,),(n,)")
def transform_pairs(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    event_ids: np.ndarray,
    partner_ids: np.ndarray,
) -> PairSpace:
    """Map aligned (event, partner) candidates into the 2K+1 space.

    ``event_vectors``/``partner_vectors`` are ``(n, K)`` rows for each
    candidate pair; ``event_ids``/``partner_ids`` name them.  Typically
    produced by :func:`repro.online.pruning.candidate_pairs`.
    """
    event_vectors = np.asarray(event_vectors, dtype=np.float64)
    partner_vectors = np.asarray(partner_vectors, dtype=np.float64)
    if event_vectors.shape != partner_vectors.shape:
        raise ValueError(
            f"event/partner vector shapes differ: {event_vectors.shape} vs "
            f"{partner_vectors.shape}"
        )
    interaction = np.einsum("nk,nk->n", partner_vectors, event_vectors)
    points = np.concatenate(
        [event_vectors, partner_vectors, interaction[:, None]], axis=1
    )
    return PairSpace(
        points=points,
        partner_ids=np.asarray(partner_ids, dtype=np.int64).copy(),
        event_ids=np.asarray(event_ids, dtype=np.int64).copy(),
    )


def transform_all_pairs(
    event_vectors: np.ndarray,
    partner_vectors: np.ndarray,
    event_ids: np.ndarray | None = None,
    partner_ids: np.ndarray | None = None,
) -> PairSpace:
    """Materialise the *full* cross product (the unpruned search space).

    Storage is O(|partners|·|events|·(2K+1)) — the cost the paper's
    pruning strategy exists to avoid; used for small candidate sets and
    for validating the pruned variants.
    """
    event_vectors = np.asarray(event_vectors, dtype=np.float64)
    partner_vectors = np.asarray(partner_vectors, dtype=np.float64)
    n_events = event_vectors.shape[0]
    n_partners = partner_vectors.shape[0]
    if event_ids is None:
        event_ids = np.arange(n_events, dtype=np.int64)
    if partner_ids is None:
        partner_ids = np.arange(n_partners, dtype=np.int64)

    ev_rep = np.repeat(np.arange(n_events), n_partners)
    pa_rep = np.tile(np.arange(n_partners), n_events)
    return transform_pairs(
        event_vectors[ev_rep],
        partner_vectors[pa_rep],
        np.asarray(event_ids, dtype=np.int64)[ev_rep],
        np.asarray(partner_ids, dtype=np.int64)[pa_rep],
    )


@check_shapes("(K,)->(2K+1,)")
def query_vector(user_vector: np.ndarray) -> np.ndarray:
    """The extended query :math:`\\vec q_u = (\\vec u, \\vec u, 1)`."""
    user_vector = np.asarray(user_vector, dtype=np.float64)
    if user_vector.ndim != 1:
        raise ValueError(f"user_vector must be 1-D, got {user_vector.shape}")
    return np.concatenate([user_vector, user_vector, [1.0]])
