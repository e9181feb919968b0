"""Float64 Eqn-8 oracle and the answer checks built on it.

The joint score of user ``u``, partner ``u'`` and event ``x`` is

    s(u, u', x) = u·x + u'·x + u·u'            (Eqn 8)

computed here as three float64 inner products, independent of the 2K+1
pair transform the serving indices use.  Candidate pairs are indexed
event-major over the engine's candidate-event order and every user as a
partner (the layout ``transform_all_pairs`` builds and refreshes
append), and the canonical order is score descending, then pair index
ascending.  The two computations round differently, so scores agree to
:data:`REL_TOL` rather than bit for bit; a swap of two pairs whose
oracle scores differ by less than that is a rounding tie, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative tolerance between engine and oracle scores.
REL_TOL = 1e-9


def _tol(score: float) -> float:
    return REL_TOL * max(1.0, abs(score))


class Eqn8Oracle:
    """Exact top-n over ``candidate_events`` × every user as partner."""

    def __init__(
        self,
        user_vectors: np.ndarray,
        event_vectors: np.ndarray,
        candidate_events: np.ndarray,
    ) -> None:
        self.users = np.asarray(user_vectors, dtype=np.float64)
        self.candidate_events = np.asarray(candidate_events, dtype=np.int64)
        self.events = np.asarray(
            event_vectors[self.candidate_events], dtype=np.float64
        )
        self.n_partners = self.users.shape[0]
        self.event_pos = {
            int(e): i for i, e in enumerate(self.candidate_events.tolist())
        }
        # u'·x for every (event, partner): the only per-pair term.
        self._partner_event = self.events @ self.users.T
        self._top_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_pairs(self) -> int:
        return self._partner_event.size

    def scores(self, user: int) -> np.ndarray:
        """Flat event-major Eqn-8 scores; the user as own partner is -inf."""
        u = self.users[user]
        s = (self.events @ u)[:, None] + self._partner_event
        s = s + (self.users @ u)[None, :]
        s[:, user] = -np.inf
        return s.ravel()

    def top(self, user: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Canonical top-n ``(pair_indices, scores)`` for ``user``."""
        key = (int(user), int(n))
        hit = self._top_cache.get(key)
        if hit is not None:
            return hit
        s = self.scores(user)
        k = min(n, int(np.isfinite(s).sum()))
        part = np.argpartition(-s, k - 1)[:k]
        boundary = s[part].min()
        tied = np.flatnonzero(s >= boundary)
        order = tied[np.lexsort((tied, -s[tied]))][:k]
        result = (order, s[order])
        self._top_cache[key] = result
        return result

    def pair_score(self, user: int, event: int, partner: int) -> float | None:
        """Oracle score of one pair, or ``None`` if it is not a candidate."""
        pos = self.event_pos.get(int(event))
        if pos is None or not 0 <= partner < self.n_partners or partner == user:
            return None
        u = self.users[user]
        return float(
            self.events[pos] @ u
            + self._partner_event[pos, partner]
            + self.users[partner] @ u
        )


@dataclass(slots=True)
class Verdict:
    """Outcome of checking one answer against the oracle."""

    valid: bool
    exact: bool
    recall: float
    reason: str = ""


def check_answer(
    oracle: Eqn8Oracle,
    user: int,
    answer: list[tuple[int, int, float]],
    n: int,
) -> Verdict:
    """Score every answered ``(event, partner, score)`` with the oracle.

    ``valid``: every pair is a distinct candidate and its reported score
    is its Eqn-8 score.  ``exact``: the answer is a canonical top-n up to
    rounding ties.  ``recall``: share of the oracle's top-n the answer
    recovers, counting a pair tied with the oracle's n-th score as found.
    """
    top_idx, top_scores = oracle.top(user, n)
    seen: set[tuple[int, int]] = set()
    oracle_scores = []
    for event, partner, score in answer:
        pair = (int(event), int(partner))
        truth = oracle.pair_score(user, *pair)
        if truth is None:
            return Verdict(False, False, 0.0, f"pair {pair} is not a candidate")
        if pair in seen:
            return Verdict(False, False, 0.0, f"pair {pair} answered twice")
        seen.add(pair)
        if abs(truth - score) > _tol(truth):
            return Verdict(
                False, False, 0.0,
                f"pair {pair} scored {score!r}, oracle {truth!r}",
            )
        oracle_scores.append(truth)
    floor = float(top_scores[-1]) - _tol(float(top_scores[-1]))
    recall = sum(s >= floor for s in oracle_scores) / len(top_idx)
    exact = len(answer) == len(top_idx) and all(
        abs(got - want) <= _tol(want)
        for got, want in zip(oracle_scores, top_scores.tolist(), strict=True)
    )
    return Verdict(True, exact, float(recall))
