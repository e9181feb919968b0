"""Threshold-Algorithm retrieval over the transformed pair space.

After the Section IV space transformation, top-n event-partner
recommendation is maximum-inner-product search between the query
:math:`\\vec q_u` and the candidate points :math:`\\vec p_{xu'}`.  The
paper adopts the TA-based technique of LCARS (ref [32]) — Fagin's
Threshold Algorithm adapted to weighted inner products:

offline, each of the ``2K+1`` dimensions keeps a list of candidates sorted
by their value on that dimension; online, sorted access proceeds
round-robin down the lists (restricted to dimensions with positive query
weight), each newly seen candidate is fully scored by random access, and
the scan stops as soon as the n-th best full score reaches the *threshold*
:math:`T = \\sum_f q_f \\cdot z_f` (``z_f`` = value at the current depth of
list ``f``), which upper-bounds every unseen candidate.  TA therefore
returns the exact top-n while examining a prefix of the lists — the
"minimum number of event-partner pairs" property the paper cites.

Non-negativity of the embeddings (the ReLU projection) guarantees the
query weights are non-negative, which TA's monotone-aggregation
requirement needs; dimensions with zero weight cannot raise any score and
are skipped.
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.contracts import check_shapes
from repro.online.transform import PairSpace, query_vector

if TYPE_CHECKING:
    from repro.online.bruteforce import FactoredBruteForceIndex


@dataclass(slots=True)
class RetrievalResult:
    """Top-n pairs plus the access statistics the efficiency study reports.

    ``exact`` is ``True`` when the result is the provably exact top-n
    over the indexed space (TA's stop condition reached, or a complete
    scan).  A budget-capped TA query that ran out of time returns its
    best-so-far with ``exact=False`` — the serving engine's degradation
    ladder records this so approximate answers are never silent.
    """

    pair_indices: np.ndarray  # pair indices, best first
    scores: np.ndarray  # inner products, aligned with pair_indices
    n_examined: int  # distinct candidates fully scored
    n_sorted_accesses: int  # total sorted-access steps
    fraction_examined: float  # n_examined / n_candidates
    exact: bool = True  # stop condition reached (vs budget early exit)
    n_clusters_probed: int = 0  # IVF coarse cells scanned (0 = non-IVF)

    def pairs(
        self, space: "PairSpace | FactoredBruteForceIndex"
    ) -> list[tuple[int, int, float]]:
        """Decode to ``(event_id, partner_id, score)`` triples."""
        events, partners = space.pair_ids(self.pair_indices)
        return [
            (int(e), int(p), float(s))
            for e, p, s in zip(events, partners, self.scores, strict=True)
        ]


#: Dimensions negated into one contiguous block per pass of the build and
#: of :meth:`ThresholdAlgorithmIndex.extend` (bounds the temporary copy
#: to this many rows of ``n_pairs`` floats).
_BLOCK_DIMS = 8


def _negated_rows(points: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Columns ``[lo:hi)`` of ``points``, negated, as contiguous rows.

    Sorting the negated values ascending (stably) orders candidates by
    value descending with ties by ascending index — the TA list order.
    """
    return np.negative(points[:, lo:hi].T, order="C")


class ThresholdAlgorithmIndex:
    """Offline index: per-dimension descending-order candidate lists."""

    def __init__(self, space: PairSpace) -> None:
        self.space = space
        # (dim, n_pairs): row f lists candidate indices by value desc, so
        # every list is contiguous for the merge in :meth:`extend` and
        # for the windows the query slices off it.
        lists = np.empty((space.dim, space.n_pairs), dtype=np.int64)
        # replint: allow-loop(blocks of dimensions; dim = 2K+1, not n_pairs)
        for lo in range(0, space.dim, _BLOCK_DIMS):
            neg = _negated_rows(space.points, lo, lo + _BLOCK_DIMS)
            lists[lo : lo + neg.shape[0]] = np.argsort(
                neg, axis=1, kind="stable"
            )
        self.sorted_lists = lists

    @property
    def n_candidates(self) -> int:
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes: candidate points, ids, and the sorted lists."""
        space = self.space
        return int(
            space.points.nbytes
            + space.partner_ids.nbytes
            + space.event_ids.nbytes
            + self.sorted_lists.nbytes
        )

    def extend(self, space: PairSpace, n_old: int) -> "ThresholdAlgorithmIndex":
        """A new index over ``space``, whose rows ``[n_old:]`` are new.

        ``space`` must contain this index's current candidates, unchanged
        and in order, as its first ``n_old`` rows.  This index is left
        as it is, so readers still holding it keep a complete index.
        Each sorted list is *merged*, not re-sorted: the ``m`` new rows
        are argsorted on their own (O(m log m) per dimension), one
        ``searchsorted`` of the new values into the old list's values
        gives the new entries' final positions (O(m log n)), and the old
        list fills the remaining positions in its existing order
        (O(n + m)).  Old entries precede equal-valued new ones, so the
        result is the stable argsort of the whole space — bit-identical
        to a cold build over it.
        """
        if n_old != self.space.n_pairs:
            raise ValueError(
                f"extend expects the first {self.space.n_pairs} rows to be "
                f"the current candidates, got n_old={n_old}"
            )
        n_new = space.n_pairs - n_old
        if n_new < 0:
            raise ValueError("extended space is smaller than the current one")
        grown = copy.copy(self)
        grown.space = space
        if n_new == 0:
            return grown
        old_lists = self.sorted_lists
        merged = np.empty((space.dim, space.n_pairs), dtype=np.int64)
        offsets = np.arange(n_new, dtype=np.int64)
        old_slot = np.empty(space.n_pairs, dtype=bool)
        # replint: allow-loop(blocks of dimensions; dim = 2K+1, not n_pairs)
        for lo in range(0, space.dim, _BLOCK_DIMS):
            neg = _negated_rows(space.points, lo, lo + _BLOCK_DIMS)
            new_lists = np.argsort(neg[:, n_old:], axis=1, kind="stable")
            new_lists += n_old
            # replint: allow-loop(lists of one block of dimensions)
            for r in range(neg.shape[0]):
                a = old_lists[lo + r]
                b = new_lists[r]
                # Ascending values of the descending lists; side="right"
                # puts each new entry after every equal-valued old one.
                pos_b = np.searchsorted(neg[r, a], neg[r, b], side="right")
                pos_b += offsets
                row = merged[lo + r]
                row[pos_b] = b
                old_slot.fill(True)
                old_slot[pos_b] = False
                row[old_slot] = a
        grown.sorted_lists = merged
        return grown

    # ------------------------------------------------------------------
    def query(
        self,
        user_vector: np.ndarray,
        n: int,
        *,
        exclude_partner: int | None = None,
        chunk: int = 64,
        budget_s: float | None = None,
    ) -> RetrievalResult:
        """Exact top-n retrieval for one user (Fagin's TA).

        Convenience wrapper: builds the extended query
        :math:`\\vec q_u = (\\vec u, \\vec u, 1)` and delegates to
        :meth:`query_extended`.
        """
        return self.query_extended(
            query_vector(user_vector),
            n,
            exclude_partner=exclude_partner,
            chunk=chunk,
            budget_s=budget_s,
        )

    @check_shapes("(M,)", nonneg=["q"])
    def query_extended(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude_partner: int | None = None,
        chunk: int = 64,
        budget_s: float | None = None,
    ) -> RetrievalResult:
        """Exact top-n retrieval for an already-extended query vector.

        Sorted access is *greedily scheduled*: each round advances the list
        whose frontier contributes most to the threshold (``q_f · z_f``),
        by ``chunk`` positions.  This is the standard TA refinement — the
        threshold :math:`T = \\sum_f q_f z_f` stays a valid upper bound on
        every unseen candidate regardless of how accesses are interleaved,
        so exactness is preserved while skewed dimensions (the common case
        for ReLU-sparse embeddings) are drained first.

        ``exclude_partner`` removes the querying user from the candidate
        partners (one cannot be one's own partner).

        ``budget_s`` bounds the scan's wall-clock: the deadline is
        checked once per round (every ``chunk`` sorted accesses), and on
        expiry the best-so-far heap is returned immediately with
        ``exact=False`` — the deadline-aware serving path's in-rung
        early exit.  ``None`` (the default) preserves the exact
        run-to-threshold behaviour.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        deadline = (
            time.perf_counter() + budget_s if budget_s is not None else None
        )
        space = self.space
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (space.dim,):
            raise ValueError(
                f"query dim {q.shape} != candidate dim ({space.dim},)"
            )

        active_dims = np.flatnonzero(q > 0.0)
        n_cand = space.n_pairs
        if n_cand == 0:
            return RetrievalResult(
                pair_indices=np.empty(0, dtype=np.int64),
                scores=np.empty(0, dtype=np.float64),
                n_examined=0,
                n_sorted_accesses=0,
                fraction_examined=0.0,
            )
        if active_dims.size == 0:
            # Degenerate query (no positive weight anywhere, e.g. an
            # all-zero vector): every candidate scores q·p identically, so
            # any eligible prefix is an exact top-n — matching what the
            # brute-force oracle returns for the same tie.
            eligible = (
                np.flatnonzero(space.partner_ids != exclude_partner)
                if exclude_partner is not None
                else np.arange(n_cand, dtype=np.int64)
            )
            take = eligible[: min(n, eligible.size)].astype(np.int64)
            return RetrievalResult(
                pair_indices=take,
                scores=space.points[take] @ q,
                n_examined=int(take.size),
                n_sorted_accesses=0,
                fraction_examined=take.size / n_cand,
            )

        points = space.points
        lists = self.sorted_lists
        excluded_mask = (
            space.partner_ids == exclude_partner
            if exclude_partner is not None
            else None
        )

        D = active_dims.size
        depths = np.zeros(D, dtype=np.int64)
        qa = q[active_dims]
        # Frontier values start at each list's maximum (depth 0 not yet
        # consumed): z_f = value of the first entry.
        frontier = points[lists[active_dims, 0], active_dims].astype(np.float64)
        contrib = qa * frontier  # q_f * z_f per active list

        # Min-heap of (score, -candidate): the weakest entry under the
        # canonical total order "descending score, ascending pair index"
        # sits at heap[0] (equal scores -> the *largest* index is weakest),
        # so boundary ties resolve identically to the brute-force oracle
        # and to per-shard engines merged by global index — bit-exact
        # tie-breaking everywhere, not just when scores are distinct.
        heap: list[tuple[float, int]] = []
        seen = np.zeros(n_cand, dtype=bool)
        n_examined = 0
        n_sorted = 0
        exact = True

        # replint: allow-loop(TA rounds are sequential; threshold depends on prior round)
        while True:
            threshold = float(contrib.sum())
            # Strict inequality: at heap-min == threshold an unseen
            # candidate could still tie the boundary score with a smaller
            # pair index, which the canonical order must prefer — one more
            # round resolves it (unseen scores are then < the heap min).
            if len(heap) >= n and heap[0][0] > threshold:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                exact = False
                break
            t = int(np.argmax(contrib))
            if depths[t] >= n_cand:
                # List exhausted; its contribution is zero from here on.
                contrib[t] = 0.0
                if not np.any(contrib > 0.0):
                    break
                continue
            f = int(active_dims[t])
            stop = min(depths[t] + chunk, n_cand)
            window = lists[f, depths[t] : stop]
            n_sorted += window.shape[0]
            fresh = window[~seen[window]]
            if fresh.size:
                seen[fresh] = True
                if excluded_mask is not None:
                    fresh = fresh[~excluded_mask[fresh]]
            if fresh.size:
                n_examined += int(fresh.size)
                scores = points[fresh] @ q  # random access, vectorised
                # replint: allow-loop(bounded heap maintenance, <= chunk items)
                for cand, score in zip(fresh.tolist(), scores.tolist(), strict=True):
                    entry = (score, -cand)
                    if len(heap) < n:
                        heapq.heappush(heap, entry)
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
            depths[t] = stop
            if stop < n_cand:
                frontier[t] = points[lists[f, stop], f]
                contrib[t] = qa[t] * frontier[t]
            else:
                contrib[t] = 0.0
                if not np.any(contrib > 0.0) and len(heap) >= min(n, n_cand):
                    break

        top = sorted(heap, key=lambda sc: (-sc[0], -sc[1]))
        return RetrievalResult(
            pair_indices=np.array([-c for _, c in top], dtype=np.int64),
            scores=np.array([s for s, _ in top], dtype=np.float64),
            n_examined=n_examined,
            n_sorted_accesses=n_sorted,
            fraction_examined=n_examined / n_cand,
            exact=exact,
        )
