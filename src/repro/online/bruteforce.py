"""Brute-force online recommendation: the paper's GEM-BF and the served scan.

Two exact full scans live here, both following the canonical order
(descending score, then ascending pair index) through one selection
kernel, :func:`top_n`:

* :class:`BruteForceIndex` — the paper's GEM-BF.  It scores every
  candidate point of the 2K+1 pair space against the extended query,
  ``O(|candidates| · (2K+1))`` per query.  This is the efficiency
  baseline of Table VI and the reference that TA and the IVF full probe
  are tested bit-identical against.
* :class:`FactoredBruteForceIndex` — the serving scan.  Eqn 8 scores a
  triple as ``u·x + u'·x + u·u'``, and only ``C[x,u'] = u'·x`` depends
  on the pair, not on the query.  The index stores ``C`` (one float per
  pair) and scores a query as ``a + C + b`` with ``a = E·u`` over the
  candidate events and ``b = U_c·u`` over the candidate partners: two
  additions per pair instead of 2K+1 multiply-adds, and 8 bytes per pair
  instead of ``8·(2K+1)``.  The 2K+1 transform exists so that TA can
  run; this scan does not need it.

The two scans round differently (``a + C + b`` is not the BLAS order of
``p·q``), so their scores agree to a rounding bound rather than bit for
bit; the property tests state the bound.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import check_shapes
from repro.online.pruning import top_k_events_per_partner
from repro.online.ta import RetrievalResult
from repro.online.transform import PairSpace, query_vector

#: Upper bound on the elements of one transient ``C`` block built at a
#: time (the pruned head is built in partner chunks of this many
#: entries), so million-partner builds never hold an extra
#: events-by-partners matrix beside the index itself.
_BUILD_BLOCK = 1 << 22

#: Growth factor of the refresh append buffers: a refresh that outgrows
#: the reserved rows reallocates to ``factor * need``, so n fold-ins cost
#: O(n) amortised row copies instead of O(n^2).
_GROWTH = 2.0


def top_n(
    scores: np.ndarray, n: int, keys: np.ndarray | None = None
) -> np.ndarray:
    """Flat positions of the canonical top-n of ``scores``.

    The canonical order is descending score, then ascending key, where
    ``keys`` (aligned with ``scores``) defaults to the flat C-order
    position.  Non-finite scores (the ``-inf`` exclusion sentinel) never
    qualify, so fewer than ``n`` positions come back when fewer finite
    scores exist.

    A 2-D ``scores`` grid is searched row-wise first: the n-th largest
    row maximum ``tau`` is an exact lower bound on the n-th best score
    (n rows each hold a score ``>= tau``), so only rows whose maximum
    reaches ``tau`` are read again.  With fewer rows than ``n`` (and for
    1-D input) ``tau`` is the exact n-th largest score.  Every score
    ``>= tau`` is kept before the final sort, so ties at the boundary
    are resolved by key rather than by the partition's arbitrary choice.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grid = np.atleast_2d(scores)
    flat = grid.reshape(-1)
    if flat.size == 0:
        return np.empty(0, dtype=np.int64)
    n_rows, width = grid.shape
    if n_rows >= n and n_rows > 1:
        row_max = grid.max(axis=1)
        tau = np.partition(row_max, n_rows - n)[n_rows - n]
        rows = np.flatnonzero(row_max >= tau)
        r, c = np.nonzero(grid[rows] >= tau)
        pos = rows[r] * width + c
    elif flat.size > n:
        tau = np.partition(flat, flat.size - n)[flat.size - n]
        pos = np.flatnonzero(flat >= tau)
    else:
        pos = np.arange(flat.size)
    pos = pos[np.isfinite(flat[pos])]
    tie = pos if keys is None else np.asarray(keys, dtype=np.int64).reshape(-1)[pos]
    return pos[np.lexsort((tie, -flat[pos]))[:n]].astype(np.int64)


def _prefix_top_n(grid: np.ndarray, take: int, n: int) -> np.ndarray:
    """:func:`top_n` over the first ``take`` entries of ``grid``.

    A whole grid keeps its rows for the row-maximum bound; a partial
    last row makes the prefix a flat array.
    """
    if take == grid.size:
        return top_n(grid, n)
    return top_n(grid.reshape(-1)[:take], n)


def _empty_result() -> RetrievalResult:
    return RetrievalResult(
        pair_indices=np.empty(0, dtype=np.int64),
        scores=np.empty(0, dtype=np.float64),
        n_examined=0,
        n_sorted_accesses=0,
        fraction_examined=0.0,
    )


def _scan_result(
    pair_indices: np.ndarray, scores: np.ndarray, m: int, n_pairs: int
) -> RetrievalResult:
    """A full or prefix scan's answer: ``m`` of ``n_pairs`` scored."""
    return RetrievalResult(
        pair_indices=np.asarray(pair_indices, dtype=np.int64),
        scores=np.asarray(scores, dtype=np.float64),
        n_examined=m,
        n_sorted_accesses=0,
        fraction_examined=m / n_pairs,
        exact=m == n_pairs,
    )


class BruteForceIndex:
    """Full-scan retrieval over a transformed pair space (GEM-BF)."""

    def __init__(self, space: PairSpace) -> None:
        self.space = space

    @property
    def n_candidates(self) -> int:
        return self.space.n_pairs

    def memory_bytes(self) -> int:
        """Resident bytes: candidate points and the pair-id arrays."""
        space = self.space
        return int(
            space.points.nbytes
            + space.partner_ids.nbytes
            + space.event_ids.nbytes
        )

    def extend(self, space: PairSpace, n_old: int) -> None:
        """Absorb rows ``[n_old:]`` of ``space`` (no derived state)."""
        if n_old != self.space.n_pairs:
            raise ValueError(
                f"extend expects the first {self.space.n_pairs} rows to be "
                f"the current candidates, got n_old={n_old}"
            )
        self.space = space

    def query(
        self,
        user_vector: np.ndarray,
        n: int,
        *,
        exclude_partner: int | None = None,
    ) -> RetrievalResult:
        """Exact top-n by scoring all candidates (wrapper that builds
        :math:`\\vec q_u` from the raw user vector)."""
        return self.query_extended(
            query_vector(user_vector), n, exclude_partner=exclude_partner
        )

    @check_shapes("(M,)")
    def query_extended(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude_partner: int | None = None,
        limit: int | None = None,
    ) -> RetrievalResult:
        """Exact top-n for an already-extended query vector.

        ``limit`` scores only the first ``limit`` pairs; the answer is
        then the exact top-n of that prefix, ``exact`` only when the
        prefix is the whole space.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        space = self.space
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (space.dim,):
            raise ValueError(
                f"query dim {q.shape} != candidate dim ({space.dim},)"
            )
        if space.n_pairs == 0:
            return _empty_result()
        m = space.n_pairs if limit is None else min(int(limit), space.n_pairs)
        scores = space.points[:m] @ q
        return self._top_n_from_scores(scores, n, exclude_partner)

    def query_extended_batch(
        self,
        queries: np.ndarray,
        n: int,
        *,
        exclude_partners: np.ndarray | None = None,
    ) -> list[RetrievalResult]:
        """Top-n for many extended queries with one matmul.

        The single ``points @ queries.T`` product is where the batch form
        wins: the candidate matrix is streamed through the CPU caches once
        for the whole batch instead of once per user.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.space.dim:
            raise ValueError(
                f"queries must be (batch, {self.space.dim}), "
                f"got {queries.shape}"
            )
        if self.space.n_pairs == 0:
            return [_empty_result()] * queries.shape[0]
        # (batch, n_pairs): row-major so each user's score row is
        # contiguous for the selection that follows.
        all_scores = queries @ self.space.points.T
        results = []
        # replint: allow-loop(per-query top-n decode over the shared matmul)
        for b in range(queries.shape[0]):
            exclude = (
                int(exclude_partners[b])
                if exclude_partners is not None
                else None
            )
            results.append(
                self._top_n_from_scores(all_scores[b], n, exclude)
            )
        return results

    # ------------------------------------------------------------------
    def _top_n_from_scores(
        self,
        scores: np.ndarray,
        n: int,
        exclude_partner: int | None,
    ) -> RetrievalResult:
        m = scores.shape[0]
        if exclude_partner is not None:
            scores = np.where(
                self.space.partner_ids[:m] == exclude_partner, -np.inf, scores
            )
        order = top_n(scores, n)
        return _scan_result(order, scores[order], m, self.space.n_pairs)


class _AppendBuffers:
    """Growable event-row buffers shared by successive refreshed indices.

    ``rows`` counts the rows written so far; only the index that ends
    there may append (older indices are prefixes that stay frozen).
    """

    __slots__ = ("events", "event_ids", "grid_c", "rows")

    def __init__(
        self, events: np.ndarray, event_ids: np.ndarray, grid_c: np.ndarray
    ) -> None:
        self.events = events
        self.event_ids = event_ids
        self.grid_c = grid_c
        self.rows = 0

    @property
    def capacity(self) -> int:
        return int(self.events.shape[0])


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x · yᵀ`` with a row-independent reduction.

    Entry ``[i, j]`` depends only on rows ``x[i]`` and ``y[j]``, never on
    how many other rows are in the call.  BLAS ``@`` does not promise
    that (gemm and gemv, and different block sizes, round differently);
    ``np.einsum`` without path optimisation reduces every entry the same
    way.  This is what keeps a sharded index, a batched query and a
    refreshed index bit-identical to the single, looped and fresh ones.
    """
    return np.einsum("ik,jk->ij", x, y)


class FactoredBruteForceIndex:
    """Exact brute force over Eqn 8's factored form ``a + C + b``.

    Layout (pair numbering is the same as the 2K+1 spaces the engine
    builds, so decoding, the sharded merge and the caches are unchanged):

    * an optional **pruned head**, partner-major: pair ``p * k + j`` is
      partner ``p`` with her ``j``-th preferred event ``head_rows[p, j]``
      (the layout of :func:`~repro.online.pruning.build_pruned_pair_space`);
      ``head_c[p, j]`` holds its ``C`` value.  ``k == 0`` without pruning.
    * an **event-major grid**: pair ``P * k + g * P + p`` is event row
      ``grid_start + g`` with partner ``p``, and ``grid_c[g, p]`` holds its
      ``C`` value.  Unpruned builds start the grid at event row 0 (the
      layout of :func:`~repro.online.transform.transform_all_pairs`);
      every :meth:`extended` refresh appends grid rows.

    ``events``/``event_ids`` are the candidate event rows (head events
    first), ``partners``/``partner_ids`` the candidate partner rows.
    A query scores ``a = E·u`` and ``b = U_c·u`` once, excludes the query
    user by setting ``b[user] = -inf``, and adds ``a`` and ``b`` onto
    ``C`` one query at a time.

    Instances are immutable once built: :meth:`extended` returns a new,
    longer index whose arrays share growable buffers with this one, and
    writes only past this index's end, so readers of the old index see
    frozen data.  Queries are read-only and thread-safe.
    """

    def __init__(
        self,
        events: np.ndarray,
        event_ids: np.ndarray,
        partners: np.ndarray,
        partner_ids: np.ndarray,
        head_rows: np.ndarray,
        head_c: np.ndarray,
        grid_start: int,
        grid_c: np.ndarray,
        version: int = 0,
        buffers: "_AppendBuffers | None" = None,
    ) -> None:
        n_partners = partners.shape[0]
        if partner_ids.shape != (n_partners,):
            raise ValueError("partner_ids must align with partners")
        if event_ids.shape != (events.shape[0],):
            raise ValueError("event_ids must align with events")
        if head_rows.shape != head_c.shape or head_rows.shape[0] != n_partners:
            raise ValueError("head_rows/head_c must be (n_partners, k)")
        if grid_c.shape != (events.shape[0] - grid_start, n_partners):
            raise ValueError(
                f"grid_c must be ({events.shape[0] - grid_start}, "
                f"{n_partners}), got {grid_c.shape}"
            )
        self.events = events
        self.event_ids = event_ids
        self.partners = partners
        self.partner_ids = partner_ids
        self.head_rows = head_rows
        self.head_c = head_c
        self.grid_start = int(grid_start)
        self.grid_c = grid_c
        self.version = version
        self._buffers = buffers

    # ------------------------------------------------------------------
    # construction
    @classmethod
    def build(
        cls,
        event_vectors: np.ndarray,
        partner_vectors: np.ndarray,
        *,
        event_ids: np.ndarray | None = None,
        partner_ids: np.ndarray | None = None,
        top_k: int | None = None,
        version: int = 0,
    ) -> "FactoredBruteForceIndex":
        """Index the candidate events × partners (offline path).

        ``top_k=None`` indexes the full cross product; an integer keeps
        each partner's ``top_k`` preferred events, chosen exactly as
        :func:`~repro.online.pruning.build_pruned_pair_space` chooses
        them, so both builds index the same pairs in the same order.
        ``partner_vectors`` may be a float32 memmap slice; rows are
        widened to float64, which is exact.
        """
        events = np.ascontiguousarray(event_vectors, dtype=np.float64)
        partners = np.ascontiguousarray(partner_vectors, dtype=np.float64)
        n_events, n_partners = events.shape[0], partners.shape[0]
        if event_ids is None:
            event_ids = np.arange(n_events, dtype=np.int64)
        if partner_ids is None:
            partner_ids = np.arange(n_partners, dtype=np.int64)
        event_ids = np.array(event_ids, dtype=np.int64)
        partner_ids = np.array(partner_ids, dtype=np.int64)
        if top_k is None:
            head_rows = np.empty((n_partners, 0), dtype=np.int64)
            head_c = np.empty((n_partners, 0), dtype=np.float64)
            return cls(
                events, event_ids, partners, partner_ids, head_rows,
                head_c, 0, _dots(events, partners), version,
            )
        _rows, cols = top_k_events_per_partner(events, partners, top_k)
        head_rows = cols.reshape(n_partners, top_k)
        head_c = np.empty(head_rows.shape, dtype=np.float64)
        step = max(1, _BUILD_BLOCK // max(n_events, 1))
        # replint: allow-loop(partner chunks bound the transient C block)
        for lo in range(0, n_partners, step):
            hi = min(lo + step, n_partners)
            block = _dots(events, partners[lo:hi])  # (n_events, chunk)
            head_c[lo:hi] = np.take_along_axis(
                block.T, head_rows[lo:hi], axis=1
            )
        return cls(
            events, event_ids, partners, partner_ids, head_rows, head_c,
            n_events, np.empty((0, n_partners), dtype=np.float64), version,
        )

    def extended(
        self,
        new_event_vectors: np.ndarray,
        new_event_ids: np.ndarray,
        *,
        version: int | None = None,
    ) -> "FactoredBruteForceIndex":
        """A new index with every (new event × partner) pair appended.

        New event rows join the grid, so their pairs are numbered after
        every existing pair, event-major — the block a 2K+1 refresh
        appends.  Rows are written into growable buffers past this
        index's end: when the buffers have room nothing existing is
        copied; otherwise buffers of ``max(need, 2 * current)`` rows are
        allocated once.  Single-writer: extend only the newest index.
        """
        new_events = np.asarray(new_event_vectors, dtype=np.float64)
        new_ids = np.asarray(new_event_ids, dtype=np.int64)
        n_old, n_new = self.events.shape[0], new_events.shape[0]
        need = n_old + n_new
        buffers = self._buffers
        if buffers is None or buffers.rows != n_old or need > buffers.capacity:
            cap = max(need, int(_GROWTH * n_old))
            buffers = _AppendBuffers(
                np.empty((cap, self.events.shape[1]), dtype=np.float64),
                np.empty(cap, dtype=np.int64),
                np.empty(
                    (cap - self.grid_start, self.n_partners), dtype=np.float64
                ),
            )
            buffers.events[:n_old] = self.events
            buffers.event_ids[:n_old] = self.event_ids
            buffers.grid_c[: n_old - self.grid_start] = self.grid_c
        ev_buf, id_buf, c_buf = buffers.events, buffers.event_ids, buffers.grid_c
        ev_buf[n_old:need] = new_events
        id_buf[n_old:need] = new_ids
        c_buf[n_old - self.grid_start : need - self.grid_start] = _dots(
            new_events, self.partners
        )
        buffers.rows = need
        return FactoredBruteForceIndex(
            ev_buf[:need],
            id_buf[:need],
            self.partners,
            self.partner_ids,
            self.head_rows,
            self.head_c,
            self.grid_start,
            c_buf[: need - self.grid_start],
            self.version if version is None else version,
            buffers,
        )

    # ------------------------------------------------------------------
    # introspection and decoding
    @property
    def n_partners(self) -> int:
        return int(self.partners.shape[0])

    @property
    def n_head_pairs(self) -> int:
        return int(self.head_rows.size)

    @property
    def n_pairs(self) -> int:
        return self.n_head_pairs + int(self.grid_c.size)

    @property
    def n_candidates(self) -> int:
        return self.n_pairs

    @property
    def embedding_dim(self) -> int:
        return int(self.events.shape[1])

    def memory_bytes(self) -> int:
        """Resident bytes, counting the reserved append capacity."""
        grown = self._buffers
        rows = (
            (self.events, self.event_ids, self.grid_c)
            if grown is None
            else (grown.events, grown.event_ids, grown.grid_c)
        )
        fixed = (self.partners, self.partner_ids, self.head_rows, self.head_c)
        return int(sum(a.nbytes for a in rows + fixed))

    def _locate(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Event row and partner position of each pair index."""
        idx = np.asarray(idx, dtype=np.int64)
        n_head = self.n_head_pairs
        in_head = idx < n_head
        rows = np.empty(idx.shape, dtype=np.int64)
        cols = np.empty(idx.shape, dtype=np.int64)
        if n_head:
            hp, hj = np.divmod(idx[in_head], self.head_rows.shape[1])
            rows[in_head] = self.head_rows[hp, hj]
            cols[in_head] = hp
        g, p = np.divmod(idx[~in_head] - n_head, self.n_partners)
        rows[~in_head] = self.grid_start + g
        cols[~in_head] = p
        return rows, cols

    def pair_ids(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(event_ids, partner_ids)`` of the pairs ``idx``."""
        rows, cols = self._locate(idx)
        return self.event_ids[rows], self.partner_ids[cols]

    def to_pair_space(self, start: int = 0) -> PairSpace:
        """The 2K+1 points of pairs ``[start:]``, in pair order.

        For siblings that need the transformed space (the opt-in IVF
        rung); the interaction coordinate is this index's ``C`` value.
        """
        idx = np.arange(start, self.n_pairs, dtype=np.int64)
        rows, cols = self._locate(idx)
        c = np.concatenate([self.head_c.reshape(-1), self.grid_c.reshape(-1)])
        points = np.concatenate(
            [self.events[rows], self.partners[cols], c[idx, None]], axis=1
        )
        return PairSpace(
            points=points,
            partner_ids=self.partner_ids[cols],
            event_ids=self.event_ids[rows],
            version=self.version,
        )

    # ------------------------------------------------------------------
    # queries
    def query_batch(
        self,
        user_vectors: np.ndarray,
        n: int,
        *,
        exclude_partners: np.ndarray | None = None,
        limit: int | None = None,
    ) -> list[RetrievalResult]:
        """Exact top-n for each row of ``user_vectors`` (``(batch, K)``).

        ``exclude_partners[i]`` (a global user id) is never returned as
        query ``i``'s partner.  ``limit`` scores only the first ``limit``
        pairs (the truncated rung); the answer is then the exact top-n
        of that prefix, ``exact`` only when it covers every pair.
        Read-only and thread-safe.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        users = np.asarray(user_vectors, dtype=np.float64)
        if users.ndim != 2 or users.shape[1] != self.embedding_dim:
            raise ValueError(
                f"user_vectors must be (batch, {self.embedding_dim}), "
                f"got {users.shape}"
            )
        n_pairs = self.n_pairs
        if n_pairs == 0:
            return [_empty_result()] * users.shape[0]
        m = n_pairs if limit is None else min(int(limit), n_pairs)
        n_head = self.n_head_pairs
        width = self.n_partners
        # Only the grid rows that hold pairs below ``m`` are scored.
        head_take = min(m, n_head)
        head_parts = -(-head_take // max(self.head_rows.shape[1], 1))
        grid_take = max(m - n_head, 0)
        grid_rows = -(-grid_take // width)
        a = _dots(users, self.events)
        b = _dots(users, self.partners)
        if exclude_partners is not None:
            excl = np.asarray(exclude_partners, dtype=np.int64)
            b[self.partner_ids[None, :] == excl[:, None]] = -np.inf
        lo = self.grid_start
        grid_c = self.grid_c[:grid_rows]
        head_rows = self.head_rows[:head_parts]
        head_c = self.head_c[:head_parts]
        buf = np.empty(grid_c.shape, dtype=np.float64)
        results = []
        # replint: allow-loop(per-query selection over the shared a, b, C)
        for i in range(users.shape[0]):
            np.add(a[i, lo : lo + grid_rows, None], grid_c, out=buf)
            buf += b[i]
            pos = _prefix_top_n(buf, grid_take, n)
            idx, sc = pos + n_head, buf.reshape(-1)[pos]
            if head_take:
                head = a[i, head_rows] + head_c
                head += b[i, :head_parts, None]
                hpos = _prefix_top_n(head, head_take, n)
                idx = np.concatenate([hpos, idx])
                sc = np.concatenate([head.reshape(-1)[hpos], sc])
                keep = top_n(sc, n, keys=idx)
                idx, sc = idx[keep], sc[keep]
            results.append(_scan_result(idx, sc, m, n_pairs))
        return results

    @check_shapes("(M,)")
    def query_extended(
        self,
        q: np.ndarray,
        n: int,
        *,
        exclude_partner: int | None = None,
        limit: int | None = None,
    ) -> RetrievalResult:
        """Exact top-n for an extended query ``q = (u, u, 1)``.

        Eqn 8 needs only ``u``, read from ``q[:K]``; the signature
        matches :meth:`BruteForceIndex.query_extended` so the serving
        backends and the truncated rung drive both scans alike.
        """
        q = np.asarray(q, dtype=np.float64)
        k = self.embedding_dim
        if q.shape != (2 * k + 1,):
            raise ValueError(f"query dim {q.shape} != ({2 * k + 1},)")
        excl = (
            None
            if exclude_partner is None
            else np.array([exclude_partner], dtype=np.int64)
        )
        return self.query_batch(
            q[None, :k], n, exclude_partners=excl, limit=limit
        )[0]
