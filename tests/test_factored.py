"""The factored brute-force scan and the canonical top-n kernel.

:class:`FactoredBruteForceIndex` scores Eqn 8 as ``a + C + b`` instead
of scanning the 2K+1 pair space.  These tests hold it to the paper's
GEM-BF (:class:`BruteForceIndex` over the 2K+1 space):

* on tie-heavy quantised vectors every inner product is exact in
  float64, so rankings *and* scores must be identical, ties included;
* on continuous vectors the two scans round differently.  Each computes
  a sum of at most ``2K+2`` products, so each is within
  ``gamma(2K+2) * S`` of the exact score, where
  ``S = |u|·|x| + |u'|·|x| + |u|·|u'|`` and
  ``gamma(m) = m·eps / (1 - m·eps)``.  The scores must agree within
  twice that, and the rankings must be identical wherever neighbouring
  scores differ by more than it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    BruteForceIndex,
    build_pruned_pair_space,
    query_vector,
    recommend_events,
    recommend_partners,
    transform_all_pairs,
)
from repro.online.bruteforce import FactoredBruteForceIndex, top_n
from repro.online.transform import PairSpace
from repro.serving import ServingEngine, create_backend

EPS = np.finfo(np.float64).eps / 2


def _gamma(m: int) -> float:
    return m * EPS / (1 - m * EPS)


def _vectors(seed, n_events, n_partners, dim, quantised):
    rng = np.random.default_rng(seed)
    if quantised:
        events = rng.integers(0, 3, size=(n_events, dim)) * 0.5
        partners = rng.integers(0, 3, size=(n_partners, dim)) * 0.5
    else:
        events = np.abs(rng.normal(0.3, 0.4, size=(n_events, dim)))
        partners = np.abs(rng.normal(0.3, 0.4, size=(n_partners, dim)))
    return events.astype(np.float64), partners.astype(np.float64)


def _both(events, partners, top_k, extra):
    """The 2K+1 reference and the factored index over the same pairs."""
    if top_k is None:
        space = transform_all_pairs(events, partners)
    else:
        space = build_pruned_pair_space(events, partners, top_k)
    index = FactoredBruteForceIndex.build(events, partners, top_k=top_k)
    if extra is not None and extra.shape[0]:
        ids = np.arange(events.shape[0], events.shape[0] + extra.shape[0])
        block = transform_all_pairs(extra, partners, event_ids=ids)
        space = PairSpace(
            points=np.concatenate([space.points, block.points]),
            partner_ids=np.concatenate([space.partner_ids, block.partner_ids]),
            event_ids=np.concatenate([space.event_ids, block.event_ids]),
        )
        half = extra.shape[0] // 2
        index = index.extended(extra[:half], ids[:half]).extended(
            extra[half:], ids[half:]
        )
    return BruteForceIndex(space), index


layouts = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n_events": st.integers(1, 9),
        "n_partners": st.integers(1, 12),
        "dim": st.integers(1, 6),
        "n": st.integers(1, 40),
        "pruned": st.booleans(),
        "n_extra": st.integers(0, 4),
    }
)


def _layout(p, quantised):
    events, partners = _vectors(
        p["seed"], p["n_events"], p["n_partners"], p["dim"], quantised
    )
    extra, _ = _vectors(
        p["seed"] + 1, p["n_extra"], 1, p["dim"], quantised
    )
    top_k = None
    if p["pruned"]:
        top_k = 1 + p["seed"] % p["n_events"]
    return events, partners, top_k, extra


class TestFactoredMatchesPairSpace:
    @given(p=layouts)
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_rankings_identical(self, p):
        events, partners, top_k, extra = _layout(p, quantised=True)
        ref, fac = _both(events, partners, top_k, extra)
        assert fac.n_pairs == ref.n_candidates
        users = list(range(partners.shape[0]))
        # The batched answers match the one-at-a-time ones.
        batch = fac.query_batch(
            partners, p["n"], exclude_partners=np.array(users)
        )
        for u in users:
            q = query_vector(partners[u])
            want = ref.query_extended(q, p["n"], exclude_partner=u)
            got = fac.query_extended(q, p["n"], exclude_partner=u)
            np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
            np.testing.assert_array_equal(got.scores, want.scores)
            np.testing.assert_array_equal(
                batch[u].pair_indices, got.pair_indices
            )
            np.testing.assert_array_equal(batch[u].scores, got.scores)
            e, pa = fac.pair_ids(got.pair_indices)
            np.testing.assert_array_equal(
                e, ref.space.event_ids[want.pair_indices]
            )
            np.testing.assert_array_equal(
                pa, ref.space.partner_ids[want.pair_indices]
            )
            assert u not in set(pa.tolist())

    @given(p=layouts, frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_tie_heavy_prefix_scan_identical(self, p, frac):
        events, partners, top_k, extra = _layout(p, quantised=True)
        ref, fac = _both(events, partners, top_k, extra)
        limit = max(1, int(round(frac * fac.n_pairs)))
        q = query_vector(partners[0])
        want = ref.query_extended(q, p["n"], exclude_partner=0, limit=limit)
        got = fac.query_extended(q, p["n"], exclude_partner=0, limit=limit)
        np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
        np.testing.assert_array_equal(got.scores, want.scores)
        assert got.n_examined == want.n_examined == limit
        assert got.exact == want.exact == (limit == fac.n_pairs)

    @given(p=layouts)
    @settings(max_examples=60, deadline=None)
    def test_continuous_scores_within_bound(self, p):
        events, partners, top_k, extra = _layout(p, quantised=False)
        ref, fac = _both(events, partners, top_k, extra)
        space = ref.space
        dim = p["dim"]
        all_events = np.vstack([events, extra]) if extra.size else events
        for u in range(partners.shape[0]):
            uv = partners[u]
            q = query_vector(uv)
            ref_all = space.points @ q
            # S for every pair: the vectors are non-negative, so the sum
            # of absolute products is the exact score's magnitude.
            x = all_events[space.event_ids]
            w = partners[space.partner_ids]
            s_abs = x @ uv + np.einsum("ij,ij->i", w, x) + w @ uv
            tol = 2 * _gamma(2 * dim + 2) * s_abs
            want = ref.query_extended(q, p["n"], exclude_partner=u)
            got = fac.query_extended(q, p["n"], exclude_partner=u)
            assert got.pair_indices.size == want.pair_indices.size
            idx = got.pair_indices
            assert np.all(np.abs(got.scores - ref_all[idx]) <= tol[idx])
            # Same ranking wherever the reference scores are separated by
            # more than the rounding bound.
            for g, w_idx in zip(idx, want.pair_indices, strict=True):
                if g != w_idx:
                    gap = abs(ref_all[g] - ref_all[w_idx])
                    assert gap <= 2 * max(tol[g], tol[w_idx])


class TestFactoredEdgeCases:
    def test_n_larger_than_event_rows(self):
        events, partners = _vectors(3, 4, 6, 3, quantised=True)
        ref, fac = _both(events, partners, None, None)
        q = query_vector(partners[2])
        want = ref.query_extended(q, 50, exclude_partner=2)
        got = fac.query_extended(q, 50, exclude_partner=2)
        assert got.pair_indices.size == 4 * 5  # all but the user's pairs
        np.testing.assert_array_equal(got.pair_indices, want.pair_indices)
        np.testing.assert_array_equal(got.scores, want.scores)

    @pytest.mark.parametrize("top_k", [None, 2])
    def test_one_partner_shard_excluding_the_user(self, top_k):
        events, users = _vectors(5, 4, 9, 3, quantised=False)
        fac = FactoredBruteForceIndex.build(
            events, users[6:7], partner_ids=np.array([6]), top_k=top_k
        )
        res = fac.query_extended(query_vector(users[6]), 3, exclude_partner=6)
        assert res.pair_indices.size == 0 and res.scores.size == 0
        assert res.exact
        other = fac.query_extended(query_vector(users[1]), 3, exclude_partner=1)
        assert other.pair_indices.size == min(3, fac.n_pairs)

    def test_empty_candidate_set(self):
        _events, partners = _vectors(1, 1, 5, 3, quantised=False)
        fac = FactoredBruteForceIndex.build(np.empty((0, 3)), partners)
        assert fac.n_pairs == 0
        res = fac.query_extended(query_vector(partners[0]), 4)
        assert res.pair_indices.size == 0 and res.n_examined == 0
        batch = fac.query_batch(partners[:2], 4)
        assert [r.pair_indices.size for r in batch] == [0, 0]

    def test_refresh_extends_empty_pruned_grid(self):
        events, partners = _vectors(8, 5, 7, 4, quantised=True)
        extra, _ = _vectors(9, 3, 1, 4, quantised=True)
        ref, fac = _both(events, partners, 2, extra)
        assert fac.n_pairs == 7 * 2 + 3 * 7
        q = query_vector(partners[4])
        want = ref.query_extended(q, 12, exclude_partner=4)
        got = fac.query_extended(q, 12, exclude_partner=4)
        np.testing.assert_array_equal(got.pair_indices, want.pair_indices)

    def test_old_index_survives_extension(self):
        events, partners = _vectors(4, 5, 6, 3, quantised=True)
        fac = FactoredBruteForceIndex.build(events, partners)
        grown = fac.extended(events[:2] * 2, np.array([5, 6]))
        grown2 = grown.extended(events[2:3], np.array([7]))
        assert grown2.grid_c.base is grown.grid_c.base  # appended in place
        q = query_vector(partners[1])
        before = fac.query_extended(q, 5, exclude_partner=1)
        again = FactoredBruteForceIndex.build(events, partners).query_extended(
            q, 5, exclude_partner=1
        )
        np.testing.assert_array_equal(before.pair_indices, again.pair_indices)
        assert grown.n_pairs == 7 * 6 and grown2.n_pairs == 8 * 6

    def test_to_pair_space_matches_transform(self):
        events, partners = _vectors(6, 4, 5, 3, quantised=True)
        for top_k in (None, 2):
            ref, fac = _both(events, partners, top_k, events[:2])
            space = fac.to_pair_space()
            np.testing.assert_array_equal(space.points, ref.space.points)
            np.testing.assert_array_equal(space.event_ids, ref.space.event_ids)
            np.testing.assert_array_equal(
                space.partner_ids, ref.space.partner_ids
            )

    def test_backend_rejects_pair_space(self):
        events, partners = _vectors(1, 3, 4, 2, quantised=True)
        with pytest.raises(TypeError, match="FactoredBruteForceIndex"):
            create_backend("bruteforce").build(
                transform_all_pairs(events, partners)
            )


def _reference_order(scores, keys, n):
    flat = scores.reshape(-1)
    keys = np.arange(flat.size) if keys is None else keys.reshape(-1)
    finite = np.flatnonzero(np.isfinite(flat))
    return finite[np.lexsort((keys[finite], -flat[finite]))][:n]


class TestCanonicalKernel:
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(0, 12),
        width=st.integers(1, 12),
        n=st.integers(1, 30),
        levels=st.integers(1, 4),
        one_d=st.booleans(),
        with_keys=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_full_sort(
        self, seed, rows, width, n, levels, one_d, with_keys
    ):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, size=(rows, width)).astype(float)
        scores[rng.random(scores.shape) < 0.15] = -np.inf
        if one_d:
            scores = scores.reshape(-1)
        keys = None
        if with_keys:
            keys = rng.permutation(scores.size).reshape(scores.shape)
        got = top_n(scores, n, keys=keys)
        np.testing.assert_array_equal(got, _reference_order(scores, keys, n))

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            top_n(np.ones(3), 0)


class TestTaskTies:
    """Regression: task-level top-n keeps the canonical tied subset."""

    @pytest.mark.parametrize("seed", range(25))
    def test_recommend_events_canonical_under_ties(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 2, size=(4, 3)).astype(float)
        events = rng.integers(0, 2, size=(60, 3)).astype(float)
        cand = rng.permutation(60)[:45].astype(np.int64)
        n = int(rng.integers(1, 20))
        got = recommend_events(users, events, 1, cand, n=n)
        scores = events[cand] @ users[1]
        want = sorted(zip(-scores, cand.tolist()))[:n]
        assert [e for e, _s in got] == [e for _s, e in want]

    @pytest.mark.parametrize("seed", range(25))
    def test_recommend_partners_canonical_under_ties(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 2, size=(70, 3)).astype(float)
        events = rng.integers(0, 2, size=(5, 3)).astype(float)
        n = int(rng.integers(1, 20))
        got = recommend_partners(users, events, 3, 2, n=n)
        partners = np.array([p for p in range(70) if p != 3])
        scores = users[partners] @ events[2] + users[partners] @ users[3]
        want = sorted(zip(-scores, partners.tolist()))[:n]
        assert [p for p, _s in got] == [p for _s, p in want]
        assert 3 not in {p for p, _s in got}


class TestServingMemory:
    """A brute-force engine never holds an (n_pairs, 2K+1) array."""

    K = 16

    def _engine(self, backend="bruteforce", **kwargs):
        rng = np.random.default_rng(21)
        users = np.abs(rng.normal(size=(400, self.K)))
        events = np.abs(rng.normal(size=(150, self.K)))
        return ServingEngine(
            users, events, np.arange(150, dtype=np.int64),
            backend=backend, cache_size=0, **kwargs,
        )

    def test_memory_bytes_per_pair(self):
        engine = self._engine().warm()
        n_pairs = engine.n_candidate_pairs
        assert n_pairs == 150 * 400
        overhead = 8 * (self.K + 1) * (150 + 400)
        assert engine.memory_bytes() <= 8 * n_pairs + overhead
        assert engine.memory_bytes() * 20 < n_pairs * (2 * self.K + 1) * 8

    @pytest.mark.parametrize("backend", ["bruteforce", "bruteforce-pruned"])
    def test_warm_peak_stays_below_one_pair_space(self, backend):
        engine = self._engine(backend=backend)
        pair_space_bytes = 150 * 400 * (2 * self.K + 1) * 8
        tracemalloc.start()
        try:
            engine.warm()
            engine.recommend_batch(np.arange(16), n=10)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pair_space_bytes / 4, peak
        assert isinstance(engine.space, FactoredBruteForceIndex)

    def test_ta_engine_still_serves_pair_space(self):
        engine = self._engine(backend="ta").warm()
        assert isinstance(engine.space, PairSpace)
