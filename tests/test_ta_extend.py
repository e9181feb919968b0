"""Incremental TA list maintenance (:meth:`ThresholdAlgorithmIndex.extend`).

A fold-in refresh merges new candidates into the per-dimension sorted
lists instead of re-sorting.  The merged lists must be *bit-identical*
to a cold build over the grown space — the stable descending argsort of
every dimension, ties by ascending pair index — after any sequence of
extensions, including empty ones and one-row ones, and TA queries on the
extended index must return the float64 brute-force oracle's canonical
top-n.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import ThresholdAlgorithmIndex, query_vector
from repro.online.transform import PairSpace


def _points(rng, n, k, levels):
    """``(n, 2K+1)`` non-negative points; ``levels > 0`` draws small
    multiples of 0.5 (tie-heavy, every score exact in float64),
    ``levels == 0`` continuous ReLU-sparse values."""
    shape = (n, 2 * k + 1)
    if levels:
        return rng.integers(0, levels, size=shape) * 0.5
    points = np.abs(rng.normal(0.3, 0.4, size=shape))
    points[rng.random(shape) < 0.3] = 0.0
    return points


def _prefix(points, n):
    return PairSpace(
        points=points[:n],
        partner_ids=np.arange(n, dtype=np.int64) % 7,
        event_ids=np.arange(n, dtype=np.int64) // 7,
    )


def _stable_lists(points):
    """The list order by definition: per dimension, value descending,
    ties by ascending pair index."""
    return np.argsort(-points, axis=0, kind="stable").T


def _oracle(space, q, n, exclude_partner):
    """Canonical top-n of the float64 scores ``points @ q``."""
    scores = space.points @ q
    keep = np.flatnonzero(space.partner_ids != exclude_partner)
    order = keep[np.lexsort((keep, -scores[keep]))][:n]
    return order, scores[order]


class TestExtendEqualsBuild:
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 5),
        n0=st.integers(0, 30),
        blocks=st.lists(st.integers(0, 25), min_size=1, max_size=4),
        levels=st.sampled_from([0, 1, 2, 3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_multi_step_extend_is_a_fresh_build(self, seed, k, n0, blocks, levels):
        rng = np.random.default_rng(seed)
        points = _points(rng, n0 + sum(blocks), k, levels)
        index = ThresholdAlgorithmIndex(_prefix(points, n0))
        n = n0
        for m in blocks:
            before = index
            before_lists = before.sorted_lists.copy()
            index = index.extend(_prefix(points, n + m), n)
            # The old index is left whole for readers still holding it.
            assert before.n_candidates == n
            np.testing.assert_array_equal(before.sorted_lists, before_lists)
            n += m
            fresh = ThresholdAlgorithmIndex(_prefix(points, n))
            np.testing.assert_array_equal(index.sorted_lists, fresh.sorted_lists)
        np.testing.assert_array_equal(index.sorted_lists, _stable_lists(points))
        assert index.n_candidates == n

    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 4),
        blocks=st.lists(st.integers(0, 20), min_size=1, max_size=3),
        n_top=st.integers(1, 12),
        chunk=st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_queries_on_extended_index_match_oracle(
        self, seed, k, blocks, n_top, chunk
    ):
        rng = np.random.default_rng(seed)
        points = _points(rng, 10 + sum(blocks), k, levels=3)
        index = ThresholdAlgorithmIndex(_prefix(points, 10))
        n = 10
        for m in blocks:
            index = index.extend(_prefix(points, n + m), n)
            n += m
        q = query_vector(rng.integers(0, 3, size=k) * 0.5)
        exclude = int(rng.integers(0, 7))
        result = index.query_extended(
            q, n_top, exclude_partner=exclude, chunk=chunk
        )
        order, scores = _oracle(index.space, q, n_top, exclude)
        assert result.exact
        np.testing.assert_array_equal(result.pair_indices, order)
        np.testing.assert_array_equal(result.scores, scores)


class TestExtendEdges:
    def test_layout_is_one_contiguous_row_per_dimension(self):
        points = _points(np.random.default_rng(0), 40, 3, levels=0)
        index = ThresholdAlgorithmIndex(_prefix(points, 30))
        index = index.extend(_prefix(points, 40), 30)
        assert index.sorted_lists.shape == (7, 40)
        assert index.sorted_lists.flags.c_contiguous
        assert index.sorted_lists.dtype == np.int64

    def test_empty_extension_swaps_space_and_keeps_lists(self):
        points = _points(np.random.default_rng(1), 12, 2, levels=2)
        index = ThresholdAlgorithmIndex(_prefix(points, 12))
        before = index.sorted_lists.copy()
        grown = _prefix(points, 12)
        index = index.extend(grown, 12)
        assert index.space is grown
        np.testing.assert_array_equal(index.sorted_lists, before)

    def test_one_row_at_a_time_from_empty(self):
        points = _points(np.random.default_rng(2), 9, 2, levels=2)
        index = ThresholdAlgorithmIndex(_prefix(points, 0))
        for n in range(9):
            index = index.extend(_prefix(points, n + 1), n)
        np.testing.assert_array_equal(index.sorted_lists, _stable_lists(points))

    def test_more_dimensions_than_one_block(self):
        # 2K+1 = 21 spans three blocks of dimensions, the last partial.
        points = _points(np.random.default_rng(3), 50, 10, levels=2)
        index = ThresholdAlgorithmIndex(_prefix(points, 20))
        index = index.extend(_prefix(points, 50), 20)
        np.testing.assert_array_equal(index.sorted_lists, _stable_lists(points))

    def test_rejects_mismatched_prefix_and_shrinking(self):
        points = _points(np.random.default_rng(4), 10, 2, levels=0)
        index = ThresholdAlgorithmIndex(_prefix(points, 8))
        before = index.sorted_lists.copy()
        with pytest.raises(ValueError):
            index.extend(_prefix(points, 10), 7)
        with pytest.raises(ValueError):
            index.extend(_prefix(points, 5), 8)
        np.testing.assert_array_equal(index.sorted_lists, before)
        assert index.n_candidates == 8
