"""Tests for post-training event fold-in."""

import numpy as np
import pytest

from repro.core import GEM
from repro.core.embeddings import EmbeddingSet
from repro.core.fold_in import EventFoldIn, FoldInConfig, NewEventDescription


@pytest.fixture(scope="module")
def trained(tiny_split, tiny_bundle):
    model = GEM.gem_a(dim=16, n_samples=120_000, seed=5).fit(tiny_bundle)
    fold = EventFoldIn(
        model.embeddings, tiny_bundle.vocabulary, tiny_bundle.regions
    )
    return model, fold


def describe(ebsn, event_idx):
    event = ebsn.events[event_idx]
    venue = ebsn.venues[ebsn.venue_index[event.venue_id]]
    return NewEventDescription(
        description=event.description,
        venue_lat=venue.lat,
        venue_lon=venue.lon,
        start_time=event.start_time,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FoldInConfig(n_steps=0).validate()
        with pytest.raises(ValueError):
            FoldInConfig(learning_rate=0).validate()
        with pytest.raises(ValueError):
            FoldInConfig(n_negatives=0).validate()


class TestFoldIn:
    def test_vector_shape_and_nonnegativity(self, trained, tiny_ebsn):
        model, fold = trained
        vec = fold.fold_in(describe(tiny_ebsn, 0))
        assert vec.shape == (model.embeddings.dim,)
        assert vec.dtype == np.float32
        assert vec.min() >= 0.0
        assert np.linalg.norm(vec) > 0.0

    def test_deterministic_given_seed(self, trained, tiny_ebsn):
        _model, fold = trained
        event = describe(tiny_ebsn, 3)
        a = fold.fold_in(event, FoldInConfig(seed=1))
        b = fold.fold_in(event, FoldInConfig(seed=1))
        np.testing.assert_array_equal(a, b)

    def test_empty_description_and_unknown_words(self, trained):
        _model, fold = trained
        vec = fold.fold_in(
            NewEventDescription(
                description="zzzunknownzzz qqq",
                venue_lat=39.9,
                venue_lon=116.4,
                start_time=1_600_000_000.0,
            )
        )
        # Time/location edges still exist, so the vector is learnable.
        assert np.linalg.norm(vec) > 0.0

    def test_fold_in_many_stacks(self, trained, tiny_ebsn):
        _model, fold = trained
        vecs = fold.fold_in_many([describe(tiny_ebsn, 0), describe(tiny_ebsn, 1)])
        assert vecs.shape[0] == 2
        assert fold.fold_in_many([]).shape == (0, fold.embeddings.dim)

    def test_frozen_embeddings_untouched(self, trained, tiny_ebsn):
        model, fold = trained
        snapshot = {
            etype: matrix.copy()
            for etype, matrix in model.embeddings.matrices.items()
        }
        fold.fold_in(describe(tiny_ebsn, 2))
        for etype, matrix in model.embeddings.matrices.items():
            np.testing.assert_array_equal(matrix, snapshot[etype])

    def test_folded_vector_ranks_like_trained_vector(
        self, trained, tiny_ebsn, tiny_split
    ):
        """The deployment property: folding in a (held-out) event produces
        a vector whose user-preference ranking correlates with the vector
        full training produced for that same event."""
        model, fold = trained
        agreements = []
        users = model.user_vectors.astype(np.float64)
        for event_idx in sorted(tiny_split.test_events):
            trained_vec = model.event_vectors[event_idx].astype(np.float64)
            folded_vec = fold.fold_in(
                describe(tiny_ebsn, event_idx), FoldInConfig(n_steps=800)
            ).astype(np.float64)
            if np.linalg.norm(trained_vec) == 0:
                continue
            s_trained = users @ trained_vec
            s_folded = users @ folded_vec
            agreements.append(np.corrcoef(s_trained, s_folded)[0, 1])
        assert np.nanmean(agreements) > 0.3


class TestFoldIntoEngine:
    def test_folds_and_serves_incrementally(
        self, trained, tiny_ebsn, tiny_split
    ):
        from repro.serving import ServingEngine

        model, fold = trained
        candidate_events = np.array(
            sorted(tiny_split.test_events), dtype=np.int64
        )
        engine = ServingEngine(
            model.user_vectors,
            model.event_vectors,
            candidate_events,
            backend="ta",
        ).warm()
        n_events_before = engine.n_events
        version_before = engine.version

        arrivals = [describe(tiny_ebsn, 0), describe(tiny_ebsn, 1)]
        new_ids = fold.fold_into_engine(
            engine, arrivals, FoldInConfig(n_steps=50)
        )

        assert new_ids.tolist() == [n_events_before, n_events_before + 1]
        assert engine.version == version_before + 1
        # Incremental: the original build is the only full build.
        assert engine.build_stats.n_full_builds == 1
        assert engine.build_stats.n_incremental_refreshes == 1
        assert set(new_ids.tolist()) <= set(engine.candidate_events.tolist())
        assert set(new_ids.tolist()) <= set(engine.space.event_ids.tolist())
        assert len(engine.recommend(0, n=5)) == 5

    def test_no_arrivals_is_a_no_op(self, trained):
        from repro.serving import ServingEngine

        model, fold = trained
        engine = ServingEngine(
            model.user_vectors,
            model.event_vectors,
            np.arange(3, dtype=np.int64),
        )
        ids = fold.fold_into_engine(engine, [])
        assert ids.size == 0
        assert not engine.is_built


# ----------------------------------------------------------------------
# Bit-identity with the straightforward loop
# ----------------------------------------------------------------------
def reference_fold_in(fold, event, config=None):
    """The fold-in loop written plainly: ``rng.choice(p=...)`` per step,
    the matrix converted per step, the array sigmoid.  The optimised
    loop must reproduce it bit for bit."""
    from repro.core.objective import sigmoid

    config = config or FoldInConfig()
    rng = np.random.default_rng(config.seed)
    edges = fold._attribute_edges(event)
    if not edges:
        return np.zeros(fold.embeddings.dim, dtype=np.float32)
    weights = np.array([w for _, _, w in edges], dtype=np.float64)
    probabilities = weights / weights.sum()
    vec = np.abs(rng.normal(0.0, config.init_scale, size=fold.embeddings.dim))
    for step in range(config.n_steps):
        lr = config.learning_rate * max(1.0 - step / config.n_steps, 1e-3)
        etype, node, _w = edges[int(rng.choice(len(edges), p=probabilities))]
        matrix = fold.embeddings.of(etype).astype(np.float64)
        target = matrix[node]
        g = 1.0 - float(sigmoid(np.array(vec @ target, dtype=np.float64)))
        grad = g * target
        for _ in range(config.n_negatives):
            noise = matrix[int(rng.integers(0, matrix.shape[0]))]
            grad -= float(sigmoid(np.array(vec @ noise, dtype=np.float64))) * noise
        vec += lr * grad
        if config.nonnegative:
            np.maximum(vec, 0.0, out=vec)
    return vec.astype(np.float32)


class OneEdgeFoldIn(EventFoldIn):
    """Keeps only an event's first attribute edge (a single-edge event)."""

    def _attribute_edges(self, event):
        return super()._attribute_edges(event)[:1]


def signed_fold(fold, seed):
    """The same attribute world with signed embeddings, so ``vec · x``
    takes both signs and both sigmoid branches run."""
    rng = np.random.default_rng(seed)
    matrices = {
        etype: rng.normal(0.0, 1.0, size=m.shape).astype(np.float32)
        for etype, m in fold.embeddings.matrices.items()
    }
    return EventFoldIn(
        EmbeddingSet(matrices=matrices, dim=fold.embeddings.dim),
        fold.vocabulary,
        fold.regions,
    )


class TestMatchesReferenceLoop:
    CONFIGS = [
        FoldInConfig(n_steps=60, seed=4),
        FoldInConfig(n_steps=60, seed=8, nonnegative=False),
        FoldInConfig(n_steps=30, seed=1, n_negatives=3, init_scale=2.0),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_fold_in_bit_identical(self, trained, tiny_ebsn, config):
        _model, fold = trained
        for idx in range(4):
            event = describe(tiny_ebsn, idx)
            np.testing.assert_array_equal(
                fold.fold_in(event, config),
                reference_fold_in(fold, event, config),
            )

    def test_scalar_sigmoid_matches_array_sigmoid(self):
        from repro.core.fold_in import _sigmoid
        from repro.core.objective import sigmoid

        rng = np.random.default_rng(0)
        xs = np.concatenate(
            [rng.normal(0.0, scale, 2000) for scale in (0.1, 3.0, 40.0)]
            + [np.array([0.0, -0.0, 709.0, -709.0, -800.0, 800.0])]
        )
        assert (xs < 0).any() and (xs >= 0).any()
        expected = sigmoid(xs)
        got = np.array([_sigmoid(np.float64(x)) for x in xs])
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_both_sigmoid_branches(self, trained, tiny_ebsn, config):
        _model, fold = trained
        fold = signed_fold(fold, seed=config.seed)
        event = describe(tiny_ebsn, 5)
        vec = fold.fold_in(event, config)
        np.testing.assert_array_equal(
            vec, reference_fold_in(fold, event, config)
        )
        if not config.nonnegative:
            assert vec.min() < 0.0

    def test_single_edge_event(self, trained, tiny_ebsn):
        _model, fold = trained
        one = OneEdgeFoldIn(fold.embeddings, fold.vocabulary, fold.regions)
        event = describe(tiny_ebsn, 0)
        assert len(one._attribute_edges(event)) == 1
        for config in self.CONFIGS:
            np.testing.assert_array_equal(
                one.fold_in(event, config), reference_fold_in(one, event, config)
            )

    def test_loop_hands_the_interpreter_lock_over(
        self, trained, tiny_ebsn, monkeypatch
    ):
        import repro.core.fold_in as fold_module

        pauses = []

        class Clock:
            @staticmethod
            def sleep(seconds):
                pauses.append(seconds)

        monkeypatch.setattr(fold_module, "time", Clock)
        _model, fold = trained
        config = FoldInConfig(n_steps=50, seed=4)
        event = describe(tiny_ebsn, 0)
        vec = fold.fold_in(event, config)
        every = fold_module._YIELD_EVERY_STEPS
        assert pauses == [fold_module._YIELD_S] * (config.n_steps // every)
        np.testing.assert_array_equal(vec, reference_fold_in(fold, event, config))

    def test_fold_in_many_bit_identical(self, trained, tiny_ebsn):
        _model, fold = trained
        events = [describe(tiny_ebsn, idx) for idx in range(6)]
        config = FoldInConfig(n_steps=40, seed=6)
        expected = np.stack([reference_fold_in(fold, e, config) for e in events])
        np.testing.assert_array_equal(fold.fold_in_many(events, config), expected)
