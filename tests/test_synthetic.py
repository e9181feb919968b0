"""Tests for the synthetic Douban-like EBSN generator."""

import numpy as np
import pytest
from dataclasses import replace

from repro.data.presets import get_preset, make_dataset, preset_names
from repro.data.synthetic import (
    SyntheticConfig,
    SyntheticEBSNGenerator,
    generate_ebsn,
)


def small_config(**overrides):
    base = SyntheticConfig(
        name="t",
        n_users=50,
        n_events=30,
        n_venues=12,
        n_topics=4,
        n_geo_centers=3,
        target_attendances=300,
        target_friendships=100,
        words_per_event=10,
        words_per_topic=20,
        n_common_words=30,
        horizon_days=120,
        seed=5,
    )
    return replace(base, **overrides)


class TestConfigValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            small_config(n_users=0).validate()

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            small_config(topic_word_ratio=1.5).validate()
        with pytest.raises(ValueError):
            small_config(topic_word_ratio=0.8, offtopic_word_ratio=0.3).validate()

    def test_rejects_insufficient_attendance_budget(self):
        with pytest.raises(ValueError):
            small_config(target_attendances=10, min_attendees_per_event=2).validate()

    def test_rejects_negative_trait_params(self):
        with pytest.raises(ValueError):
            small_config(hidden_trait_dim=-1).validate()
        with pytest.raises(ValueError):
            small_config(user_activity_sigma=-0.1).validate()


class TestGeneration:
    def test_entity_counts_match_config(self):
        cfg = small_config()
        ebsn, truth = generate_ebsn(cfg)
        assert ebsn.n_users == cfg.n_users
        assert ebsn.n_events == cfg.n_events
        assert ebsn.n_venues == cfg.n_venues
        assert truth.user_interests.shape == (cfg.n_users, cfg.n_topics)
        assert truth.event_topics.shape == (cfg.n_events,)

    def test_deterministic_for_same_seed(self):
        a, _ = generate_ebsn(small_config())
        b, _ = generate_ebsn(small_config())
        assert [e.start_time for e in a.events] == [e.start_time for e in b.events]
        assert len(a.attendances) == len(b.attendances)
        assert a.friendships == b.friendships

    def test_different_seeds_differ(self):
        a, _ = generate_ebsn(small_config(seed=1))
        b, _ = generate_ebsn(small_config(seed=2))
        assert [e.venue_id for e in a.events] != [e.venue_id for e in b.events]

    def test_attendance_volume_near_target(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        # Social amplification adds some; allow a broad band.
        assert 0.7 * cfg.target_attendances <= len(ebsn.attendances)
        assert len(ebsn.attendances) <= 2.0 * cfg.target_attendances

    def test_friendship_volume_near_target(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        assert len(ebsn.friendships) == pytest.approx(
            cfg.target_friendships, rel=0.25
        )

    def test_every_event_has_minimum_attendance(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for x in range(ebsn.n_events):
            assert len(ebsn.users_of_event(x)) >= cfg.min_attendees_per_event

    def test_event_times_within_horizon(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for event in ebsn.events:
            assert cfg.epoch <= event.start_time
            assert event.start_time <= cfg.epoch + cfg.horizon_days * 86400.0

    def test_descriptions_have_configured_length(self):
        cfg = small_config()
        ebsn, _ = generate_ebsn(cfg)
        for event in ebsn.events:
            assert len(event.description.split()) == cfg.words_per_event


class TestGenerativeSignals:
    def test_topic_words_dominate_descriptions(self):
        cfg = small_config(topic_word_ratio=0.7)
        ebsn, truth = generate_ebsn(cfg)
        hits = 0
        for xi, event in enumerate(ebsn.events):
            prefix = f"t{truth.event_topics[xi]}w"
            words = event.description.split()
            hits += sum(w.startswith(prefix) for w in words) / len(words)
        assert hits / ebsn.n_events == pytest.approx(0.7, abs=0.05)

    def test_interest_alignment_of_attendance(self):
        # Attendees' interest in the event topic beats the population mean.
        cfg = small_config()
        ebsn, truth = generate_ebsn(cfg)
        attendee_interest, base_interest = [], []
        for xi in range(ebsn.n_events):
            topic = truth.event_topics[xi]
            base_interest.append(truth.user_interests[:, topic].mean())
            for u in ebsn.users_of_event(xi):
                attendee_interest.append(truth.user_interests[u, topic])
        assert np.mean(attendee_interest) > 1.5 * np.mean(base_interest)

    def test_friend_homophily(self):
        cfg = small_config(intra_community_ratio=0.9)
        ebsn, truth = generate_ebsn(cfg)
        same = 0
        for fr in ebsn.friendships:
            a = ebsn.user_index[fr.user_a]
            b = ebsn.user_index[fr.user_b]
            same += truth.communities[a] == truth.communities[b]
        # Far above the chance rate for >= 12 communities.
        assert same / len(ebsn.friendships) > 0.5

    def test_ratings_generated_when_enabled(self):
        cfg = small_config(with_ratings=True)
        ebsn, _ = generate_ebsn(cfg)
        rated = [a for a in ebsn.attendances if a.rating is not None]
        assert len(rated) > 0.8 * len(ebsn.attendances)
        assert all(1.0 <= a.rating <= 5.0 for a in rated)

    def test_hidden_traits_shape(self):
        cfg = small_config(hidden_trait_dim=4)
        _, truth = generate_ebsn(cfg)
        assert truth.user_traits.shape == (cfg.n_users, 4)
        assert truth.event_traits.shape == (cfg.n_events, 4)

    def test_activity_tail_spreads_user_event_counts(self):
        flat, _ = generate_ebsn(small_config(user_activity_sigma=0.0, seed=3))
        tail, _ = generate_ebsn(small_config(user_activity_sigma=1.5, seed=3))
        def spread(ebsn):
            counts = np.array(
                [len(ebsn.events_of_user(u)) for u in range(ebsn.n_users)]
            )
            return counts.std() / max(counts.mean(), 1e-9)
        assert spread(tail) > spread(flat)


def reference_friendship_edges(cfg, rng, communities):
    """The friendship sampler's edge set, drawing each community with
    ``rng.choice(p=...)`` per attempt (the plain form of the sampler)."""
    n_intra = int(round(cfg.target_friendships * cfg.intra_community_ratio))
    n_inter = cfg.target_friendships - n_intra
    members = {
        int(cid): np.flatnonzero(communities == cid)
        for cid in np.unique(communities)
    }
    community_ids = sorted(members)
    sizes = np.array(
        [len(members[c]) * (len(members[c]) - 1) / 2 for c in community_ids],
        dtype=np.float64,
    )
    edges = set()
    if sizes.sum() > 0:
        probs = sizes / sizes.sum()
        attempts = 0
        while len(edges) < n_intra and attempts < 30 * max(n_intra, 1):
            attempts += 1
            cid = community_ids[int(rng.choice(len(community_ids), p=probs))]
            group = members[cid]
            if len(group) < 2:
                continue
            a, b = rng.choice(group, size=2, replace=False)
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    attempts = 0
    target_total = min(cfg.target_friendships, cfg.n_users * (cfg.n_users - 1) // 2)
    while len(edges) < target_total and attempts < 30 * max(n_inter + n_intra, 1):
        attempts += 1
        a, b = rng.integers(0, cfg.n_users, size=2)
        if a == b:
            continue
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(edges)


class TestFriendshipSampler:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"intra_community_ratio": 0.95, "target_friendships": 400},
            {"intra_community_ratio": 0.0},
        ],
    )
    def test_matches_choice_reference(self, overrides):
        cfg = small_config(**overrides)
        communities = np.random.default_rng(9).integers(0, 6, size=cfg.n_users)
        # One singleton community: a zero-probability entry in the CDF.
        communities[communities == 5] = 4
        communities[0] = 5
        rng_new = np.random.default_rng(21)
        rng_ref = np.random.default_rng(21)
        friendships, friend_sets = SyntheticEBSNGenerator(cfg)._sample_friendships(
            rng_new, communities
        )
        expected = reference_friendship_edges(cfg, rng_ref, communities)
        got = [(int(f.user_a[1:]), int(f.user_b[1:])) for f in friendships]
        assert got == expected
        assert sum(len(s) for s in friend_sets) == 2 * len(expected)
        # The same number of draws: both streams continue identically.
        assert rng_new.random() == rng_ref.random()


class TestPresets:
    def test_preset_names_include_cities(self):
        names = preset_names()
        for expected in (
            "tiny",
            "beijing-small",
            "shanghai-small",
            "beijing-full",
            "shanghai-full",
        ):
            assert expected in names

    def test_get_preset_returns_copy(self):
        a = get_preset("tiny")
        a.n_users = 1
        assert get_preset("tiny").n_users != 1

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            get_preset("atlantis")

    def test_make_dataset_seed_override(self):
        a, _ = make_dataset("tiny", seed=1)
        b, _ = make_dataset("tiny", seed=2)
        assert [e.venue_id for e in a.events] != [e.venue_id for e in b.events]

    def test_full_presets_mirror_table1_ratios(self):
        bj = get_preset("beijing-full")
        sh = get_preset("shanghai-full")
        assert bj.n_users == 64113 and sh.n_users == 36440
        assert bj.n_events == 12955 and sh.n_events == 6753
        assert bj.target_attendances == 1114097
        assert sh.target_friendships == 298105
