"""The float64 Eqn-8 oracle and the answer check built on it."""

import numpy as np
import pytest

from oracle import Eqn8Oracle, check_answer


@pytest.fixture()
def world():
    rng = np.random.default_rng(5)
    users = rng.random((30, 4)).astype(np.float32)
    events = rng.random((12, 4)).astype(np.float32)
    candidates = np.array([2, 5, 7, 11], dtype=np.int64)
    return users, events, candidates


def brute(users, events, candidates, user, n):
    u = users[user].astype(np.float64)
    rows = []
    for x in candidates:
        for p in range(users.shape[0]):
            if p == user:
                continue
            e = events[x].astype(np.float64)
            v = users[p].astype(np.float64)
            rows.append((-(u @ e + v @ e + u @ v), int(x), p))
    rows.sort()
    return [(x, p, -s) for s, x, p in rows[:n]]


def test_oracle_top_matches_a_loop_over_eqn8(world):
    users, events, candidates = world
    oracle = Eqn8Oracle(users, events, candidates)
    idx, scores = oracle.top(3, 10)
    want = brute(users, events, candidates, 3, 10)
    got = [
        (int(candidates[i // users.shape[0]]), int(i % users.shape[0]))
        for i in idx
    ]
    assert got == [(x, p) for x, p, _s in want]
    assert scores == pytest.approx([s for _x, _p, s in want], rel=1e-12)


def test_check_accepts_the_oracle_answer(world):
    users, events, candidates = world
    oracle = Eqn8Oracle(users, events, candidates)
    answer = brute(users, events, candidates, 3, 10)
    verdict = check_answer(oracle, 3, answer, 10)
    assert verdict.valid and verdict.exact and verdict.recall == 1.0


def test_check_flags_a_perturbed_answer(world):
    users, events, candidates = world
    oracle = Eqn8Oracle(users, events, candidates)
    answer = brute(users, events, candidates, 3, 11)
    # Swap the 10th pair for the 11th: every score is right, the set is not.
    swapped = answer[:9] + [answer[10]]
    verdict = check_answer(oracle, 3, swapped, 10)
    assert verdict.valid and not verdict.exact and verdict.recall == 0.9
    # A reported score that is not the pair's Eqn-8 score.
    x, p, s = answer[0]
    bad_score = [(x, p, s + 1e-3)] + answer[1:10]
    assert not check_answer(oracle, 3, bad_score, 10).valid
    # The user recommended as their own partner.
    self_pair = [(x, 3, s)] + answer[1:10]
    assert not check_answer(oracle, 3, self_pair, 10).valid
    # Two positions swapped: same set, wrong order.
    reordered = [answer[1], answer[0]] + answer[2:10]
    assert not check_answer(oracle, 3, reordered, 10).exact
