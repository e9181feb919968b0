"""Rules the benchmark's measurements must follow."""

import pytest

from measure import (
    MIN_BEYOND,
    Attempt,
    count_broken,
    count_failed,
    due_latencies,
    due_times,
    is_broken,
    is_failed,
    nearest_rank,
    windowed_percentile,
)


def test_percentile_needs_ten_samples_beyond_it():
    assert nearest_rank([float(i) for i in range(1, 1001)], 99.0) == 990.0
    with pytest.raises(ValueError, match="beyond"):
        nearest_rank([float(i) for i in range(1, 1000)], 99.0)
    # The median of 20 samples has exactly ten beyond it.
    assert nearest_rank([float(i) for i in range(20)], 50.0) == 9.0
    with pytest.raises(ValueError):
        nearest_rank([float(i) for i in range(19)], 50.0)
    assert MIN_BEYOND == 10


def test_due_time_latency_charges_a_stall_to_the_requests_behind_it():
    # Five requests due every 10 ms; the first takes 50 ms and the
    # single worker serves the rest (1 ms each) only after it.
    due = due_times(0.0, 100.0, 5)
    done, clock = [], 0.0
    for i, start in enumerate(due):
        clock = max(clock, start) + (0.050 if i == 0 else 0.001)
        done.append(clock)
    latency = due_latencies(due, done)
    assert latency[0] == pytest.approx(0.050)
    # Timed from submission each would show 1 ms; from due time they
    # carry the stall: 41, 32, 23 and 14 ms.
    assert latency[1:] == pytest.approx([0.041, 0.032, 0.023, 0.014])


def test_a_shed_counts_as_failed_and_as_missing_the_limit():
    shed = Attempt(answered=False)
    assert is_failed(shed, limit_s=None)
    assert is_failed(shed, limit_s=10.0)
    assert is_failed(Attempt(answered=True, latency_s=0.2), limit_s=0.05)
    assert not is_failed(Attempt(answered=True, latency_s=0.01), limit_s=0.05)
    assert is_failed(Attempt(answered=True, latency_s=0.01, wrong=True), 0.05)
    assert is_failed(Attempt(answered=False, errored=True), None)
    attempts = [shed, Attempt(answered=True, latency_s=0.01)]
    assert count_failed(attempts, 0.05) == 1
    # Sheds and late answers cost the failed share, not the result
    # line's ``failed``: only errors and wrong answers are broken.
    late = Attempt(answered=True, latency_s=0.2)
    wrong = Attempt(answered=True, latency_s=0.01, wrong=True)
    assert not is_broken(shed) and not is_broken(late)
    assert is_broken(wrong) and is_broken(Attempt(answered=False, errored=True))
    assert count_failed([shed, late, wrong], 0.05) == 3
    assert count_broken([shed, late, wrong]) == 1


def test_windowed_percentile_is_the_median_over_windows():
    # Ten windows of 20 samples; the fourth is ten times slower.
    values = [(10.0 if w == 3 else 1.0) * (1 + i) for w in range(10) for i in range(20)]
    assert windowed_percentile(values, 20, 50.0) == (10.0, 10)
    # The pooled median moves with the slow window; the windowed one does not.
    assert nearest_rank(values, 50.0) == 11.0
    # A last window without ten samples beyond its percentile is left out.
    assert windowed_percentile(values + [1e9] * 5, 20, 50.0) == (10.0, 10)
    with pytest.raises(ValueError, match="window"):
        windowed_percentile(values[:19], 20, 50.0)
