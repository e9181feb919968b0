"""Pure measurement helpers: percentiles, due-time latency, failure accounting.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` exercise these rules without building a model.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    strictly beyond the chosen rank, so a tail figure is never read off
    a handful of samples.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def percentile_note(values: list[float], q: float, scale: float = 1.0) -> float | str:
    """:func:`nearest_rank` times ``scale`` for a printed note, or why not."""
    try:
        return nearest_rank(values, q) * scale
    except ValueError:
        return f"unsupported: {len(values)} samples"


def due_times(t0: float, rate_hz: float, count: int) -> list[float]:
    """Open-loop schedule: request ``i`` is due at ``t0 + i / rate``."""
    return [t0 + i / rate_hz for i in range(count)]


def due_latencies(
    due: list[float], done: list[float | None]
) -> list[float | None]:
    """Latency of each request measured from when it was *due*.

    Timing from the due time rather than from submission charges a
    stall to every request scheduled during it, including the ones the
    generator had not yet managed to send.  A request that never
    completed (``None``) has no latency.
    """
    if len(due) != len(done):
        raise ValueError("due and done must align")
    return [None if d is None else d - s for s, d in zip(due, done, strict=True)]


@dataclass(slots=True)
class Attempt:
    """The benchmark's verdict on one attempted operation."""

    answered: bool
    latency_s: float | None = None
    errored: bool = False
    wrong: bool = False


def is_failed(attempt: Attempt, limit_s: float | None) -> bool:
    """Shed, errored, wrong, or answered later than ``limit_s``.

    A shed or errored request has no latency, so it misses any limit.
    An answered operation without a latency has no limit to miss.
    """
    if not attempt.answered or attempt.errored or attempt.wrong:
        return True
    if limit_s is None or attempt.latency_s is None:
        return False
    return attempt.latency_s > limit_s


def count_failed(attempts: list[Attempt], limit_s: float | None) -> int:
    """Number of :func:`is_failed` attempts."""
    return sum(is_failed(a, limit_s) for a in attempts)


def is_broken(attempt: Attempt) -> bool:
    """Raised or gave a wrong answer: the operation itself went wrong.

    A shed or a late answer is the service missing its limit.  It counts
    in the failed share (:func:`is_failed`), a timed figure that moves
    with the host from run to run; the result line's ``failed`` counts
    only broken operations, and a correct program has none.
    """
    return attempt.errored or attempt.wrong


def count_broken(attempts: list[Attempt]) -> int:
    """Number of :func:`is_broken` attempts."""
    return sum(is_broken(a) for a in attempts)


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def windowed_percentile(values: list[float], window: int, q: float) -> tuple[float, int]:
    """Median over consecutive windows of ``window`` samples of each
    window's :func:`nearest_rank` ``q``-th percentile, and the number of
    windows.

    ``values`` are in the order they were measured.  A last window too
    short to support the percentile is left out.  A burst that slows a
    minority of the windows moves this figure far less than it moves the
    percentile of the pooled samples.
    """
    figures = []
    for start in range(0, len(values), window):
        try:
            figures.append(nearest_rank(values[start : start + window], q))
        except ValueError:
            continue
    if not figures:
        raise ValueError(f"no window of {window} samples supports p{q:g}")
    return median(figures), len(figures)
