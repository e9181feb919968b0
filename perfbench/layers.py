"""Benchmark-side layer timing for the traced run.

:class:`LayerClock` records spans around calls into the program's
layers: spans opened by the benchmark itself (``clock.span(...)``) and
timing wrappers installed over public functions and methods
(``clock.wrap(...)``).  Spans nest per thread, so each layer gets its
total time and its *self* time (duration minus the time its child spans
cover).  Wrappers are installed only for the traced run and removed
afterwards; the timed runs use :data:`NULL_CLOCK`, which records nothing.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class LayerClock:
    """Per-layer call counts, total and self seconds, and counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call into layer ``name`` on the current thread."""
        stack = self._stack()
        frame = _Frame(name)
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1].child_s += duration
            with self._lock:
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame.child_s
                self.samples[name].append(duration)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Callable[["LayerClock", tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`restore`.

        ``on_result(clock, args, result)`` may add counters from the
        call's arguments and result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        clock = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with clock.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(clock, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _NullClock(LayerClock):
    """Records nothing; used for every timed (untraced) run."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def count(self, name: str, amount: float = 1.0) -> None:
        return None

    def wrap(self, *args: Any, **kwargs: Any) -> None:
        raise RuntimeError("the null clock installs no wrappers")


NULL_CLOCK = _NullClock()


def install_program_wrappers(clock: LayerClock) -> None:
    """Time the program's public calls that the benchmark does not make itself."""
    from repro.core.fold_in import EventFoldIn
    from repro.online.bruteforce import BruteForceIndex
    from repro.online.ta import ThresholdAlgorithmIndex
    from repro.serving import engine as engine_mod
    from repro.serving import sharded as sharded_mod
    from repro.serving.engine import ServingEngine
    from repro.serving.streaming import DoubleBufferedEngine

    def pairs(c: LayerClock, _args: tuple, space: Any) -> None:
        c.count("online.transform.pairs", space.n_pairs)

    def ta_query(c: LayerClock, args: tuple, result: Any) -> None:
        index = args[0]
        c.count("online.ta.examined", result.n_examined)
        c.count("online.ta.candidates", index.n_candidates)
        c.count("online.ta.sorted_accesses", result.n_sorted_accesses)

    def bf_batch(c: LayerClock, args: tuple, _result: Any) -> None:
        index, queries = args[0], args[1]
        c.count("online.bruteforce.pairs_scored", index.n_candidates * len(queries))

    def folded(c: LayerClock, args: tuple, _result: Any) -> None:
        c.count("core.fold_in.events", len(args[1]))

    clock.wrap(engine_mod, "transform_all_pairs", "online.transform.build", pairs)
    clock.wrap(engine_mod, "build_pruned_pair_space", "online.pruning.build")
    clock.wrap(ThresholdAlgorithmIndex, "__init__", "online.ta.build")
    clock.wrap(ThresholdAlgorithmIndex, "extend", "online.ta.extend")
    clock.wrap(ThresholdAlgorithmIndex, "query_extended", "online.ta.query", ta_query)
    clock.wrap(
        BruteForceIndex, "query_extended_batch", "online.bruteforce.query_batch",
        bf_batch,
    )
    clock.wrap(EventFoldIn, "fold_in_many", "core.fold_in.fold", folded)
    clock.wrap(ServingEngine, "recommend_within", "serving.engine.request")
    clock.wrap(ServingEngine, "refresh", "serving.engine.refresh")
    clock.wrap(ServingEngine, "query_batch", "serving.sharded.leg")
    clock.wrap(sharded_mod, "merge_sharded_topn", "serving.sharded.merge")
    clock.wrap(DoubleBufferedEngine, "refresh", "serving.streaming.refresh")
