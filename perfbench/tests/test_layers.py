"""Self time in the traced run's layer clock."""

import time

from layers import LayerClock


class Layer:
    def work(self, seconds):
        time.sleep(seconds)
        return seconds


def test_self_time_excludes_child_spans_and_wrappers_are_removed():
    clock = LayerClock()
    original = Layer.work
    clock.wrap(Layer, "work", "inner")
    with clock.span("outer"):
        time.sleep(0.02)
        Layer().work(0.03)
    clock.restore()
    assert Layer.work is original
    assert clock.calls["inner"] == 1 and clock.calls["outer"] == 1
    assert clock.total_s["outer"] >= 0.05
    assert 0.015 <= clock.self_s["outer"] < 0.03
    assert clock.self_s["inner"] == clock.total_s["inner"] >= 0.03
