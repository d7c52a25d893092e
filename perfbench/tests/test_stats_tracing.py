"""Percentile and self-time arithmetic, and wrapping entry points."""

import types

import numpy as np
import pytest

import stats
import tracing


def test_percentile_matches_linear_interpolation():
    rng = np.random.default_rng(7)
    for size in (1, 2, 5, 40, 1001):
        sample = rng.exponential(size=size).tolist()
        for q in (0.0, 25.0, 50.0, 80.0, 99.0, 100.0):
            assert stats.percentile(sample, q) == pytest.approx(np.percentile(sample, q), rel=1e-12)


def test_percentile_hand_values():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([10.0, 0.0], 25.0) == 2.5
    assert stats.percentile(list(range(101)), 99.0) == 99.0
    assert stats.median([3.0]) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_reports_unattributed():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.start()              # t=0
    clock.now = 1.0
    outer = tracer.begin("outer")   # 1..6
    clock.now = 2.0
    inner = tracer.begin("inner")   # 2..4
    clock.now = 4.0
    tracer.end(inner)
    clock.now = 6.0
    tracer.end(outer)
    clock.now = 7.0
    other = tracer.begin("inner")   # 7..8, top level
    clock.now = 8.0
    tracer.end(other)
    clock.now = 10.0
    tracer.stop()

    assert tracing.self_times(tracer.spans) == {"outer": 3.0, "inner": 3.0}
    assert tracing.inclusive_times(tracer.spans) == {"outer": 5.0, "inner": 3.0}
    rows = tracing.layer_table(tracer.spans, tracer.wall_s)
    assert rows[-1] == ("unattributed", 0, 4.0, 4.0)
    assert sum(row[3] for row in rows) == pytest.approx(tracer.wall_s) == 10.0


def test_recursive_spans_count_once_inclusive():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.start()
    a = tracer.begin("f")
    clock.now = 1.0
    b = tracer.begin("f")
    clock.now = 3.0
    tracer.end(b)
    clock.now = 4.0
    tracer.end(a)
    tracer.stop()
    assert tracing.inclusive_times(tracer.spans) == {"f": 4.0}
    assert tracing.self_times(tracer.spans) == {"f": 4.0}


def test_spans_inherit_the_request_id_of_their_parent():
    tracer = tracing.Tracer()
    tracer.start()
    tracer.request = "req-1"
    outer = tracer.begin("a")
    tracer.request = "req-2"
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    tracer.stop()
    assert [span[4] for span in tracer.spans] == ["req-1", "req-1"]


def test_negative_self_time_is_refused():
    spans = [["parent", 0.0, 1.0, -1, None], ["child", 0.0, 2.0, 0, None]]
    with pytest.raises(AssertionError):
        tracing.layer_table(spans, 2.0)


def test_install_wraps_counts_and_removes(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Worker:
        def work(self, n):
            return list(range(n))

    module.Worker = Worker
    module.helper = lambda x: x * 2
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)

    tracer = tracing.Tracer()
    entries = (
        tracing.EntryPoint(
            "fake_layer:Worker.work",
            "fake.work",
            counts=(("fake.items", lambda args, result, before: float(len(result))),),
        ),
        tracing.EntryPoint("fake_layer:helper", "fake.helper"),
        tracing.EntryPoint("fake_layer:deleted_function", "fake.gone"),
        tracing.EntryPoint("no_such_module_anywhere:thing", "fake.gone"),
    )
    installed = tracing.install(tracer, entries)
    assert module.Worker().work(3) == [0, 1, 2]     # traced off: nothing recorded
    assert tracer.spans == []
    tracer.start()
    module.Worker().work(4)
    module.helper(5)
    tracer.stop()
    installed.remove()
    module.Worker().work(2)
    assert [span[0] for span in tracer.spans] == ["fake.work", "fake.helper"]
    assert tracer.counters == {"fake.items": 4.0}
    assert "fake.gone" not in tracing.inclusive_times(tracer.spans)
    assert module.Worker.work.__name__ == "work"
