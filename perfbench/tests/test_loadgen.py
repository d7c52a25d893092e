"""The open-loop driver times requests from when they were due."""

from types import SimpleNamespace

import numpy as np
import pytest

import loadgen


class FakeClock:
    """Advances a hair on every read, so spin-waits terminate."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-7
        return self.now


class StalledEngine:
    """Answers FIFO; its first batch stalls the (fake) clock by ``stall_s``."""

    def __init__(self, clock, stall_s, max_batch=256):
        self.clock_source = clock
        self.clock = SimpleNamespace(now_s=0.0, advance=self._advance)
        self.stall_s = stall_s
        self.max_batch = max_batch
        self.queue = []
        self.results = {}
        self.next_id = 0
        self.batches = 0

    def _advance(self, seconds, category):
        self.clock.now_s += seconds

    @property
    def queue_depth(self):
        return len(self.queue)

    def submit(self, tenant, ip):
        request_id = self.next_id
        self.next_id += 1
        self.queue.append((request_id, ip))
        return request_id

    def result(self, request_id):
        return self.results.get(request_id)

    def process_one_batch(self):
        if not self.queue:
            return 0
        if self.batches == 0:
            self.clock_source.now += self.stall_s
        self.batches += 1
        batch, self.queue = self.queue[: self.max_batch], self.queue[self.max_batch:]
        for request_id, ip in batch:
            self.results[request_id] = SimpleNamespace(status="ok", lat=1.0, lon=2.0)
        return len(batch)


def test_stall_is_charged_to_requests_due_during_it():
    clock = FakeClock()
    engine = StalledEngine(clock, stall_s=0.050)
    due = np.arange(10) * 0.001          # one request per ms
    stream = loadgen.Stream(due, ("t",) * 10, tuple(f"10.0.0.{i}" for i in range(10)))
    answer = loadgen.open_loop(engine, stream, clock=clock, sleep=lambda s: None)

    assert list(answer.answered) == [1] * 10
    # Request 0 waits out the stall it triggered.
    assert answer.latency_s[0] == pytest.approx(0.050, abs=1e-4)
    # Requests due during the stall are submitted late, and timed from due:
    # each waited until the stall ended, 50 ms after time zero.
    for index in range(1, 10):
        assert answer.latency_s[index] == pytest.approx(0.050 - due[index], abs=1e-4)
        assert answer.late_s[index] == pytest.approx(0.050 - due[index], abs=1e-4)
    assert answer.epoch.tolist() == [0] * 10
    # The engine's clock followed the wall clock.
    assert engine.clock.now_s == pytest.approx(0.050, abs=1e-3)


def test_no_stall_means_no_queueing_delay():
    clock = FakeClock()
    engine = StalledEngine(clock, stall_s=0.0)
    due = np.arange(5) * 0.001
    stream = loadgen.Stream(due, ("t",) * 5, tuple("abcde"))
    answer = loadgen.open_loop(engine, stream, clock=clock, sleep=lambda s: None)
    assert np.all(answer.latency_s < 1e-4)


def test_swaps_run_between_batches_and_mark_epochs():
    clock = FakeClock()
    engine = StalledEngine(clock, stall_s=0.0)
    due = np.arange(6) * 0.001
    stream = loadgen.Stream(due, ("t",) * 6, tuple("abcdef"))
    installed = []
    answer = loadgen.open_loop(
        engine,
        stream,
        swaps=[(0.0025, lambda: installed.append(1))],
        clock=clock,
        sleep=lambda s: None,
    )
    assert installed == [1]
    assert answer.epoch.tolist() == [0, 0, 0, 1, 1, 1]


def test_closed_loop_answers_everything_once():
    clock = FakeClock()
    engine = StalledEngine(clock, stall_s=0.0, max_batch=4)
    stream = loadgen.make_stream(3, 1000.0, 50, [f"ip{i}" for i in range(7)], ("a", "b"))
    answer, elapsed = loadgen.closed_loop(engine, stream, batch=4, clock=clock)
    assert answer.answered.tolist() == [1] * 50
    assert elapsed > 0


def test_stream_is_seeded_and_passes_cover_every_target():
    ips = [f"ip{i}" for i in range(7)]
    first = loadgen.make_stream(11, 100.0, 21, ips, ("a", "b", "c"))
    again = loadgen.make_stream(11, 100.0, 21, ips, ("a", "b", "c"))
    other = loadgen.make_stream(12, 100.0, 21, ips, ("a", "b", "c"))
    assert first.ips == again.ips and np.array_equal(first.due_s, again.due_s)
    assert first.ips != other.ips
    for start in (0, 7, 14):
        assert sorted(first.ips[start:start + 7]) == sorted(ips)
    assert np.all(np.diff(first.due_s) > 0)
