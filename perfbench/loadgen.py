"""Open-loop and saturated closed-loop drivers for a serving engine.

Both drivers speak only the engine's public surface: ``submit(tenant,
ip) -> request id``, ``process_one_batch() -> requests answered``,
``queue_depth`` and ``result(request id)``. The engine answers its queue
in FIFO order, so the requests a batch answered are the oldest ones
still outstanding.

The open loop sends on a schedule fixed in advance (seeded Poisson
arrivals), whatever the engine is doing, in one thread: submit every
request that is due, answer one batch, repeat; when nothing is queued or
due, wait for the next due time. Each request's latency runs from its
*due* time to the end of the batch that answered it, so a stall also
charges the requests that arrived during it. How late the generator
submitted each request is recorded separately.

The engine never advances its own (simulated) clock; both drivers move
it forward to the wall time elapsed before each round of submissions, so
the tenants' sliding rate windows slide as they would in service.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


#: the generator sleeps through a wait longer than ``SLEEP_OVER_S`` except
#: for its last ``SPIN_S``, which it spins. Sleeping leaves the CPU idle
#: between requests, as a server's is. On a shared 2-vCPU host, spinning
#: through every gap made the engine's time for the same 8,000 requests
#: range over 0.87-1.23 s across rounds; sleeping, over 1.27-1.37 s.
SLEEP_OVER_S = 0.0004
SPIN_S = 0.0002


@dataclass(frozen=True)
class Stream:
    """A generated request stream: due offsets (s), tenants and targets."""

    due_s: np.ndarray
    tenants: Tuple[str, ...]
    ips: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.ips)


def make_stream(
    seed, rate_qps: float, count: int, target_ips: Sequence[str], tenants: Sequence[str]
) -> Stream:
    """Poisson arrivals at ``rate_qps``; targets as uniformly permuted passes.

    ``seed`` is anything ``numpy.random.default_rng`` takes (an int, or a
    list of ints for one stream out of several).
    """
    rng = np.random.default_rng(seed)
    due = np.cumsum(rng.exponential(1.0 / rate_qps, size=count))
    passes = -(-count // len(target_ips))
    order = np.concatenate([rng.permutation(len(target_ips)) for _ in range(passes)])[:count]
    who = rng.integers(0, len(tenants), size=count)
    return Stream(
        due_s=due,
        tenants=tuple(tenants[i] for i in who),
        ips=tuple(target_ips[i] for i in order),
    )


@dataclass
class Answer:
    """What the engine returned for one request, and when."""

    latency_s: np.ndarray
    late_s: np.ndarray
    status: List[Optional[str]]
    lat: np.ndarray
    lon: np.ndarray
    epoch: np.ndarray
    answered: np.ndarray
    busy_s: float = 0.0
    batch_columns: List[int] = field(default_factory=list)
    queue_depth_max: int = 0


def _new_answer(count: int) -> Answer:
    return Answer(
        latency_s=np.full(count, np.nan),
        late_s=np.zeros(count),
        status=[None] * count,
        lat=np.full(count, np.nan),
        lon=np.full(count, np.nan),
        epoch=np.full(count, -1, dtype=np.int64),
        answered=np.zeros(count, dtype=np.int64),
    )


def _follow_wall(engine, sim_base: float, elapsed_s: float) -> None:
    """Advance the engine's clock to ``sim_base + elapsed_s`` (never backwards)."""
    lag = sim_base + elapsed_s - engine.clock.now_s
    if lag > 0.0:
        engine.clock.advance(lag, "wall")


def _collect(engine, answer: Answer, pending: deque, done: int, epoch: int, stamp: float,
             due: Optional[np.ndarray], columns) -> None:
    """Record the ``done`` oldest outstanding requests as answered at ``stamp``."""
    seen = set()
    for _ in range(done):
        index, request_id = pending.popleft()
        result = engine.result(request_id)
        answer.answered[index] += 1
        if due is not None:
            answer.latency_s[index] = stamp - due[index]
        if result is not None:
            answer.status[index] = result.status
            if result.lat is not None:
                answer.lat[index] = result.lat
                answer.lon[index] = result.lon
        answer.epoch[index] = epoch
        if columns is not None:
            seen.add(columns[index])
    answer.batch_columns.append(len(seen))


def open_loop(
    engine,
    stream: Stream,
    swaps: Sequence[Tuple[float, Callable[[], None]]] = (),
    clock: Callable[[], float] = time.perf_counter,
    columns: Optional[Sequence[int]] = None,
    tracer=None,
    sleep: Callable[[float], None] = time.sleep,
) -> Answer:
    """Drive ``engine`` with ``stream`` on its schedule.

    Args:
        engine: the serving engine (or a stand-in with the same surface).
        stream: the requests and their due offsets.
        swaps: ``(due offset, action)`` pairs run between batches once
            their offset has passed — the epoch installs of the churn
            workload. Requests due meanwhile wait, and are charged for it.
        clock: seconds, monotonic.
        sleep: how to wait for the next due time (most of it; the rest
            is spun on ``clock``).
        columns: per-request target column, to count the unique columns
            each batch asked for (the memo hit ratio's base).
        tracer: when given, spans opened by each submit, batch and swap
            carry that request's, batch's or swap's id.
    """
    count = len(stream)
    answer = _new_answer(count)
    due = stream.due_s
    pending: deque = deque()
    next_index = 0
    next_swap = 0
    epoch = 0
    busy = 0.0
    refused = {}
    sim_base = engine.clock.now_s
    start = clock()
    while next_index < count or pending:
        now = clock() - start
        if next_swap < len(swaps) and now >= swaps[next_swap][0]:
            if tracer is not None:
                tracer.request = f"swap-{next_swap + 1}"
            began = clock()
            swaps[next_swap][1]()
            busy += clock() - began
            next_swap += 1
            epoch += 1
            continue
        if next_index < count and due[next_index] <= now:
            began = clock()
            _follow_wall(engine, sim_base, began - start)
            while next_index < count and due[next_index] <= began - start:
                if tracer is not None:
                    tracer.request = f"req-{next_index}"
                answer.late_s[next_index] = (clock() - start) - due[next_index]
                request_id = engine.submit(stream.tenants[next_index], stream.ips[next_index])
                result = engine.result(request_id)
                if result is not None:
                    # Refused at admission: answered at once, outside the queue.
                    refused[next_index] = result
                else:
                    pending.append((next_index, request_id))
                next_index += 1
            busy += clock() - began
        if pending:
            answer.queue_depth_max = max(answer.queue_depth_max, engine.queue_depth)
            if tracer is not None:
                tracer.request = f"batch-{len(answer.batch_columns)}"
            began = clock()
            done = engine.process_one_batch()
            stamp = clock()
            busy += stamp - began
            if done == 0:
                # The engine lost queued requests: they stay unanswered.
                pending.clear()
            _collect(engine, answer, pending, done, epoch, stamp - start, due, columns)
            continue
        if next_index < count:
            wait = due[next_index] - (clock() - start)
            if wait > SLEEP_OVER_S:
                sleep(wait - SPIN_S)
            while clock() - start < due[next_index]:
                pass
    for index, result in refused.items():
        answer.status[index] = result.status
        answer.answered[index] += 1
    answer.busy_s = busy
    return answer


def closed_loop(
    engine,
    stream: Stream,
    batch: int,
    clock: Callable[[], float] = time.perf_counter,
    epoch: int = 0,
    tracer=None,
) -> Tuple[Answer, float]:
    """Saturate ``engine``: submit ``batch`` requests, answer them, repeat.

    Returns the answers and the elapsed seconds. With a ``tracer``, spans
    carry ``saturated-<first request>`` ids, one per round.
    """
    count = len(stream)
    answer = _new_answer(count)
    pending: deque = deque()
    sim_base = engine.clock.now_s
    start = clock()
    next_index = 0
    while next_index < count:
        _follow_wall(engine, sim_base, clock() - start)
        stop = min(next_index + batch, count)
        if tracer is not None:
            tracer.request = f"saturated-{next_index}"
        while next_index < stop:
            request_id = engine.submit(stream.tenants[next_index], stream.ips[next_index])
            result = engine.result(request_id)
            if result is not None:
                # Refused at admission: answered at once, never queued.
                answer.answered[next_index] += 1
                answer.status[next_index] = result.status
            else:
                pending.append((next_index, request_id))
            next_index += 1
        while pending:
            done = engine.process_one_batch()
            if done == 0:
                # The engine lost queued requests: they stay unanswered.
                pending.clear()
            _collect(engine, answer, pending, done, epoch, 0.0, None, None)
    elapsed = clock() - start
    answer.busy_s = elapsed
    return answer, elapsed
