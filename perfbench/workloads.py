"""The four workloads. Each runs one repetition in the calling process.

A workload returns its end-to-end measurements (``metrics``), its
per-layer numbers when traced (``layers``), and the tally of its
correctness checks. The checks run after the timed work, outside every
timed region and outside the traced region.

Inputs are generated from the workload seed: the request streams of
``serve`` and ``churn``, and the oracle sample order. ``campaign`` and
``street`` take the preset alone, so every seed gives them the same
inputs.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
import loadgen
import prep
import stats
import tracing

#: Figure-2a trials per subset size on the paper preset.
CAMPAIGN_TRIALS = 3
#: open-loop offered rate, requests per second (about a third of capacity).
RATE_QPS = 2500.0
#: open-loop requests per round; ``serve``'s 3 rounds pool 300 requests beyond p99.
ROUND_REQUESTS = 10_000
#: serving rounds per repetition, each on a freshly loaded engine, and
#: saturated requests on the last one (``churn`` has fewer: its revisions
#: take most of its time). An unmeasured warm-up round runs first, so
#: one-time costs of a new process stay out.
SERVE_ROUNDS, SERVE_CAPACITY_REQUESTS = 3, 40_000
CHURN_ROUNDS, CHURN_CAPACITY_REQUESTS = 2, 20_000
WARMUP_REQUESTS = 2_000
#: churned revisions built once per repetition and installed in every round.
CHURN_REVISIONS = 2
#: small-preset scenario builds per ``street`` repetition.
STREET_BUILDS = 3
#: tenants sharing the engine; budgets and rate windows far above the traffic.
TENANTS = ("alpha", "beta", "gamma")
TENANT_CREDITS = 10**12
TENANT_WINDOW_REQUESTS = 10**9

#: span names of the operations whose per-call latency ``ops.*`` reports.
_CAMPAIGN_OPERATION = "core.cbg_errors_for_subsets"
_STREET_OPERATION = "core.street_level.geolocate"


def _operation_timer(name: str):
    """A tracer around one entry point only: its per-call durations, nothing else."""
    tracer = tracing.Tracer()
    entries = [entry for entry in tracing.ENTRY_POINTS if entry.name == name]
    return tracer, tracing.install(tracer, entries)


def _latency_metrics(samples_s: List[float]) -> Dict[str, float]:
    """Percentiles of one operation's latency (reported by traced runs, as ``ops.*``)."""
    return {
        f"ops.p{q}_ms": stats.percentile(samples_s, float(q)) * 1e3 for q in (50, 90, 99)
    }


# --- campaign -----------------------------------------------------------------


def campaign(seed: int, tracer: Optional[tracing.Tracer], root: Path) -> dict:
    from repro.constants import MAX_GREAT_CIRCLE_KM, SOI_FRACTION_CBG
    from repro.core.cbg import cbg_centroid_fast
    from repro.core.cbg_batch import cbg_centroids_batch
    from repro.experiments import fig2
    from repro.experiments.scenario import Scenario, config_for_preset

    timer, installed = (tracer, None) if tracer else _operation_timer(_CAMPAIGN_OPERATION)
    timer.start()
    began = time.perf_counter()
    with timer.span("bench.setup"):
        scenario = Scenario.build(config_for_preset("paper"))
    setup_s = time.perf_counter() - began

    began = time.perf_counter()
    with timer.span("bench.run"):
        matrix = scenario.rtt_matrix()
        fig2a = fig2.run_fig2a(scenario, trials=CAMPAIGN_TRIALS)
        fig2c = fig2.run_fig2c(scenario)
    run_s = time.perf_counter() - began
    timer.stop()
    if installed is not None:
        installed.remove()

    evaluations = timer.durations.get(_CAMPAIGN_OPERATION, [])
    columns = timer.counters.get("core.cbg_errors_for_subsets_columns", 0.0)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "capacity_qps": columns / sum(evaluations) if evaluations else 0.0,
        **_latency_metrics(evaluations),
    }

    # --- checks -------------------------------------------------------------
    tally = checks.Tally()
    world = scenario.world
    vp_ids = scenario.vp_ids
    checks.check_rtt_bounds(
        tally,
        matrix,
        world.host_true_lats[vp_ids],
        world.host_true_lons[vp_ids],
        scenario.target_true_lats,
        scenario.target_true_lons,
        SOI_FRACTION_CBG,
    )
    lats, lons = cbg_centroids_batch(scenario.vp_lats, scenario.vp_lons, matrix)
    checks.check_centroids(
        tally,
        matrix,
        scenario.vp_lats,
        scenario.vp_lons,
        scenario.target_true_lats,
        scenario.target_true_lons,
        lats,
        lons,
        SOI_FRACTION_CBG,
        MAX_GREAT_CIRCLE_KM,
    )
    checks.check_errors_match(
        tally,
        np.asarray(fig2c.series["all"], dtype=float),
        lats,
        lons,
        scenario.target_true_lats,
        scenario.target_true_lons,
    )
    sample = np.random.default_rng(seed).permutation(matrix.shape[1])

    def oracle(column: int):
        return cbg_centroid_fast(scenario.vp_lats, scenario.vp_lons, matrix[:, column])

    checks.check_against_oracle(tally, sample, lats[sample], lons[sample], oracle)
    checks.check_fig2a(tally, fig2a.series)
    return {"metrics": metrics, "tally": tally}


# --- street -------------------------------------------------------------------


def street(seed: int, tracer: Optional[tracing.Tracer], root: Path) -> dict:
    from repro.experiments.scenario import Scenario, config_for_preset
    from repro.experiments.street_runner import street_level_records

    timer, installed = (tracer, None) if tracer else _operation_timer(_STREET_OPERATION)
    timer.start()
    builds = []
    for _ in range(STREET_BUILDS):
        scenario = None
        gc.collect()
        began = time.perf_counter()
        with timer.span("bench.setup"):
            scenario = Scenario.build(config_for_preset("small"))
        builds.append(time.perf_counter() - began)

    began = time.perf_counter()
    with timer.span("bench.run"):
        records = street_level_records(scenario)
    run_s = time.perf_counter() - began
    timer.stop()
    if installed is not None:
        installed.remove()

    per_target = timer.durations.get(_STREET_OPERATION, [])
    metrics = {
        "setup_s": stats.median(builds),
        "run_s": run_s,
        "capacity_qps": len(per_target) / sum(per_target) if per_target else 0.0,
        **_latency_metrics(per_target),
    }
    layers = {}
    if tracer is not None and per_target:
        layers["core.street_level.geolocate_p50_s"] = stats.percentile(per_target, 50.0)
        layers["core.street_level.geolocate_p80_s"] = stats.percentile(per_target, 80.0)

    tally = checks.Tally()
    tally.check(len(records) == len(scenario.targets), f"{len(records)} records")
    for record in records:
        truth = record.target.true_location
        checks.check_street_record(tally, record, truth.lat, truth.lon)
    return {"metrics": metrics, "layers": layers, "tally": tally}


# --- serving --------------------------------------------------------------------


def _new_engine(state):
    """An engine over ``state`` with the three tenants registered."""
    from repro.serve.engine import ServeEngine
    from repro.serve.tenancy import TenantConfig

    engine = ServeEngine(state)
    for name in TENANTS:
        engine.register_tenant(
            TenantConfig(
                name, credit_budget=TENANT_CREDITS, max_requests_per_window=TENANT_WINDOW_REQUESTS
            )
        )
    return engine


def _columns(state, stream) -> np.ndarray:
    return np.array([state.column_of(ip) for ip in stream.ips], dtype=np.int64)


def _swap_times(stream) -> List[float]:
    """Epoch installs at even fractions of the stream's span."""
    span_s = float(stream.due_s[-1])
    return [span_s * k / (CHURN_REVISIONS + 1) for k in range(1, CHURN_REVISIONS + 1)]


def _installs(engine, states, stream, changed: List[int]):
    """``(due offset, action)`` pairs installing ``states[1:]`` in order.

    Each install appends the changed-column count it returned to ``changed``.
    """

    def install(revision: int):
        return lambda: changed.append(engine.install_epoch(states[revision], label=f"r{revision}"))

    times = _swap_times(stream)[: len(states) - 1]
    return [(at, install(revision)) for revision, at in enumerate(times, start=1)]


def _serve_rounds(states, seed: int, timer, tracer, count: int, saturated: int) -> dict:
    """``count`` x (load a fresh engine, serve one open-loop stream), then ``saturated`` requests.

    With more than one state, each round installs ``states[1:]`` in order
    at even fractions of its stream. The saturated phase runs on the last
    round's engine, in the last epoch.
    """
    warmup = _new_engine(states[0])
    stream = loadgen.make_stream(
        [seed, count + 1], RATE_QPS, WARMUP_REQUESTS, states[0].target_ips, TENANTS
    )
    loadgen.open_loop(warmup, stream, swaps=_installs(warmup, states, stream, []))
    rounds = []
    engine = swaps = warmup = None
    for index in range(count):
        engine = swaps = None  # the previous round's engine is gone before the next loads
        gc.collect()
        began = time.perf_counter()
        with timer.span("bench.setup"):
            engine = _new_engine(states[0])
        load_s = time.perf_counter() - began
        stream = loadgen.make_stream(
            [seed, index], RATE_QPS, ROUND_REQUESTS, states[0].target_ips, TENANTS
        )
        changed: List[int] = []
        swaps = _installs(engine, states, stream, changed)
        with timer.span("bench.run"):
            answer = loadgen.open_loop(
                engine, stream, swaps=swaps, columns=_columns(states[0], stream), tracer=tracer
            )
        rounds.append(
            {
                "load_s": load_s,
                "stream": stream,
                "answer": answer,
                "changed": changed,
                "memo_hits": engine.stats().get("column_cache_hits", 0),
            }
        )
    capacity_stream = loadgen.make_stream(
        [seed, count], RATE_QPS, saturated, states[0].target_ips, TENANTS
    )
    with timer.span("bench.run"):
        capacity, elapsed = loadgen.closed_loop(
            engine, capacity_stream, batch=engine.max_batch, epoch=len(states) - 1, tracer=tracer
        )
    return {
        "rounds": rounds,
        "capacity_stream": capacity_stream,
        "capacity": capacity,
        "elapsed": elapsed,
    }


def _serve_metrics(served: dict, extra_run_s: float = 0.0) -> Dict[str, float]:
    """Loads and busy times as medians over rounds, latencies pooled, plus saturated throughput."""
    latency = np.concatenate([one["answer"].latency_s for one in served["rounds"]])
    return {
        "setup_s": stats.median([one["load_s"] for one in served["rounds"]]),
        "run_s": extra_run_s + stats.median([one["answer"].busy_s for one in served["rounds"]]),
        "capacity_qps": len(served["capacity_stream"]) / served["elapsed"],
        **_latency_metrics(latency[np.isfinite(latency)].tolist()),
    }


def _serve_layers(served: dict) -> Dict[str, float]:
    answers = [one["answer"] for one in served["rounds"]]
    requested = float(sum(sum(answer.batch_columns) for answer in answers))
    hits = float(sum(one["memo_hits"] for one in served["rounds"]))
    late = np.concatenate([answer.late_s for answer in answers])
    return {
        "serve.memo_hit_ratio": hits / requested if requested else 0.0,
        "serve.memo_columns_requested": requested,
        "serve.queue_depth_max": float(max(answer.queue_depth_max for answer in answers)),
        "loadgen.late_p99_ms": stats.percentile(late.tolist(), 99.0) * 1e3,
    }


class _Oracle:
    """Per-target ``cbg_centroid_fast`` per (epoch, column), computed on demand.

    A column whose bytes did not change since the previous epoch shares
    that epoch's answer (the oracle is a pure function of the column).
    """

    def __init__(self, vp_lats, vp_lons, matrices, soi_fraction) -> None:
        from repro.core.cbg import cbg_centroid_fast

        self._solve = cbg_centroid_fast
        self.vp_lats, self.vp_lons = vp_lats, vp_lons
        self.matrices = matrices
        self.soi = soi_fraction
        self._source = [np.zeros(matrices[0].shape[1], dtype=np.int64)]
        for epoch in range(1, len(matrices)):
            previous, current = matrices[epoch - 1], matrices[epoch]
            same = ((previous == current) | (np.isnan(previous) & np.isnan(current))).all(axis=0)
            self._source.append(np.where(same, self._source[-1], epoch))
        self._memo: Dict[tuple, object] = {}

    def __call__(self, epoch: int, column: int):
        key = (int(self._source[epoch][column]), column)
        if key not in self._memo:
            self._memo[key] = self._solve(
                self.vp_lats, self.vp_lons, self.matrices[key[0]][:, column], soi_fraction=self.soi
            )
        return self._memo[key]


def _check_served(tally, states, matrices, served: dict) -> None:
    """Every request of every round and of the saturated phase, against the oracle."""
    oracle = _Oracle(states[0].vp_lats, states[0].vp_lons, matrices, states[0].soi_fraction)
    phases = [(one["stream"], one["answer"]) for one in served["rounds"]]
    phases.append((served["capacity_stream"], served["capacity"]))
    for stream, answer in phases:
        checks.check_serve_answers(
            tally, answer.answered, answer.status, answer.lat, answer.lon, answer.epoch,
            _columns(states[0], stream), oracle,
        )
    if len(states) > 1:
        for one in served["rounds"]:
            checks.check_swap_counts(tally, matrices, one["changed"])


def _held_mb(states, served: dict) -> float:
    """Python heap the engine holds after its traffic, by tracemalloc, in a replay.

    The replay sends the last round's requests and the saturated phase's,
    in order, through a fresh engine (closed loop, untimed), installing
    each epoch at the same point of the stream, and measures the heap it
    holds beyond its loaded state.
    """
    last = served["rounds"][-1]
    stream = last["stream"]
    positions = [int(np.searchsorted(stream.due_s, at)) for at in _swap_times(stream)]
    bounds = [0, *positions[: len(states) - 1], len(stream)]
    gc.collect()
    tracemalloc.start()
    try:
        engine = _new_engine(states[0])
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for epoch in range(len(bounds) - 1):
            if epoch:
                engine.install_epoch(states[epoch])
            low, high = bounds[epoch], bounds[epoch + 1]
            part = loadgen.Stream(
                stream.due_s[low:high], stream.tenants[low:high], stream.ips[low:high]
            )
            loadgen.closed_loop(engine, part, batch=engine.max_batch)
        loadgen.closed_loop(engine, served["capacity_stream"], batch=engine.max_batch)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        del engine
    finally:
        tracemalloc.stop()
    return held / 2**20


def serve(seed: int, tracer: Optional[tracing.Tracer], root: Path) -> dict:
    state = prep.paper_query_state(root)
    timer = tracer or tracing.Tracer()
    timer.start()
    served = _serve_rounds([state], seed, timer, tracer, SERVE_ROUNDS, SERVE_CAPACITY_REQUESTS)
    timer.stop()
    gc.collect()

    tally = checks.Tally()
    _check_served(tally, [state], [state.rtt_matrix], served)
    layers = {}
    if tracer is not None:
        layers = _serve_layers(served)
        layers["serve.held_mb"] = _held_mb([state], served)
    return {"metrics": _serve_metrics(served), "layers": layers, "tally": tally}


def churn(seed: int, tracer: Optional[tracing.Tracer], root: Path) -> dict:
    from repro.evolve import measure
    from repro.evolve.events import EvolutionConfig
    from repro.evolve.timeline import EvolutionTimeline
    from repro.experiments.scenario import Scenario, config_for_preset

    scenario = Scenario.build(config_for_preset("paper"))
    base = prep.paper_query_state(root, scenario)
    timeline = EvolutionTimeline(scenario.world, EvolutionConfig(revisions=CHURN_REVISIONS))

    timer = tracer or tracing.Tracer()
    timer.start()
    matrices = [base.rtt_matrix]
    began = time.perf_counter()
    with timer.span("bench.refresh"):
        states = [measure.epoch_state(timeline, scenario, 0, matrix=base.rtt_matrix)]
        for revision in range(1, CHURN_REVISIONS + 1):
            matrices.append(measure.incremental_matrix(matrices[-1], timeline, scenario, revision))
            states.append(measure.epoch_state(timeline, scenario, revision, matrix=matrices[-1]))
    refresh_s = time.perf_counter() - began
    served = _serve_rounds(states, seed, timer, tracer, CHURN_ROUNDS, CHURN_CAPACITY_REQUESTS)
    timer.stop()
    gc.collect()

    tally = checks.Tally()
    replay = measure.revision_matrix(timeline, scenario, CHURN_REVISIONS)
    tally.check(
        replay.tobytes() == matrices[-1].tobytes(),
        "last incremental revision matrix differs from the full replay",
    )
    _check_served(tally, states, matrices, served)
    layers = {}
    if tracer is not None:
        layers = _serve_layers(served)
        layers["evolve.refresh_s"] = refresh_s
        layers["serve.held_mb"] = _held_mb(states, served)
    return {"metrics": _serve_metrics(served, refresh_s), "layers": layers, "tally": tally}


WORKLOADS = {"campaign": campaign, "street": street, "serve": serve, "churn": churn}
