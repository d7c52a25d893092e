"""In-memory span tracing around the program's layer entry points.

The traced run wraps each entry point below at the name its caller looks
up (a module attribute for functions imported by name, the class
attribute for methods), so the program itself is never edited. Every
wrapped call records a span — name, start, end, parent span, request id —
and, where the layer does countable work, adds to a counter measured from
the call's arguments or result.

A layer's *self time* is its spans' duration minus the time covered by
their child spans; time inside the traced region but outside every span
is reported as ``unattributed``. Self times plus ``unattributed`` add up
to the traced wall time by construction, which :func:`layer_table`
asserts.

An entry point that no longer exists (a later change renamed or deleted
it) is skipped at install time and reports zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: span record layout: [name, start, end, parent index, request id]
_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.enabled = False
        #: request id given to spans opened outside any other span.
        self.request: object = None
        self._stack: List[int] = []
        self._wall_start: Optional[float] = None
        self._wall_s = 0.0

    # --- the traced region -------------------------------------------------

    def start(self) -> None:
        """Open the traced region (spans are recorded only inside it)."""
        self.enabled = True
        self._wall_start = self.clock()

    def stop(self) -> None:
        """Close the traced region and add its length to the wall time."""
        if self._wall_start is not None:
            self._wall_s += self.clock() - self._wall_start
        self._wall_start = None
        self.enabled = False

    @property
    def wall_s(self) -> float:
        """Total length of the traced region(s)."""
        return self._wall_s

    # --- spans and counters ------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][_REQUEST] if parent >= 0 else self.request
        self.spans.append([name, self.clock(), 0.0, parent, request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[_END] = self.clock()
        self._stack.pop()
        duration = span[_END] - span[_START]
        self.durations.setdefault(span[_NAME], []).append(duration)
        return duration

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the benchmark's own steps)."""
        return _SpanContext(self, name)

    # --- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[_NAME],
                            "start_s": span[_START],
                            "end_s": span[_END],
                            "parent": span[_PARENT],
                            "request": span[_REQUEST],
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        if self.tracer.enabled:
            self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.index >= 0:
            self.tracer.end(self.index)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: duration minus the time covered by child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[_PARENT]
        if parent >= 0:
            child_time[parent] += span[_END] - span[_START]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span[_END] - span[_START]) - child_time[index]
        totals[span[_NAME]] = totals.get(span[_NAME], 0.0) + own
    return totals


def inclusive_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: summed duration of its outermost spans (recursion counted once)."""
    totals: Dict[str, float] = {}
    for span in spans:
        ancestor = span[_PARENT]
        nested = False
        while ancestor >= 0:
            if spans[ancestor][_NAME] == span[_NAME]:
                nested = True
                break
            ancestor = spans[ancestor][_PARENT]
        if not nested:
            totals[span[_NAME]] = totals.get(span[_NAME], 0.0) + span[_END] - span[_START]
    return totals


def layer_table(spans: List[list], wall_s: float) -> List[Tuple[str, int, float, float]]:
    """Rows ``(name, calls, inclusive_s, self_s)``, then the ``unattributed`` row.

    The self column plus ``unattributed`` is the traced wall time. A span
    shorter than its children, or spans covering more than the traced
    region, mean the tracer lost track of time, and raise.
    """
    own = self_times(spans)
    inclusive = inclusive_times(spans)
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[_NAME]] = calls.get(span[_NAME], 0) + 1
    rows = [(name, calls[name], inclusive[name], own[name]) for name in sorted(own)]
    unattributed = wall_s - sum(own.values())
    rows.append(("unattributed", 0, unattributed, unattributed))
    tolerance = 1e-6 * max(1.0, wall_s)
    negative = [row for row in rows if row[3] < -tolerance]
    if negative:
        raise AssertionError(f"negative self time in the trace: {negative}")
    return rows


def write_table(path: str, rows, counters: Dict[str, float], wall_s: float) -> None:
    """The per-layer table as tab-separated text."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\tcalls\tinclusive_s\tself_s\n")
        for name, calls, inclusive, own in rows:
            handle.write(f"{name}\t{calls}\t{inclusive:.6f}\t{own:.6f}\n")
        handle.write(f"wall\t\t{wall_s:.6f}\t{wall_s:.6f}\n")
        handle.write("\ncounter\tvalue\n")
        for name in sorted(counters):
            handle.write(f"{name}\t{counters[name]:g}\n")


# --- entry points -------------------------------------------------------------


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:attribute.path`` recorded as span ``name``.

    ``counts`` pairs a counter name with ``amount(args, result, before)``,
    which measures what one call added to it; ``before(args, kwargs)``
    runs ahead of the call when an amount is a difference.
    """

    target: str
    name: str
    counts: Tuple[Tuple[str, Callable], ...] = ()
    before: Optional[Callable] = None


def _one(args, result, before) -> float:
    return 1.0


def _result_size(args, result, before) -> float:
    return float(getattr(result, "size", 0))


def _returned(args, result, before) -> float:
    return float(result)


def _traceroutes(args, result, before) -> float:
    return float(sum(len(per_probe) for per_probe in result.values()))


def _new_pois(args, result, before) -> float:
    return float(result - before)


def _moved_cells(args, result, before) -> float:
    previous, timeline, scenario, revision = args[:4]
    moved = timeline.moved_target_columns(revision, list(scenario.target_ips))
    return float(previous.shape[0] * moved.size)


#: Every layer entry point the traced run records, by layer.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # world
    EntryPoint("repro.experiments.scenario:build_world", "world.build_world"),
    EntryPoint(
        "repro.world.world:World.materialize_all_pois",
        "world.materialize_all_pois",
        counts=(("world.pois_materialized", _new_pois),),
        before=lambda args, kwargs: args[0].materialized_poi_count(),
    ),
    # topology and latency
    EntryPoint(
        "repro.topology.graph:Topology.bulk_path_km",
        "topology.bulk_path_km",
        counts=(("topology.bulk_path_km_pairs", _result_size),),
    ),
    EntryPoint("repro.latency.model:LatencyModel.min_rtt_matrix", "latency.min_rtt_matrix"),
    EntryPoint(
        "repro.latency.model:LatencyModel.traceroute",
        "latency.traceroute",
        counts=(("latency.traceroute_calls", _one),),
    ),
    # atlas
    EntryPoint("repro.atlas.platform:AtlasPlatform.anchor_mesh", "atlas.anchor_mesh"),
    EntryPoint(
        "repro.atlas.platform:AtlasPlatform.ping_matrix",
        "atlas.ping_matrix",
        counts=(("atlas.ping_matrix_cells", _result_size),),
    ),
    EntryPoint(
        "repro.atlas.platform:AtlasPlatform.traceroute_batch",
        "atlas.traceroute_batch",
        counts=(("atlas.traceroutes", _traceroutes),),
    ),
    # core
    EntryPoint("repro.experiments.scenario:sanitize_anchors", "core.sanitize"),
    EntryPoint("repro.experiments.scenario:sanitize_probes", "core.sanitize"),
    EntryPoint(
        "repro.experiments.fig2:cbg_errors_for_subsets",
        "core.cbg_errors_for_subsets",
        counts=(("core.cbg_errors_for_subsets_columns", _result_size),),
    ),
    EntryPoint("repro.core.street_level:cbg_estimate", "core.cbg_estimate"),
    EntryPoint(
        "repro.core.street_level:StreetLevelPipeline.geolocate", "core.street_level.geolocate"
    ),
    EntryPoint("repro.core.cbg_batch:CbgBatchSolver.__init__", "core.cbg_solver_init"),
    EntryPoint(
        "repro.core.cbg_batch:CbgBatchSolver.centroids",
        "core.cbg_solver.centroids",
        counts=(("core.cbg_solver.columns", lambda args, result, before: float(result[0].size)),),
    ),
    # landmarks
    EntryPoint("repro.landmarks.discovery:LandmarkDiscovery.discover", "landmarks.discover"),
    EntryPoint(
        "repro.landmarks.validation:LandmarkValidator.validate",
        "landmarks.validate",
        counts=(("landmarks.validate_calls", _one),),
    ),
    EntryPoint("repro.landmarks.mapping:ReverseGeocoder.reverse", "landmarks.reverse"),
    EntryPoint(
        "repro.landmarks.overpass:OverpassService.amenities_with_website", "landmarks.amenities"
    ),
    # serve
    EntryPoint("repro.serve.engine:ServeEngine.submit", "serve.submit"),
    EntryPoint(
        "repro.serve.engine:ServeEngine.process_one_batch",
        "serve.process_one_batch",
        counts=(
            ("serve.batches", lambda args, result, before: float(result > 0)),
            ("serve.batch_requests", _returned),
        ),
    ),
    EntryPoint(
        "repro.serve.engine:ServeEngine.install_epoch",
        "serve.install_epoch",
        counts=(("serve.install_epoch_changed", _returned),),
    ),
    # evolve
    EntryPoint("repro.evolve.timeline:EvolutionTimeline.snapshot", "evolve.snapshot"),
    EntryPoint("repro.evolve.timeline:EvolutionTimeline.platform", "evolve.platform"),
    EntryPoint(
        "repro.evolve.measure:incremental_matrix",
        "evolve.incremental_matrix",
        counts=(("evolve.incremental_matrix_cells", _moved_cells),),
    ),
    # experiments
    EntryPoint("repro.experiments.fig2:run_fig2a", "experiments.fig2a"),
    EntryPoint("repro.experiments.fig2:run_fig2c", "experiments.fig2c"),
)


def _resolve(target: str):
    """``(owner, attribute)`` for ``module:Attr.path``, or ``None`` when gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


def _wrapper(tracer: Tracer, original, entry: EntryPoint):
    name, counts, before = entry.name, entry.counts, entry.before

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        for counter, amount in counts:
            tracer.add(counter, amount(args, result, token))
        return result

    traced.__wrapped__ = original
    return traced


class Installed:
    """Wrappers in place; :meth:`remove` restores every original."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


def install(tracer: Tracer, entry_points=ENTRY_POINTS) -> Installed:
    """Wrap every entry point that exists; missing ones are skipped."""
    installed = Installed()
    for entry in entry_points:
        resolved = _resolve(entry.target)
        if resolved is None:
            continue
        owner, attribute = resolved
        original = inspect.getattr_static(owner, attribute)
        installed._saved.append((owner, attribute, original))
        setattr(owner, attribute, _wrapper(tracer, original, entry))
    return installed
