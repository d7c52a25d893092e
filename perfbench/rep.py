"""One repetition of one workload, in the interpreter that runs this file.

``run.py`` starts a fresh interpreter for every repetition, so module
level memos of the program never carry over from one to the next.

    python perfbench/rep.py --workload serve --seed 1 --trace 0 --out rep.json

The result goes to ``--out`` as JSON: the workload's metrics, its peak
resident memory, its check tally and, when traced, its per-layer numbers.
A traced repetition also writes a per-layer table and a span file beside
the prepared state (see ``prep.cache_dir``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _layer_metrics(tracer, extra) -> tuple:
    """The per-layer metrics of a traced repetition, and its per-layer table rows."""
    import tracing

    inclusive = tracing.inclusive_times(tracer.spans)
    rows = tracing.layer_table(tracer.spans, tracer.wall_s)
    layers = {
        f"{name}_s": value for name, value in inclusive.items() if not name.startswith("bench.")
    }
    layers.update(tracer.counters)
    batches = tracer.counters.get("serve.batches", 0.0)
    if batches:
        layers["serve.batch_size_mean"] = tracer.counters["serve.batch_requests"] / batches
    unattributed = rows[-1][3]
    layers["trace.wall_s"] = tracer.wall_s
    layers["trace.unattributed_s"] = unattributed
    layers.update(extra)
    return layers, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import prep
    import tracing
    import workloads

    tracer = None
    installed = None
    if args.trace:
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    outcome = workloads.WORKLOADS[args.workload](args.seed, tracer, ROOT)
    if installed is not None:
        installed.remove()

    metrics = dict(outcome["metrics"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = outcome["tally"]
    result = {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }
    if tracer is not None:
        layers, rows = _layer_metrics(tracer, outcome.get("layers", {}))
        result["layers"] = layers
        directory = prep.cache_dir(ROOT)
        directory.mkdir(parents=True, exist_ok=True)
        tracing.write_table(
            str(directory / f"layers-{args.workload}.tsv"), rows, tracer.counters, tracer.wall_s
        )
        tracer.write_spans(str(directory / f"spans-{args.workload}.jsonl"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
