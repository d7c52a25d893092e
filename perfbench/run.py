"""The reproduction's benchmark: one workload, measured, checked, reported.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Run from the repository root. Each repetition of the workload runs in a
fresh interpreter (``rep.py``) with a pinned environment; repetitions
start until ``--seconds`` have passed (at least one), and each metric is
the median over them. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The line before it records the
environment the run had.

``--trace 1`` runs one untraced and one traced repetition: the traced one
records the per-layer numbers, and the difference of the two ``run_s``
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("campaign", "street", "serve", "churn")
#: every run ends within this many seconds, or fails.
RUN_BUDGET_S = 170.0
#: thread-count knobs of the numeric libraries, all pinned to one thread.
THREAD_KNOBS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: program knobs that would change what runs (workers, checks, on-disk cache).
UNSET_KNOBS = ("REPRO_WORKERS", "REPRO_CHECK", "REPRO_CACHE_DIR")


def pinned_environment() -> dict:
    env = dict(os.environ)
    for name in UNSET_KNOBS:
        env.pop(name, None)
    for name in THREAD_KNOBS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_times() -> list:
    """The aggregate ``cpu`` line of /proc/stat (empty where there is none)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list, after: list) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else 0.0


def repetition(workload: str, seed: int, trace: int, env: dict, deadline: float) -> dict:
    """Run ``rep.py`` in a fresh interpreter and return its result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as scratch:
        out = Path(scratch) / "rep.json"
        command = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--out", str(out),
        ]
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()),
            check=False,
        )
        sys.stderr.write(completed.stdout.decode(errors="replace"))
        if completed.returncode != 0:
            raise RuntimeError(f"{workload} repetition exited with {completed.returncode}")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".bench_build").mkdir(exist_ok=True)

    env = pinned_environment()
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    cpu_before = cpu_times()
    reps = []
    if args.trace:
        reps.append(repetition(args.workload, args.seed, 0, env, deadline))
        reps.append(repetition(args.workload, args.seed, 1, env, deadline))
    else:
        # Whole repetitions until --seconds have passed, none started that
        # would likely overrun the run's budget.
        longest = 0.0
        while not reps or (
            time.monotonic() - started < args.seconds
            and time.monotonic() + 1.5 * longest < deadline
        ):
            began = time.monotonic()
            reps.append(repetition(args.workload, args.seed, 0, env, deadline))
            longest = max(longest, time.monotonic() - began)
    steal = steal_share(cpu_before, cpu_times())

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        for failure in rep["failures"]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)

    metrics = {}
    if args.trace:
        untraced, traced = reps
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["metrics"]["run_s"] - untraced["metrics"]["run_s"]
        latency = untraced["metrics"]
        layers.update({name: value for name, value in latency.items() if name.startswith("ops.")})
        layers["host.steal_share"] = steal
        for metric in spec["per_layer"]:
            metrics[metric["name"]] = {
                "value": float(layers.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
    else:
        for metric in spec["end_to_end"]:
            values = [rep["metrics"][metric["name"]] for rep in reps]
            metrics[metric["name"]] = {"value": stats.median(values), "unit": metric["unit"]}

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "fresh_interpreter_per_repetition": True,
        "python": sys.version.split()[0],
        "steal_share": steal,
        **{name: env.get(name) for name in ("PYTHONHASHSEED", *THREAD_KNOBS, *UNSET_KNOBS)},
    }
    print("perfbench env: " + json.dumps(environment, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
