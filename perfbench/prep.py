"""The paper preset's query-time state, prepared once per source tree.

``serve`` and ``churn`` load a :class:`~repro.serve.state.QueryState` of
the paper world (the sanitized VP set, the 723 targets and their RTT
matrix). Preparing it is ``Scenario.build`` plus the ping campaign, which
``campaign`` already measures, so it counts toward none of their
metrics. It is kept on disk between runs under a key that is the digest
of every file under ``src/``: a state prepared by one version of the
program is never served to another.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
from pathlib import Path


def source_digest(root: Path) -> str:
    """sha256 over every file under ``root/src`` (path and bytes) and the Python version."""
    digest = hashlib.sha256(sys.version.encode())
    src = root / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_dir(root: Path) -> Path:
    return root / ".bench_build" / "perfbench"


def paper_query_state(root: Path, scenario=None):
    """The paper ``QueryState``: from this source tree's cache, else prepared and stored.

    ``scenario`` is a built paper scenario to prepare from, when the caller
    has one already.
    """
    directory = cache_dir(root)
    path = directory / f"paper-query-state-{source_digest(root)[:32]}.pkl"
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    if scenario is None:
        from repro.experiments.scenario import Scenario, config_for_preset

        scenario = Scenario.build(config_for_preset("paper"))
    state = scenario.query_state()
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("paper-query-state-*.pkl"):
        stale.unlink()
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    with open(partial, "wb") as handle:
        pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return state
