"""Order statistics used by every workload.

Percentiles use linear interpolation between closest ranks (the same
definition as ``numpy.percentile``'s default), written out here so the
benchmark's own tests can pin it without trusting the program under test.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` by linear interpolation.

    Raises:
        ValueError: for an empty sample or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank outside [0, 100]: {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)
