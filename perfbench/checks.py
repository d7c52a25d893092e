"""Correctness checks, run outside every timed region.

Each check compares the program's output against a computation that does
not share its code path (the benchmark's own haversine, the per-target
oracle ``cbg_centroid_fast``, a bitwise column diff) or against a
property CBG and street level must have. Every item checked counts as one
attempted operation, and as failed when its check fails.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: mean Earth radius (IUGG), km.
EARTH_RADIUS_KM = 6371.0088
#: speed of light in vacuum, km/s.
LIGHT_KM_PER_S = 299_792.458
#: relative slack for comparing our float chain against the program's.
REL_TOL = 1e-9


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance in km; broadcasts over numpy arrays."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def same_bits(a: float, b: float) -> bool:
    """Bitwise float equality (so 1 ulp apart fails, and NaN == NaN)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class Tally:
    """Attempted and failed check items, with the first few failures spelled out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what) -> bool:
        """Count one item; ``what`` (a string, or a callable making one) names a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what() if callable(what) else what)
        return ok


# --- campaign -------------------------------------------------------------------


def constraint_radii_km(rtt: np.ndarray, soi_fraction: float, cap_km: float) -> np.ndarray:
    """RTT (ms) to CBG disc radius: half the round trip at ``soi_fraction`` of c."""
    return np.minimum(rtt / 2000.0 * soi_fraction * LIGHT_KM_PER_S, cap_km)


def check_rtt_bounds(
    tally: Tally,
    rtt: np.ndarray,
    vp_true_lats: np.ndarray,
    vp_true_lons: np.ndarray,
    target_lats: np.ndarray,
    target_lons: np.ndarray,
    soi_fraction: float,
) -> None:
    """Per column: every finite RTT covers the true distance at ``soi_fraction`` of c."""
    for column in range(rtt.shape[1]):
        distance = haversine_km(
            vp_true_lats, vp_true_lons, target_lats[column], target_lons[column]
        )
        floor_ms = 2000.0 * distance / (soi_fraction * LIGHT_KM_PER_S)
        values = rtt[:, column]
        finite = np.isfinite(values)
        ok = bool(np.all(values[finite] >= floor_ms[finite] * (1.0 - REL_TOL)))
        tally.check(ok, f"rtt column {column} below the speed-of-light floor")


def check_centroids(
    tally: Tally,
    rtt: np.ndarray,
    vp_lats: np.ndarray,
    vp_lons: np.ndarray,
    target_lats: np.ndarray,
    target_lons: np.ndarray,
    centroid_lats: np.ndarray,
    centroid_lons: np.ndarray,
    soi_fraction: float,
    cap_km: float,
) -> None:
    """Per column: the centroid lies in the tightest disc, within 2 radii of the truth."""
    radii = constraint_radii_km(rtt, soi_fraction, cap_km)
    for column in range(rtt.shape[1]):
        column_radii = radii[:, column]
        lat, lon = centroid_lats[column], centroid_lons[column]
        if np.all(np.isnan(column_radii)):
            tally.check(bool(np.isnan(lat)), f"column {column}: estimate without constraints")
            continue
        tightest = int(np.nanargmin(column_radii))
        radius = float(column_radii[tightest])
        slack = radius * REL_TOL + 1e-6
        inside = haversine_km(vp_lats[tightest], vp_lons[tightest], lat, lon) <= radius + slack
        near = (
            haversine_km(target_lats[column], target_lons[column], lat, lon)
            <= 2.0 * radius + slack
        )
        tally.check(
            bool(np.isfinite(lat) and inside and near),
            f"column {column}: centroid outside its tightest disc or far from the truth",
        )


def check_errors_match(
    tally: Tally,
    errors_km: np.ndarray,
    centroid_lats: np.ndarray,
    centroid_lons: np.ndarray,
    target_lats: np.ndarray,
    target_lons: np.ndarray,
) -> None:
    """Per column: a reported CBG error is the centroid's distance to the truth."""
    expected = haversine_km(target_lats, target_lons, centroid_lats, centroid_lons)
    for column, (got, want) in enumerate(zip(errors_km, expected)):
        if np.isnan(want):
            ok = bool(np.isnan(got))
        else:
            ok = bool(abs(got - want) <= REL_TOL * max(1.0, want))
        tally.check(ok, lambda: f"column {column}: error {got} km, centroid says {want} km")


def check_against_oracle(
    tally: Tally,
    columns: Sequence[int],
    lats: np.ndarray,
    lons: np.ndarray,
    oracle: Callable[[int], Optional[Tuple[float, float]]],
    label: str = "column",
) -> None:
    """Each listed answer equals the per-target oracle bitwise (NaN == no estimate)."""
    for position, column in enumerate(columns):
        expected = oracle(int(column))
        lat, lon = lats[position], lons[position]
        if expected is None:
            ok = bool(np.isnan(lat) and np.isnan(lon))
        else:
            ok = same_bits(lat, expected[0]) and same_bits(lon, expected[1])
        tally.check(ok, lambda: f"{label} {column}: ({lat!r}, {lon!r}) vs oracle {expected!r}")


def check_fig2a(tally: Tally, series: Dict[str, Sequence[float]]) -> None:
    """The median error over all VPs is no worse than at the smallest subset."""
    sizes = sorted(int(size) for size in series)
    smallest = float(np.median(series[str(sizes[0])]))
    largest = float(np.median(series[str(sizes[-1])]))
    tally.check(
        largest <= smallest,
        f"fig2a: {largest} km with all VPs, {smallest} km with {sizes[0]}",
    )


# --- street level ---------------------------------------------------------------


def check_street_record(tally: Tally, record, truth_lat: float, truth_lon: float) -> None:
    """Three checks on one target's street-level record.

    1. The estimate is the location of a usable landmark with the smallest
       ``best_delay_ms``; with no usable landmark it is the tier-1 estimate
       and ``fell_back_to_cbg`` is set.
    2. The street error is the estimate's distance to the truth.
    3. The closest-landmark oracle is no worse than the chosen landmark.
    """
    result = record.result
    name = result.target_ip
    usable = [m for m in result.measurements if m.delay.usable]
    estimate = result.estimate
    if usable:
        best = min(m.delay.best_delay_ms for m in usable)
        winners = [m for m in usable if m.delay.best_delay_ms == best]
        ok = (
            not result.fell_back_to_cbg
            and estimate is not None
            and any(
                m.landmark.location.lat == estimate.lat and m.landmark.location.lon == estimate.lon
                for m in winners
            )
        )
    else:
        ok = (
            result.fell_back_to_cbg
            and estimate is not None
            and result.tier1_estimate is not None
            and estimate.lat == result.tier1_estimate.lat
            and estimate.lon == result.tier1_estimate.lon
        )
    tally.check(ok, f"{name}: estimate is not the lowest-delay usable landmark")

    if estimate is None:
        tally.check(bool(np.isnan(record.street_error_km)), f"{name}: error without estimate")
    else:
        want = float(haversine_km(truth_lat, truth_lon, estimate.lat, estimate.lon))
        tally.check(
            abs(record.street_error_km - want) <= REL_TOL * max(1.0, want),
            f"{name}: street error {record.street_error_km} km, haversine {want} km",
        )

    if usable:
        tally.check(
            record.oracle_error_km <= record.street_error_km * (1.0 + REL_TOL),
            f"{name}: oracle {record.oracle_error_km} km worse than street level",
        )
    else:
        tally.check(True, f"{name}: no landmark chosen")


# --- serving ----------------------------------------------------------------------


def changed_columns(previous: np.ndarray, current: np.ndarray) -> int:
    """Columns whose bytes differ between two matrices (NaN == NaN)."""
    same = (previous == current) | (np.isnan(previous) & np.isnan(current))
    return int((~same.all(axis=0)).sum())


def check_swap_counts(
    tally: Tally, matrices: Sequence[np.ndarray], reported: Sequence[int]
) -> None:
    """Each install reported as many changed columns as the revision diff shows."""
    for revision in range(1, len(matrices)):
        want = changed_columns(matrices[revision - 1], matrices[revision])
        got = reported[revision - 1] if len(reported) >= revision else None
        tally.check(
            got == want,
            f"install of revision {revision} reported {got} changed columns, diff says {want}",
        )


def check_serve_answers(
    tally: Tally,
    answered: np.ndarray,
    status: Sequence[Optional[str]],
    lats: np.ndarray,
    lons: np.ndarray,
    epochs: np.ndarray,
    columns: Sequence[int],
    oracle: Callable[[int, int], Optional[Tuple[float, float]]],
) -> None:
    """Per request: answered once, never refused, equal to its epoch's oracle bitwise."""
    for index in range(len(columns)):
        column = int(columns[index])
        expected = oracle(int(epochs[index]), column) if epochs[index] >= 0 else None
        if answered[index] != 1 or status[index] not in ("ok", "no-estimate"):
            ok = False
        elif status[index] == "no-estimate":
            ok = expected is None
        else:
            ok = (
                expected is not None
                and same_bits(lats[index], expected[0])
                and same_bits(lons[index], expected[1])
            )
        tally.check(
            ok,
            lambda: f"request {index} (column {column}, epoch {epochs[index]}): answered "
            f"{answered[index]}x, {status[index]} ({lats[index]!r}, {lons[index]!r}) "
            f"vs oracle {expected!r}",
        )
