"""Each correctness check accepts the program's output and rejects a perturbed one."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
from repro.constants import MAX_GREAT_CIRCLE_KM, SOI_FRACTION_CBG
from repro.core.cbg import cbg_centroid_fast
from repro.core.cbg_batch import cbg_centroids_batch


@pytest.fixture(scope="module")
def world():
    """A small consistent world: RTTs at least the speed-of-light floor."""
    rng = np.random.default_rng(5)
    vp_lats = rng.uniform(-50, 60, 40)
    vp_lons = rng.uniform(-120, 140, 40)
    target_lats = rng.uniform(-40, 50, 6)
    target_lons = rng.uniform(-100, 120, 6)
    distance = checks.haversine_km(
        vp_lats[:, None], vp_lons[:, None], target_lats[None, :], target_lons[None, :]
    )
    floor = 2000.0 * distance / (SOI_FRACTION_CBG * checks.LIGHT_KM_PER_S)
    rtt = floor * rng.uniform(1.05, 1.6, floor.shape) + rng.uniform(0.1, 3.0, floor.shape)
    rtt[rng.random(rtt.shape) < 0.1] = np.nan
    rtt[:, 5] = np.nan          # a target nobody answered
    return SimpleNamespace(
        vp_lats=vp_lats, vp_lons=vp_lons, target_lats=target_lats, target_lons=target_lons, rtt=rtt
    )


def _centroids(world):
    return cbg_centroids_batch(world.vp_lats, world.vp_lons, world.rtt)


def _oracle(world):
    return lambda column: cbg_centroid_fast(world.vp_lats, world.vp_lons, world.rtt[:, column])


def _one_ulp(values, index):
    bumped = values.copy()
    bumped[index] = np.nextafter(bumped[index], np.inf)
    return bumped


def test_rtt_floor_accepts_physics_and_rejects_a_too_fast_rtt(world):
    true_vp = (world.vp_lats, world.vp_lons)
    tally = checks.Tally()
    checks.check_rtt_bounds(tally, world.rtt, *true_vp, world.target_lats, world.target_lons, SOI_FRACTION_CBG)
    assert (tally.attempted, tally.failed) == (6, 0)
    fast = world.rtt.copy()
    fast[3, 2] = 0.5 * np.nan_to_num(fast[3, 2], nan=10.0)
    bad = checks.Tally()
    checks.check_rtt_bounds(bad, fast, *true_vp, world.target_lats, world.target_lons, SOI_FRACTION_CBG)
    assert bad.failed == 1


def test_centroid_checks_accept_the_kernel(world):
    lats, lons = _centroids(world)
    tally = checks.Tally()
    checks.check_centroids(
        tally, world.rtt, world.vp_lats, world.vp_lons, world.target_lats, world.target_lons,
        lats, lons, SOI_FRACTION_CBG, MAX_GREAT_CIRCLE_KM,
    )
    errors = checks.haversine_km(world.target_lats, world.target_lons, lats, lons)
    checks.check_errors_match(tally, errors, lats, lons, world.target_lats, world.target_lons)
    checks.check_against_oracle(tally, range(6), lats, lons, _oracle(world))
    assert (tally.attempted, tally.failed) == (18, 0), tally.failures


def test_one_ulp_centroid_change_is_rejected(world):
    lats, lons = _centroids(world)
    tally = checks.Tally()
    checks.check_against_oracle(tally, range(6), _one_ulp(lats, 2), lons, _oracle(world))
    assert tally.failed == 1
    tally = checks.Tally()
    checks.check_against_oracle(tally, range(6), lats, _one_ulp(lons, 0), _oracle(world))
    assert tally.failed == 1


def test_centroid_outside_its_disc_is_rejected(world):
    lats, lons = _centroids(world)
    moved = lats.copy()
    moved[1] += 30.0
    tally = checks.Tally()
    checks.check_centroids(
        tally, world.rtt, world.vp_lats, world.vp_lons, world.target_lats, world.target_lons,
        moved, lons, SOI_FRACTION_CBG, MAX_GREAT_CIRCLE_KM,
    )
    assert tally.failed == 1


def test_fig2a_must_not_get_worse_with_more_vps():
    tally = checks.Tally()
    checks.check_fig2a(tally, {"10": [900.0, 800.0], "100": [300.0], "1000": [50.0]})
    checks.check_fig2a(tally, {"10": [40.0], "1000": [50.0]})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_serve_answers_one_ulp_and_no_estimate(world):
    oracle = _oracle(world)
    columns = [0, 1, 5, 2, 0]
    expected = [oracle(c) for c in columns]
    lats = np.array([np.nan if e is None else e[0] for e in expected])
    lons = np.array([np.nan if e is None else e[1] for e in expected])
    status = ["no-estimate" if e is None else "ok" for e in expected]
    answered = np.ones(5, dtype=np.int64)
    epochs = np.zeros(5, dtype=np.int64)

    def by_epoch(epoch, column):
        return oracle(column)

    tally = checks.Tally()
    checks.check_serve_answers(tally, answered, status, lats, lons, epochs, columns, by_epoch)
    assert (tally.attempted, tally.failed) == (5, 0), tally.failures

    tally = checks.Tally()
    checks.check_serve_answers(tally, answered, status, _one_ulp(lats, 4), lons, epochs, columns, by_epoch)
    assert tally.failed == 1

    twice = answered.copy()
    twice[1] = 2
    refused = list(status)
    refused[3] = "over-rate"
    tally = checks.Tally()
    checks.check_serve_answers(tally, twice, refused, lats, lons, epochs, columns, by_epoch)
    assert tally.failed == 2


def test_wrong_changed_column_count_is_rejected():
    previous = np.array([[1.0, np.nan, 3.0], [4.0, 5.0, np.nan]])
    current = previous.copy()
    current[0, 2] = 3.5
    same_nan = current.copy()
    assert checks.changed_columns(previous, current) == 1
    assert checks.changed_columns(current, same_nan) == 0
    tally = checks.Tally()
    checks.check_swap_counts(tally, [previous, current, same_nan], [1, 0])
    assert tally.failed == 0
    checks.check_swap_counts(tally, [previous, current, same_nan], [2, 0])
    checks.check_swap_counts(tally, [previous, current, same_nan], [1])
    assert tally.failed == 2


def _measurement(lat, lon, delay, usable=True):
    return SimpleNamespace(
        landmark=SimpleNamespace(location=SimpleNamespace(lat=lat, lon=lon)),
        delay=SimpleNamespace(usable=usable, best_delay_ms=delay),
    )


def _record(estimate, measurements, fell_back=False, tier1=(10.0, 10.0)):
    truth = (48.85, 2.35)
    point = None if estimate is None else SimpleNamespace(lat=estimate[0], lon=estimate[1])
    error = float(checks.haversine_km(truth[0], truth[1], estimate[0], estimate[1]))
    distances = [
        float(checks.haversine_km(truth[0], truth[1], m.landmark.location.lat, m.landmark.location.lon))
        for m in measurements
    ]
    result = SimpleNamespace(
        target_ip="192.0.2.1",
        estimate=point,
        tier1_estimate=SimpleNamespace(lat=tier1[0], lon=tier1[1]),
        fell_back_to_cbg=fell_back,
        measurements=measurements,
    )
    record = SimpleNamespace(
        result=result,
        street_error_km=error,
        oracle_error_km=min(distances) if distances else error,
    )
    return record, truth


def test_street_record_accepts_the_lowest_delay_landmark():
    landmarks = [
        _measurement(48.86, 2.34, 3.0),
        _measurement(48.80, 2.40, 1.5),
        _measurement(48.90, 2.30, 0.9, usable=False),
    ]
    record, truth = _record((48.80, 2.40), landmarks)
    tally = checks.Tally()
    checks.check_street_record(tally, record, *truth)
    assert (tally.attempted, tally.failed) == (3, 0), tally.failures


def test_street_estimate_swapped_for_another_landmark_is_rejected():
    landmarks = [_measurement(48.86, 2.34, 3.0), _measurement(48.80, 2.40, 1.5)]
    record, truth = _record((48.86, 2.34), landmarks)
    tally = checks.Tally()
    checks.check_street_record(tally, record, *truth)
    assert tally.failed == 1


def test_street_fallback_must_be_the_tier1_estimate():
    landmarks = [_measurement(48.86, 2.34, 3.0, usable=False)]
    record, truth = _record((10.0, 10.0), landmarks, fell_back=True)
    tally = checks.Tally()
    checks.check_street_record(tally, record, *truth)
    assert tally.failed == 0
    record, truth = _record((10.0, 10.5), landmarks, fell_back=True)
    tally = checks.Tally()
    checks.check_street_record(tally, record, *truth)
    assert tally.failed == 1


def test_street_error_must_match_our_haversine():
    landmarks = [_measurement(48.80, 2.40, 1.5)]
    record, truth = _record((48.80, 2.40), landmarks)
    record.street_error_km *= 1.0 + 1e-6
    tally = checks.Tally()
    checks.check_street_record(tally, record, *truth)
    assert tally.failed == 1
