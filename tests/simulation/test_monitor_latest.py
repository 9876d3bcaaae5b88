"""One sample per instant: ``record_latest`` against plain ``record``.

The CPU's utilization and run-queue monitors are sampled at every
membership change, often several times at one instant.  Keeping only
the last sample of an instant must leave every query bit-for-bit
unchanged; this checks that against an uncoalesced copy of the same
series, unbounded and under window retention.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation.monitor import TimeSeriesMonitor

#: Time steps with many zero-width ones (same-instant samples).
_steps = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]),
                        st.floats(min_value=0.0, max_value=7.0)),
              st.floats(min_value=-4.0, max_value=4.0)),
    min_size=1, max_size=60)


def same(a, b):
    """Bit-for-bit equality of two query results."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return a == b


def outcome(query, *args):
    try:
        return query(*args)
    except ValueError:
        return "evicted"


@settings(max_examples=200, deadline=None)
@given(steps=_steps, start=st.floats(min_value=0.0, max_value=3.0),
       window=st.one_of(st.none(), st.floats(min_value=0.5, max_value=12.0)))
def test_record_latest_matches_uncoalesced(steps, start, window):
    plain = TimeSeriesMonitor("plain", window=window)
    latest = TimeSeriesMonitor("latest", window=window)
    now = start
    for dt, value in steps:
        now += dt
        plain.record(now, value)
        latest.record_latest(now, value)

    times = sorted(set(plain.times) | {plain.origin_time})
    points = set(times)
    for a, b in zip(times, times[1:]):
        points.add((a + b) / 2)
    points.add(now + 1.0)
    points = sorted(points)

    assert same(latest.last_value, plain.last_value)
    assert latest.origin_time == plain.origin_time
    assert same(latest.time_average(), plain.time_average())
    assert same(latest.time_average(end=now + 2.0),
                plain.time_average(end=now + 2.0))
    for point in points:
        assert same(latest.value_at(point), plain.value_at(point))
        for end in points:
            assert same(outcome(latest.time_average, point, end),
                        outcome(plain.time_average, point, end))
    # Same-instant samples collapse; nothing else does.
    assert len(latest) <= len(plain)
    assert latest.times == sorted(set(latest.times))


def test_record_latest_replaces_a_same_instant_sample():
    mon = TimeSeriesMonitor()
    mon.record_latest(1.0, 3.0)
    mon.record_latest(1.0, 5.0)
    mon.record_latest(2.0, 1.0)
    assert mon.times == [1.0, 2.0] and mon.values == [5.0, 1.0]


def test_record_latest_rejects_time_travel():
    mon = TimeSeriesMonitor()
    mon.record_latest(2.0, 1.0)
    with pytest.raises(ValueError):
        mon.record_latest(1.0, 1.0)
