"""Property-based tests: the constraint language round-trips."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.scheduling import compile_constraints, parse_constraints
from repro.scheduling.compiler import InfeasibleSchedule


@settings(max_examples=100, deadline=None)
@given(cap=st.floats(min_value=0.01, max_value=1.0),
       interactive=st.floats(min_value=0.01, max_value=1.0),
       weight=st.floats(min_value=0.1, max_value=100.0))
def test_parse_roundtrip_caps_and_weight(cap, interactive, weight):
    text = ("limit cpu %r\nlimit cpu %r when interactive\n"
            "weight %r" % (cap, interactive, weight))
    constraints = parse_constraints(text)
    assert constraints.cpu_cap == pytest.approx(cap)
    assert constraints.interactive_cpu_cap == pytest.approx(interactive)
    assert constraints.weight == pytest.approx(weight)


@settings(max_examples=100, deadline=None)
@given(slice_ms=st.integers(min_value=1, max_value=99),
       period_ms=st.integers(min_value=100, max_value=1000))
def test_parse_roundtrip_reservations(slice_ms, period_ms):
    text = "reserve slice %dms period %dms" % (slice_ms, period_ms)
    constraints = parse_constraints(text)
    assert constraints.slice_seconds == pytest.approx(slice_ms / 1000.0)
    assert constraints.period_seconds == pytest.approx(period_ms / 1000.0)


@settings(max_examples=100, deadline=None)
@given(slice_ms=st.integers(min_value=1, max_value=100),
       period_ms=st.integers(min_value=1, max_value=200),
       n_vms=st.integers(min_value=1, max_value=8),
       cap=st.floats(min_value=0.05, max_value=1.0),
       cores=st.integers(min_value=1, max_value=4))
# The text carries the cap to 6 decimals: 0.333333 * 3 cores < 1.0.
@example(slice_ms=100, period_ms=100, n_vms=1, cap=1 / 3, cores=3)
def test_compiler_feasibility_is_exact(slice_ms, period_ms, n_vms, cap,
                                       cores):
    """compile_constraints accepts iff utilization fits the budget."""
    if slice_ms > period_ms:
        return  # invalid reservation, rejected at parse level
    text = ("limit cpu %.6f\nreserve slice %dms period %dms"
            % (cap, slice_ms, period_ms))
    constraints = parse_constraints(text)
    vms = ["vm%d" % i for i in range(n_vms)]
    demand = n_vms * slice_ms / period_ms
    budget = constraints.cpu_cap * cores  # the cap as parsed, not drawn
    try:
        schedule = compile_constraints(constraints, vms, cores=cores)
    except InfeasibleSchedule:
        assert demand > budget + 1e-9
    else:
        assert demand <= budget + 1e-6
        assert schedule.utilization == pytest.approx(demand, rel=1e-6)
        assert set(schedule.entries) == set(vms)
