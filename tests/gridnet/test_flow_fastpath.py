"""Allocation-memo regression tests and FlowEngine edge cases.

The memoized max-min allocation (one progressive filling per membership
generation, shared by every rate reader) and the exclusive-links
join/leave fast path must be invisible: identical rates and completion
times to a cold engine, with strictly fewer fillings.
"""

import pytest

from repro.gridnet import FlowEngine, Network
from repro.simulation import Simulation


def dumbbell(sim, bottleneck_bw=1e6):
    """Two hosts per side sharing one bottleneck link."""
    net = Network(sim)
    for host in ("a1", "a2", "b1", "b2"):
        net.add_host(host)
    net.add_router("ra")
    net.add_router("rb")
    for host in ("a1", "a2"):
        net.add_link(host, "ra", latency=0.0, bandwidth=100e6)
    for host in ("b1", "b2"):
        net.add_link(host, "rb", latency=0.0, bandwidth=100e6)
    net.add_link("ra", "rb", latency=0.0, bandwidth=bottleneck_bw)
    return net


def disjoint_pairs(sim):
    """Two host pairs with no shared links at all."""
    net = Network(sim)
    for host in ("a", "b", "c", "d"):
        net.add_host(host)
    net.add_link("a", "b", latency=0.0, bandwidth=2e6)
    net.add_link("c", "d", latency=0.0, bandwidth=3e6)
    return net


# ---------------------------------------------------------------------------
# One progressive filling per membership generation (the API-cost bug:
# link_usage() and available_bandwidth() used to refill on every call).
# ---------------------------------------------------------------------------

def test_repeated_reads_share_one_allocation():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim))
    f1 = engine.start_flow("a1", "b1", 1e6)
    f2 = engine.start_flow("a2", "b2", 1e6)
    fills = engine.full_allocations
    for _ in range(5):
        assert engine.current_rate(f1) == pytest.approx(0.5e6)
        assert engine.current_rate(f2) == pytest.approx(0.5e6)
        usage = engine.link_usage()
        assert max(usage.values()) == pytest.approx(1e6)
        assert engine.available_bandwidth("a1", "b1") == pytest.approx(0.0)
    assert engine.full_allocations == fills  # all 20 reads hit the memo


def test_membership_change_invalidates_memo():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim))
    engine.start_flow("a1", "b1", 1e6)
    engine.link_usage()
    fills = engine.full_allocations
    engine.start_flow("a2", "b2", 1e6)  # shares the bottleneck: must refill
    engine.link_usage()
    assert engine.full_allocations == fills + 1


def test_disjoint_join_and_leave_skip_refill():
    sim = Simulation()
    engine = FlowEngine(sim, disjoint_pairs(sim))
    assert engine.fill_rounds == 0
    f1 = engine.start_flow("a", "b", 4e6)
    engine.link_usage()  # warm the memo
    fills = engine.full_allocations
    rounds = engine.fill_rounds
    assert rounds > 0  # the refill ran bottleneck rounds
    f2 = engine.start_flow("c", "d", 0.3e6)  # exclusive links: patched in
    assert engine.current_rate(f1) == pytest.approx(2e6)
    assert engine.current_rate(f2) == pytest.approx(3e6)
    assert engine.full_allocations == fills
    assert engine.fill_rounds == rounds  # the patch ran zero rounds
    sim.run(until=0.2)  # f2 finishes alone at t=0.1; f1 is still moving
    assert f2.finished_at == pytest.approx(0.1)
    assert engine.current_rate(f1) == pytest.approx(2e6)
    assert engine.full_allocations == fills


def test_fast_path_rates_match_cold_engine():
    """Patched-in allocations equal a from-scratch filling, exactly."""
    warm_sim = Simulation()
    warm = FlowEngine(warm_sim, disjoint_pairs(warm_sim))
    wf1 = warm.start_flow("a", "b", 4e6)
    warm.link_usage()  # ensure the second join takes the patch path
    wf2 = warm.start_flow("c", "d", 5e6, bandwidth_cap=2.5e6)

    cold_sim = Simulation()
    cold = FlowEngine(cold_sim, disjoint_pairs(cold_sim))
    cf1 = cold.start_flow("a", "b", 4e6)
    cf2 = cold.start_flow("c", "d", 5e6, bandwidth_cap=2.5e6)

    assert warm.current_rate(wf1) == cold.current_rate(cf1)
    assert warm.current_rate(wf2) == cold.current_rate(cf2)
    warm_sim.run()
    cold_sim.run()
    assert wf1.finished_at == cf1.finished_at
    assert wf2.finished_at == cf2.finished_at


# ---------------------------------------------------------------------------
# Edge cases, exercised against both the cold and the memoized paths
# ---------------------------------------------------------------------------

def test_zero_byte_flow_completes_instantly():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim))
    flow = engine.start_flow("a1", "b1", 0)
    assert flow.done.triggered
    assert flow.finished_at == sim.now
    assert engine.active_flows == []


def test_loopback_flow_has_empty_path_and_completes_instantly():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim))
    flow = engine.start_flow("a1", "a1", 1e9)
    assert flow.links == []
    assert flow.done.triggered
    assert flow.finished_at == sim.now
    assert engine.available_bandwidth("a1", "a1") == float("inf")


def test_bandwidth_cap_tighter_than_fair_share():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim, bottleneck_bw=1e6))
    capped = engine.start_flow("a1", "b1", 1e6, bandwidth_cap=0.25e6)
    other = engine.start_flow("a2", "b2", 1e6)
    # The capped flow pins at its cap; max-min hands the rest to the other.
    assert engine.current_rate(capped) == pytest.approx(0.25e6)
    assert engine.current_rate(other) == pytest.approx(0.75e6)
    sim.run()
    assert capped.finished_at == pytest.approx(4.0)


def test_bandwidth_cap_looser_than_fair_share_is_inert():
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim, bottleneck_bw=1e6))
    capped = engine.start_flow("a1", "b1", 1e6, bandwidth_cap=10e6)
    other = engine.start_flow("a2", "b2", 1e6)
    assert engine.current_rate(capped) == pytest.approx(0.5e6)
    assert engine.current_rate(other) == pytest.approx(0.5e6)


def test_cap_equal_to_path_bottleneck_on_fast_path():
    """cap == min link bandwidth: the tie must resolve like a refill."""
    warm_sim = Simulation()
    warm = FlowEngine(warm_sim, disjoint_pairs(warm_sim))
    warm.start_flow("a", "b", 1e6)
    warm.link_usage()
    wf = warm.start_flow("c", "d", 1e6, bandwidth_cap=3e6)  # cap == 3e6 link

    cold_sim = Simulation()
    cold = FlowEngine(cold_sim, disjoint_pairs(cold_sim))
    cold.start_flow("a", "b", 1e6)
    cf = cold.start_flow("c", "d", 1e6, bandwidth_cap=3e6)
    assert warm.current_rate(wf) == cold.current_rate(cf)


def test_join_and_leave_at_same_instant():
    """A flow finishing exactly when another starts: one consistent epoch."""
    sim = Simulation()
    engine = FlowEngine(sim, dumbbell(sim, bottleneck_bw=1e6))
    first = engine.start_flow("a1", "b1", 1e6)  # finishes at t=1.0

    late = {}

    def starter(sim):
        yield sim.timeout(1.0)
        late["flow"] = engine.start_flow("a2", "b2", 1e6)

    sim.spawn(starter(sim))
    sim.run()
    assert first.finished_at == pytest.approx(1.0)
    # The newcomer saw the full bottleneck from t=1.0 on.
    assert late["flow"].finished_at == pytest.approx(2.0)


def test_flow_count_tracks_joins_and_leaves():
    sim = Simulation()
    engine = FlowEngine(sim, disjoint_pairs(sim))
    f1 = engine.start_flow("a", "b", 2e6)
    f2 = engine.start_flow("c", "d", 3e6)
    assert len(engine.active_flows) == 2
    sim.run()
    assert engine.active_flows == []
    assert f1.finished_at == pytest.approx(1.0)
    assert f2.finished_at == pytest.approx(1.0)
