"""The one max-min fill on multi-site topologies.

Grid traffic splits naturally along sites: LAN links per site, WAN
links between site routers.  The progressive fill runs once over all
of them; these tests pin that the allocation memo and the
exclusive-links fast path hold on such topologies, and that the
``fill_rounds`` counter reports the fill's bottleneck rounds.
"""

import pytest

from repro.gridnet import FlowEngine, Network
from repro.simulation import Simulation


def multi_site(sim, lan_bws, wan_bws):
    """len(lan_bws) sites chained over WAN links.

    ``lan_bws[s][h]`` is host h's access bandwidth at site s;
    ``wan_bws[s]`` joins site s's router to site s+1's.
    """
    net = Network(sim)
    for s, hosts in enumerate(lan_bws):
        net.add_router("r%d" % s)
        for h, bw in enumerate(hosts):
            name = "s%dh%d" % (s, h)
            net.add_host(name, site="site%d" % s)
            net.add_link(name, "r%d" % s, latency=0.001, bandwidth=bw)
    for s, bw in enumerate(wan_bws):
        net.add_link("r%d" % s, "r%d" % (s + 1), latency=0.010,
                     bandwidth=bw)
    return net


def two_site_disjoint(sim):
    """Two sites whose traffic never crosses the WAN: fast-path bait."""
    return multi_site(sim, [[2e6, 2e6], [3e6, 3e6]], [1e6])


def test_exclusive_links_fast_path_survives_decomposition():
    """A join/leave confined to one site patches the memo without a
    fill, even though both sites hang off one WAN backbone."""
    sim = Simulation()
    engine = FlowEngine(sim, two_site_disjoint(sim))
    f1 = engine.start_flow("s0h0", "s0h1", 4e6)
    engine.link_usage()  # warm the memo
    fills = engine.full_allocations
    rounds = engine.fill_rounds
    f2 = engine.start_flow("s1h0", "s1h1", 0.3e6)  # exclusive links
    assert engine.current_rate(f1) == pytest.approx(2e6)
    assert engine.current_rate(f2) == pytest.approx(3e6)
    assert engine.full_allocations == fills
    assert engine.fill_rounds == rounds  # the patch ran zero rounds
    sim.run(until=0.2)  # f2 finishes alone; the memo survives minus it
    assert f2.finished_at == pytest.approx(0.1)
    assert engine.full_allocations == fills
    f1.remaining = 0.0


def test_memo_still_one_fill_per_generation():
    sim = Simulation()
    net = multi_site(sim, [[1e6, 1e6], [1e6]], [1e6])
    engine = FlowEngine(sim, net)
    f1 = engine.start_flow("s0h0", "s1h0", 1e9)
    engine.start_flow("s0h1", "s1h0", 1e9)
    fills = engine.full_allocations
    for _ in range(5):
        engine.current_rate(f1)
        engine.link_usage()
        engine.available_bandwidth("s0h0", "s1h0")
    assert engine.full_allocations == fills  # all reads hit the memo
    engine.start_flow("s1h0", "s0h0", 1e9)  # shares links: must refill
    engine.link_usage()
    assert engine.full_allocations == fills + 1
    for flow in engine.active_flows:
        flow.remaining = 0.0


def test_decomposition_instrumentation_counts_rounds_and_summaries():
    sim = Simulation()
    net = multi_site(sim, [[1e6, 1e6], [1e6]], [5e5])
    engine = FlowEngine(sim, net)
    assert engine.fill_rounds == 0
    assert not hasattr(engine, "summaries_merged")
    f1 = engine.start_flow("s0h0", "s1h0", 1e9)
    engine.current_rate(f1)
    # One flow: its WAN bottleneck freezes it in a single round.
    assert engine.fill_rounds == 1
    engine.start_flow("s0h1", "s1h0", 1e9)
    engine.current_rate(f1)
    # Each round freezes at least one flow, so a refill over n flows
    # runs between 1 and n rounds.
    assert 2 <= engine.fill_rounds <= 1 + 2
    for flow in engine.active_flows:
        flow.remaining = 0.0
