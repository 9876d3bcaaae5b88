"""Deterministic work counts: playback bursts cost no processes.

Each Figure 1 scenario replays thousands of load bursts.  Counting
the processes a scenario creates is independent of the host, and a
burst that goes back to being a process (a generator chain per burst)
multiplies that count by the number of bursts.
"""

from repro.experiments import figure1
from repro.simulation import kernel

#: The VM's boot, the playback and the sampler: three, not one per burst.
PROCESS_BUDGET = 3


def test_heavy_vm_on_vm_spawns_no_burst_processes(monkeypatch):
    spawned = []
    started = []
    init = kernel.Process.__init__
    call_soon = kernel.Simulation.call_soon

    def counting_init(self, sim, generator, name=""):
        spawned.append(name)
        init(self, sim, generator, name)

    def counting_call_soon(self, callback):
        started.append(callback)
        return call_soon(self, callback)

    monkeypatch.setattr(kernel.Process, "__init__", counting_init)
    monkeypatch.setattr(kernel.Simulation, "call_soon", counting_call_soon)
    mean, _std, slowdowns = figure1._scenario("heavy", "vm", "vm", 100, 3.0,
                                              4217)
    assert len(slowdowns) == 100 and mean > 1.5
    assert len(started) > 500  # the bursts did run ...
    assert len(spawned) <= PROCESS_BUDGET, spawned  # ... without processes
    assert "loadburst" not in spawned
