"""Completion timers of the fluid CPU: superseded ones run nothing.

Every membership change arms a fresh completion timer.  The one it
replaces keeps its slot in the event queue — the kernel's event
sequence, and with it every published event count, stays the same —
but it is disarmed in place, so it fires with no callback at all.
"""

from repro.hardware import CpuTask, ProcessorSharingCpu
from repro.simulation import Simulation


def test_superseded_completion_timers_run_no_callbacks():
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=1, context_switch_cost=0.0)
    fire = cpu._fire
    fired = []

    def spy(timer):
        assert timer is cpu._timer  # only the armed timer ever runs
        fired.append(timer)
        fire(timer)

    cpu._fire = spy  # bound into each timer as it is armed
    armed = []

    def arrivals(sim):
        for i in range(4):
            cpu.submit(CpuTask("t%d" % i, work=1.0 + i))
            armed.append(cpu._timer)
            if len(armed) > 1:
                superseded = armed[-2]
                assert superseded.callbacks == []  # disarmed ...
                assert any(entry[3] is superseded  # ... but still queued
                           for entry in sim._queue)
            yield sim.timeout(0.25)

    sim.spawn(arrivals(sim))
    sim.run()
    assert len(set(map(id, armed))) == 4
    # Three arrivals superseded a timer; the four completions each came
    # from the timer armed at that moment.
    assert all(timer.processed for timer in armed)
    assert len(fired) == 4
    assert fired[0] is armed[-1]
    assert not cpu.active_tasks and cpu._timer is None


def test_idle_cpu_disarms_its_last_timer():
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=1)
    task = CpuTask("t", work=5.0)
    cpu.submit(task)
    timer = cpu._timer
    cpu.cancel(task)
    assert cpu._timer is None
    assert timer.callbacks == []
    sim.run()
    assert sim.now == 5.0  # the disarmed timer still fired, doing nothing
