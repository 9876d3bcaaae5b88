"""Load playback inside a VM across the VM's life cycle.

Playback bursts run without a process each (``OperatingSystem
.start_compute``), so they must follow their VM like any guest
computation: a crash takes them off the host CPU without taking the
world down, and a migration carries their remaining work to the new
host.
"""

import pytest

from repro.hardware.cpu import CpuTask
from repro.simulation import Simulation
from repro.vmm import migrate
from repro.workloads import HostLoadTrace, LoadPlayback
from tests.support import run, vm_rig
from tests.vmm.test_monitor_and_migration import migration_rig


def group_tasks(cpu, vm):
    return [t for t in cpu.active_tasks if t.group is vm.group]


def test_crash_cancels_bursts_and_stops_playback():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    playback = LoadPlayback(vm.guest_os,
                            HostLoadTrace([2.5] * 100, interval=1.0))
    player = sim.spawn(playback.run(100.0))
    sim.run(until=sim.now + 10.5)
    finished = len(vm.guest_os.results)
    assert finished > 0
    assert group_tasks(vmm.machine.cpu, vm)  # bursts in flight

    crashed_at = sim.now
    assert vmm.host_failure() == [vm]
    assert not group_tasks(vmm.machine.cpu, vm)
    sim.run()  # the crash no longer escapes from the event loop

    assert not player.is_alive
    assert sim.now < crashed_at + 1.5  # playback stopped at its next tick
    assert len(vm.guest_os.results) == finished
    assert not group_tasks(vmm.machine.cpu, vm)
    assert not vm._computations


def recording_submits(cpu, into):
    submit = cpu.submit

    def recorded(task: CpuTask):
        into.append(task)
        return submit(task)

    cpu.submit = recorded


def test_migration_carries_burst_work_to_the_new_host():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    source_tasks, dest_tasks = [], []
    recording_submits(vmm1.machine.cpu, source_tasks)
    recording_submits(vmm2.machine.cpu, dest_tasks)
    playback = LoadPlayback(vm.guest_os,
                            HostLoadTrace([1.5] * 40, interval=1.0))
    sim.spawn(playback.run(40.0))
    sim.run(until=sim.now + 5.5)
    assert group_tasks(vmm1.machine.cpu, vm)  # bursts in flight

    run(sim, migrate(vm, vmm2, stager, image2))
    sim.run()

    assert not group_tasks(vmm1.machine.cpu, vm)
    assert not group_tasks(vmm2.machine.cpu, vm)
    bursts = [r for r in vm.guest_os.results
              if r.name.startswith("load-burst-")]
    assert len(bursts) == playback._burst_counter
    # Every burst's observed CPU demand was served exactly once, split
    # across the tasks it ran as on either host.
    served = {}
    for task in source_tasks + dest_tasks:
        name = task.name.split("@")[0]
        if name.startswith("load-burst-"):
            served[name] = served.get(name, 0.0) \
                + task.work - task.remaining
    for result in bursts:
        assert served[result.name] == pytest.approx(result.cpu_time,
                                                    rel=1e-9, abs=1e-9)
    source_names = {t.name.split("@")[0] for t in source_tasks}
    moved = [t for t in dest_tasks if t.name.split("@")[0] in source_names]
    assert moved, "no burst was in flight across the migration"
