"""A finished guest computation leaves nothing on the VM's rebind event.

Every guest computation waits on ``any_of(task.done, vm._rebind_event)``.
The rebind event lives until the next migration, so a finished wait must
take its callback back off it; otherwise a long-running VM accumulates
one dead callback per computation.
"""

from repro.simulation import Simulation
from repro.vmm import migrate
from repro.workloads import HostLoadTrace, LoadPlayback, synthetic_compute
from tests.support import run, vm_rig
from tests.vmm.test_monitor_and_migration import migration_rig


def test_guest_computations_unregister_from_rebind_event():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    assert vm._rebind_event.callbacks == []
    for _i in range(25):
        run(sim, vm.guest_os.run_application(synthetic_compute(0.2)))
        assert vm._rebind_event.callbacks == []


def test_playback_bursts_unregister_from_rebind_event():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    playback = LoadPlayback(vm.guest_os,
                            HostLoadTrace([1.5] * 30, interval=1.0))
    run(sim, playback.run(30.0))
    sim.run()
    assert len(vm.guest_os.results) >= 30
    assert vm._rebind_event.callbacks == []


def test_migration_still_moves_an_in_flight_computation():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    for _i in range(5):
        run(sim, vm.guest_os.run_application(synthetic_compute(0.2)))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(20.0)))
    sim.run(until=sim.now + 5.0)
    # Only the in-flight computation waits on the rebind event.
    assert len(vm._rebind_event.callbacks) == 1

    run(sim, migrate(vm, vmm2, stager, image2))
    sim.run(until=sim.now + 1.0)  # the computation wakes and hops CPUs
    moved = [t for t in vmm2.machine.cpu.active_tasks
             if t.group is vm.group]
    assert len(moved) == 1
    assert 14.0 < moved[0].work < 15.5  # the remaining work, not all 20 s
    result = sim.run_until_complete(proc)
    assert result.user_time > 20.0 * 0.99
    assert not [t for t in vmm1.machine.cpu.active_tasks
                if t.group is vm.group]
    assert vm._rebind_event.callbacks == []
