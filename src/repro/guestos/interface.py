"""The machine interface an operating system runs against.

An :class:`~repro.guestos.kernel.OperatingSystem` is machine-agnostic:
it executes applications against this interface.  On a physical machine
(:class:`PhysicalHost`) compute runs natively and kernel-event rates are
free.  Inside a virtual machine (:class:`repro.vmm.virtual_machine
.VirtualMachine` implements the same interface) the very same workload
pays trap-and-emulate dilation — that difference *is* the paper's
Figure 1 / Table 1 measurement.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.guestos.costs import OsCosts
from repro.hardware.cpu import CpuTask
from repro.hardware.machine import PhysicalMachine
from repro.simulation.kernel import Simulation
from repro.storage.base import FileSystem
from repro.storage.localfs import LocalFileSystem
from repro.workloads.applications import KernelEventRates

__all__ = ["MachineInterface", "PhysicalHost"]


class MachineInterface:
    """What an OS needs from the machine below it."""

    sim: Simulation
    name: str
    costs: OsCosts

    @property
    def root_fs(self) -> FileSystem:
        """The file system holding the OS's own files."""
        raise NotImplementedError

    def run_compute(self, pname: str, user_seconds: float,
                    sys_seconds: float, rates: KernelEventRates):
        """Process generator: execute CPU demand.

        Returns the *observed* ``(user, sys)`` CPU seconds — equal to the
        demand on physical hardware, dilated inside a VM.
        """
        raise NotImplementedError

    def start_compute(self, pname: str, user_seconds: float,
                      sys_seconds: float, rates: KernelEventRates,
                      on_done: Callable[[float, float], None]) -> None:
        """Start CPU demand without a process.

        The callback form of :meth:`run_compute`: the same demand, the
        same CPU membership changes at the same instants, but
        ``on_done(user, sys)`` receives the observed CPU seconds where
        the generator would have returned them.
        """
        raise NotImplementedError

    def io_sys_seconds(self, nbytes: int, operations: int) -> float:
        """Native kernel CPU cost of an I/O request stream."""
        raise NotImplementedError

    @property
    def is_virtual(self) -> bool:
        """True for virtual machines."""
        return False


class PhysicalHost(MachineInterface):
    """A physical machine wearing the OS-facing interface.

    ``run_compute`` submits work straight to the host CPU; kernel events
    cost nothing beyond the native user/sys split already in the demand.
    """

    def __init__(self, machine: PhysicalMachine,
                 root_fs: Optional[LocalFileSystem] = None,
                 costs: Optional[OsCosts] = None,
                 cache_bytes: float = 256 * 1024 * 1024):
        self.sim = machine.sim
        self.machine = machine
        self.name = machine.name
        self.costs = costs or OsCosts()
        self._root_fs = root_fs or LocalFileSystem(
            machine.sim, machine.disk, cache_bytes=cache_bytes,
            name=machine.name + ".rootfs")
        machine.host_os = self

    @property
    def root_fs(self) -> LocalFileSystem:
        return self._root_fs

    def run_compute(self, pname: str, user_seconds: float,
                    sys_seconds: float, rates: KernelEventRates):
        demand = user_seconds + sys_seconds
        if demand > 0:
            task = CpuTask("%s@%s" % (pname, self.name), work=demand)
            yield self.machine.cpu.submit(task)
        return (user_seconds, sys_seconds)

    def start_compute(self, pname: str, user_seconds: float,
                      sys_seconds: float, rates: KernelEventRates,
                      on_done: Callable[[float, float], None]) -> None:
        """Submit the demand to the host CPU; ``on_done`` at completion."""
        if user_seconds + sys_seconds > 0:
            task = CpuTask("%s@%s" % (pname, self.name),
                           work=user_seconds + sys_seconds)
            self.machine.cpu.submit(task).callbacks.append(
                lambda _event: on_done(user_seconds, sys_seconds))
        else:
            on_done(user_seconds, sys_seconds)

    def io_sys_seconds(self, nbytes: int, operations: int) -> float:
        return self.costs.io_sys_seconds(nbytes, operations)

    def __repr__(self) -> str:
        return "<PhysicalHost %s>" % self.name
