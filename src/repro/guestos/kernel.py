"""The operating system: mounts, processes, accounting and boot.

One :class:`OperatingSystem` instance serves as either a host OS (on a
:class:`~repro.guestos.interface.PhysicalHost`) or a guest OS (on a
:class:`repro.vmm.virtual_machine.VirtualMachine`) — the machine
interface hides the difference, which is the whole point of classic
virtual machines.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.guestos.interface import MachineInterface
from repro.guestos.profile import GuestOsProfile
from repro.simulation.kernel import SimulationError
from repro.storage.base import FileSystem, StorageError, block_span
from repro.workloads.applications import (
    Application,
    ComputePhase,
    IoPhase,
    KernelEventRates,
)

__all__ = ["OperatingSystem", "ProcessResult"]

#: The file standing in for everything a cold boot reads (kernel, /etc,
#: shared libraries, daemon binaries).
_BOOT_FILE = "/boot/system"


class ProcessResult:
    """Accounting for one completed process, as ``time(1)`` would report.

    ``guest_user`` is the identity *inside* this OS — for a VM guest it
    is "completely decoupled from the identities of its VM host"
    (Section 3.1), so it may freely be ``root``.
    """

    __slots__ = ("name", "user_time", "sys_time", "started_at",
                 "finished_at", "io_bytes", "guest_user")

    def __init__(self, name: str, user_time: float, sys_time: float,
                 started_at: float, finished_at: float, io_bytes: int,
                 guest_user: str = "root"):
        self.name = name
        self.user_time = user_time
        self.sys_time = sys_time
        self.started_at = started_at
        self.finished_at = finished_at
        self.io_bytes = io_bytes
        self.guest_user = guest_user

    @property
    def cpu_time(self) -> float:
        """user + sys, the quantity Table 1 reports."""
        return self.user_time + self.sys_time

    @property
    def wall_time(self) -> float:
        """Elapsed real time."""
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        return ("<ProcessResult %s user=%.1fs sys=%.1fs wall=%.1fs>"
                % (self.name, self.user_time, self.sys_time, self.wall_time))


class OperatingSystem:
    """Mount table + process execution + boot sequence."""

    def __init__(self, iface: MachineInterface, name: str = "linux",
                 profile: Optional[GuestOsProfile] = None,
                 rng: Optional[random.Random] = None):
        self.sim = iface.sim
        self.iface = iface
        self.name = name
        self.profile = profile or GuestOsProfile()
        self.rng = rng if rng is not None \
            else self.sim.streams.stream("os/" + iface.name)
        self._mounts: Dict[str, FileSystem] = {}
        self.booted = False
        self.boot_duration: Optional[float] = None
        self.results: List[ProcessResult] = []  # simlint: disable=R23  per-VM instance holds its own guest results; size follows the VM's jobs, freed with the VM

    # -- mount table ----------------------------------------------------------

    def mount(self, point: str, fs: FileSystem) -> None:
        """Attach a file system at ``point`` (longest-prefix resolution)."""
        if not point.startswith("/"):
            raise SimulationError("mount point must be absolute")
        if point in self._mounts:
            raise SimulationError("%s is already mounted" % point)
        self._mounts[point] = fs

    def unmount(self, point: str) -> None:
        """Detach a mounted file system."""
        if point not in self._mounts:
            raise SimulationError("%s is not mounted" % point)
        del self._mounts[point]

    @property
    def mounts(self) -> Dict[str, FileSystem]:
        """Snapshot of the mount table."""
        return dict(self._mounts)

    def resolve(self, path: str) -> Tuple[FileSystem, str]:
        """Find the file system serving ``path``."""
        best = ""
        for point in self._mounts:
            if path == point or path.startswith(point.rstrip("/") + "/") \
                    or point == "/":
                if len(point) > len(best):
                    best = point
        if not best:
            raise StorageError("no file system mounted for %s" % path)
        return self._mounts[best], path

    def provision_file(self, path: str, size: int) -> None:
        """Create a file's metadata (used to stock images and inputs)."""
        fs, name = self.resolve(path)
        fs.create(name, size)

    # -- boot / shutdown --------------------------------------------------------

    def install(self) -> None:
        """Lay down the OS's own files (run once when an image is built)."""
        fs, name = self.resolve(_BOOT_FILE)
        fs.create(name, self.profile.boot_footprint_bytes)

    def boot(self):
        """Process generator: cold boot (kernel load + init scripts).

        The init-script phase issues thousands of small scattered reads —
        on a cold disk image this dominates; on a warm one (e.g. just
        copied through the host's buffer cache) it is much cheaper.
        """
        if self.booted:
            raise SimulationError("%s is already booted" % self.name)
        profile = self.profile
        start = self.sim.now
        fs, name = self.resolve(_BOOT_FILE)
        jitter = 1.0 + self.rng.uniform(-profile.boot_jitter,
                                        profile.boot_jitter)

        # Phase 1: kernel + initrd, one big sequential read.
        yield from fs.read(name, 0, profile.kernel_read_bytes,
                           sequential=True)
        # Phase 2: init scripts - scattered small reads and script CPU,
        # interleaved (batched into groups to bound event counts).
        footprint = profile.boot_footprint_bytes
        reads = int(profile.scattered_reads * jitter)
        read_size = profile.scattered_read_bytes
        groups = 40
        rates = KernelEventRates(syscalls_per_sec=2500.0,
                                 pagefaults_per_sec=500.0)
        per_group_user = profile.boot_cpu_user * jitter / groups
        per_group_sys = profile.boot_cpu_sys * jitter / groups
        per_group_reads = range(max(1, reads // groups))
        offsets = max(1, footprint - read_size)
        randrange = self.rng.randrange
        read = fs.read
        run_compute = self.iface.run_compute
        for _group in range(groups):
            for _i in per_group_reads:
                yield from read(name, randrange(0, offsets), read_size,
                                sequential=False)
            yield from run_compute("init", per_group_user, per_group_sys,
                                   rates)
        self.booted = True
        self.boot_duration = self.sim.now - start
        return self.boot_duration

    def mark_booted(self) -> None:
        """Declare the OS running without a boot (restored from memory)."""
        self.booted = True

    def resume(self):
        """Process generator: wake from a restored memory image."""
        yield from self.iface.run_compute(
            "resume", self.profile.resume_cpu * 0.3,
            self.profile.resume_cpu * 0.7,
            KernelEventRates(syscalls_per_sec=1000.0))
        self.booted = True

    def shutdown(self):
        """Process generator: orderly shutdown."""
        if not self.booted:
            raise SimulationError("%s is not booted" % self.name)
        yield from self.iface.run_compute(
            "shutdown", self.profile.shutdown_cpu * 0.3,
            self.profile.shutdown_cpu * 0.7,
            KernelEventRates(syscalls_per_sec=1500.0))
        self.booted = False

    # -- process execution ---------------------------------------------------------

    def run_application(self, app: Application,
                        pname: Optional[str] = None,
                        provision_inputs: bool = True,
                        guest_user: str = "root"):
        """Process generator: run an application to completion.

        Returns a :class:`ProcessResult` with user/sys/wall accounting —
        the numbers Table 1 and Figure 1 are made of.  ``guest_user``
        is the in-guest identity; on a dedicated VM even untrusted code
        may run as root (Section 2.2, administrator privileges).
        """
        if not self.booted:
            raise SimulationError("%s is not booted" % self.name)
        pname = pname or app.name
        if provision_inputs:
            for path, size in app.input_files.items():
                fs, name = self.resolve(path)
                if not fs.exists(name):
                    fs.create(name, size)
        started = self.sim.now
        user_time = 0.0
        sys_time = 0.0
        io_bytes = 0
        for phase in app.phases:
            if isinstance(phase, ComputePhase):
                user, sys = yield from self.iface.run_compute(
                    pname, phase.user_seconds, phase.sys_seconds,
                    phase.rates)
                user_time += user
                sys_time += sys
            elif isinstance(phase, IoPhase):
                fs, name = self.resolve(phase.path)
                if phase.write:
                    yield from fs.write(name, phase.offset, phase.nbytes,
                                        sequential=phase.sequential)
                else:
                    if not fs.exists(name):
                        fs.create(name, phase.offset + phase.nbytes)
                    yield from fs.read(name, phase.offset, phase.nbytes,
                                       sequential=phase.sequential)
                operations = len(block_span(phase.offset, phase.nbytes,
                                            fs.block_size)) or 1
                native_sys = self.iface.io_sys_seconds(phase.nbytes,
                                                       operations)
                _user, sys = yield from self.iface.run_compute(
                    pname, 0.0, native_sys,
                    KernelEventRates(syscalls_per_sec=0.0))
                sys_time += sys
                io_bytes += phase.nbytes
            else:
                raise SimulationError("unknown phase type %r" % (phase,))
        result = ProcessResult(pname, user_time, sys_time, started,
                               self.sim.now, io_bytes,
                               guest_user=guest_user)
        self.results.append(result)
        return result

    def start_compute(self, pname: str, user_seconds: float,
                      sys_seconds: float, rates: KernelEventRates,
                      on_exit: Callable[[ProcessResult], None]) -> None:
        """Run a compute-only program without a process.

        The callback form of :meth:`run_application` for one
        :class:`ComputePhase` (host-load playback bursts): the demand
        goes through :meth:`MachineInterface.start_compute`, and the
        same :class:`ProcessResult` is appended to :attr:`results` —
        then handed to ``on_exit`` — at the instant the process would
        have returned it.
        """
        if not self.booted:
            raise SimulationError("%s is not booted" % self.name)
        started = self.sim.now

        def finished(user: float, sys: float) -> None:
            # ``x or 0.0`` is bit for bit the ``0.0 + x`` that
            # run_application accumulates, without a new float per burst.
            result = ProcessResult(pname, user or 0.0, sys or 0.0, started,
                                   self.sim.now, 0)
            self.results.append(result)
            on_exit(result)

        self.iface.start_compute(pname, user_seconds, sys_seconds, rates,
                                 finished)

    def __repr__(self) -> str:
        state = "booted" if self.booted else "down"
        return "<OperatingSystem %s on %s (%s)>" % (self.name,
                                                    self.iface.name, state)
