"""The simulated testbed shared by the paper's experiments.

Section 2.3's hardware: dual Pentium III class nodes with 512 MB - 1 GB
of memory, a commodity IDE disk (~17 MB/s effective with file-system
overheads), 100 Mb/s switched Ethernet on the LAN, and a ~2.5 MB/s
usable wide-area path between the University of Florida and
Northwestern.  The VM is VMware Workstation 3.0a-like: 128 MB of guest
memory and a 2 GB virtual disk with a Red Hat 7.x guest.
"""

from __future__ import annotations

from repro.guestos.profile import GuestOsProfile
from repro.hardware.machine import MachineSpec
from repro.vmm.costs import VmmCosts
from repro.vmm.virtual_machine import VmConfig

__all__ = [
    "GB",
    "MB",
    "IMAGE_BYTES",
    "GUEST_MEMORY_MB",
    "REDUCED_GUEST",
    "compute_node_spec",
    "guest_profile",
    "vm_config",
    "vmm_costs",
]

MB = 1024 ** 2
GB = 1024 ** 3

#: The 2 GB virtual disk of the paper's Table 2 experiment.
IMAGE_BYTES = 2 * GB
#: The 128 MB guest of both experiments.
GUEST_MEMORY_MB = 128

#: A reduced boot profile with the full profile's shape and small
#: constants: the single-session life-cycle worlds of ``repro trace``
#: and friends finish in well under a second, and a multi-site fleet
#: stays quick at any scale.
REDUCED_GUEST = GuestOsProfile(
    kernel_read_bytes=2 * MB,
    scattered_reads=40,
    scattered_read_bytes=32 * 1024,
    boot_cpu_user=0.5,
    boot_cpu_sys=0.5,
    boot_jitter=0.0,
    boot_footprint_bytes=64 * MB,
)


def compute_node_spec(memory_mb: int = 1024) -> MachineSpec:
    """A dual Pentium III compute node."""
    return MachineSpec(
        cores=2,
        cpu_speed=1.0,
        memory_mb=memory_mb,
        disk_seek_time=0.004,
        disk_transfer_rate=17e6,
        nic_bandwidth=12.5e6,
    )


def guest_profile() -> GuestOsProfile:
    """The Red Hat 7.x guest boot profile (defaults are calibrated)."""
    return GuestOsProfile()


def vm_config(name: str = "vm") -> VmConfig:
    """A VMware Workstation 3.0a-like VM: 128 MB, one vCPU."""
    return VmConfig(name, memory_mb=GUEST_MEMORY_MB,
                    guest_profile=guest_profile())


def vmm_costs() -> VmmCosts:
    """The calibrated trap-and-emulate cost model."""
    return VmmCosts()
