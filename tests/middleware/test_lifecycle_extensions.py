"""Tests for hibernate / tape-archive / revive and the CLI plumbing."""

import pytest

from repro.middleware import TapeArchive
from repro.scenarios import SCENARIOS
from repro.simulation import SimulationError
from repro.vmm import VmState
from repro.workloads import Application, IoPhase, synthetic_compute
from tests.support import demo_grid, tiny_session_config


def established_session():
    grid = demo_grid()
    session = grid.new_session(tiny_session_config())
    grid.run(session.establish())
    return grid, session


# ---------------------------------------------------------------------------
# Hibernate / wake
# ---------------------------------------------------------------------------

def test_hibernate_writes_memstate_and_pauses():
    grid, session = established_session()
    job = grid.sim.spawn(session.run_application(synthetic_compute(30.0)))
    grid.sim.run(until=grid.sim.now + 5.0)

    filename = grid.run(session.hibernate())
    assert session.vm.state is VmState.SUSPENDED
    host_fs = session.vmm.host.root_fs
    assert host_fs.size(filename) == session.vm.config.memory_bytes

    paused_at = grid.sim.now
    grid.sim.run(until=paused_at + 100.0)
    assert job.is_alive  # no progress while hibernated

    grid.run(session.wake())
    assert session.vm.state is VmState.RUNNING
    grid.sim.run()
    assert not job.is_alive


def test_hibernate_without_vm_rejected():
    grid = demo_grid()
    session = grid.new_session(tiny_session_config())
    with pytest.raises(SimulationError):
        grid.run(session.hibernate())


# ---------------------------------------------------------------------------
# Archive / revive (the end of the life cycle)
# ---------------------------------------------------------------------------

def test_archive_requires_hibernation():
    grid, session = established_session()
    tape = TapeArchive(grid.sim, mount_time=1.0)
    with pytest.raises(SimulationError):
        grid.run(session.archive_to(tape))


def test_archive_and_revive_roundtrip():
    grid, session = established_session()
    # Dirty the disk so there is a diff to archive.
    writer = Application("w", [IoPhase("/scratch/tmp", 8 * 1024 * 1024,
                                       write=True)])
    grid.run(session.run_application(writer))
    grid.run(session.hibernate())

    tape = TapeArchive(grid.sim, mount_time=2.0)
    volume = grid.run(session.archive_to(tape))
    assert volume.total_bytes >= session.vm.config.memory_bytes
    # Online state reclaimed.
    host_fs = session.vmm.host.root_fs
    assert not host_fs.exists(session.vm.name + ".memstate")
    assert tape.volumes == [session.vm.name]

    grid.run(session.revive_from(tape))
    assert session.vm.state is VmState.RUNNING
    assert tape.volumes == []  # life-cycle record removed after revival
    # The VM still computes correctly after the round trip.
    result = grid.run(session.run_application(synthetic_compute(3.0)))
    assert result.user_time > 3.0


def test_archive_includes_diff_file():
    grid, session = established_session()
    writer = Application("w", [IoPhase("/scratch/tmp", 4 * 1024 * 1024,
                                       write=True)])
    grid.run(session.run_application(writer))
    grid.run(session.hibernate())
    tape = TapeArchive(grid.sim, mount_time=0.0)
    volume = grid.run(session.archive_to(tape))
    assert any(name.endswith(".diff") for name in volume.files)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [*SCENARIOS, "all"])
def test_cli_parser_accepts_all_commands(command):
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args([command])
    assert args.command == command
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])


def test_cli_table2_runs(capsys):
    from repro.cli import main

    assert main(["table2", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "nonpersistent-diskfs" in out


def test_cli_figure1_runs(capsys):
    from repro.cli import main

    assert main(["figure1", "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_cli_table1_scaled_runs(capsys):
    from repro.cli import main

    assert main(["table1", "--scale", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "SPECseis" in out and "SPECclimate" in out


def test_cli_overlay_runs(capsys):
    from repro.cli import main

    assert main(["overlay"]) == 0
    out = capsys.readouterr().out
    assert "O1" in out and "Improved" in out


def test_cli_migration_runs(capsys):
    from repro.cli import main

    assert main(["migration"]) == 0
    out = capsys.readouterr().out
    assert "downtime" in out and "compute2" in out
