"""Flight recorder: heartbeats, byte-identical export, shard merging."""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.scenarios import run_scenario
from repro.simulation.kernel import Simulation, SimulationError


# -- heartbeat behaviour on a live simulation --------------------------------

def burst(sim, counter, period, count):
    for _ in range(count):
        yield sim.timeout(period)
        counter.inc()


def test_heartbeat_samples_at_interval():
    sim = Simulation()
    jobs = sim.metrics.counter("jobs")
    driver = sim.spawn(burst(sim, jobs, 0.7, 10))
    recorder = FlightRecorder(sim, interval=1.0)
    recorder.start()
    sim.run_until_complete(driver)
    recorder.stop()
    # ~7 seconds of workload -> beats at t=1..7 plus the final sample
    # (10 * 0.7 accumulates to just past 7.0, so the t=7 beat fires).
    assert [entry.time for entry in recorder.entries] \
        == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, pytest.approx(7.0)]
    assert [entry.seq for entry in recorder.entries] == list(range(8))
    final = recorder.entries[-1]
    assert final.counters["jobs"][0] == 10.0
    # Per-beat deltas telescope back to the total.
    assert sum(e.counters["jobs"][1] for e in recorder.entries) == 10.0


def test_ring_is_bounded():
    sim = Simulation()
    jobs = sim.metrics.counter("jobs")
    driver = sim.spawn(burst(sim, jobs, 1.0, 50))
    recorder = FlightRecorder(sim, interval=1.0, capacity=8)
    recorder.start()
    sim.run_until_complete(driver)
    recorder.stop()
    assert len(recorder.entries) == 8
    assert recorder.samples_taken > 8
    # The ring keeps the *last* beats; cumulative totals survive drops.
    assert recorder.entries[-1].counters["jobs"][0] == 50.0


def test_recorder_is_a_pure_observer():
    for scenario in ("figure1", "table1", "table2"):
        plain = run_scenario(scenario, seed=42)
        recorded, _, recorder = run_scenario(scenario, seed=42,
                                             recorder_interval=1.0)
        assert recorder.entries
        assert recorded.now == plain.now
        assert recorded.metrics.to_json() == plain.metrics.to_json()


def test_flight_record_byte_identical_per_seed(tmp_path):
    paths = []
    for name in ("one.jsonl", "two.jsonl"):
        _, _, recorder = run_scenario("table2", seed=42,
                                      recorder_interval=1.0)
        path = tmp_path / name
        recorder.write(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for line in paths[0].read_text().splitlines():
        entry = json.loads(line)
        assert set(entry) == {"seq", "t", "events", "events_delta",
                              "queue_depth", "counters", "gauges",
                              "histograms", "rates"}


def test_start_twice_rejected():
    sim = Simulation()
    recorder = FlightRecorder(sim)
    recorder.start()
    with pytest.raises(SimulationError):
        recorder.start()


def test_parameter_validation():
    sim = Simulation()
    with pytest.raises(SimulationError):
        FlightRecorder(sim, interval=0.0)
    with pytest.raises(SimulationError):
        FlightRecorder(sim, capacity=0)


# -- shard merging -----------------------------------------------------------

class _Clock:
    """Stand-in sim for detached (include_kernel=False) recorders."""

    def __init__(self):
        self.now = 0.0


PARTITIONS = ("p0", "p1", "p2", "p3")


def observe(scope, beat, shard):
    """One beat of deterministic per-partition workload."""
    scope.counter("jobs.completed").inc(shard + 1)
    latency = scope.histogram("job.latency")
    for k in range(3):
        latency.observe(0.5 + beat + shard * 0.1 + k * 0.01)
    scope.gauge("load").set(beat * 10.0 + shard)
    scope.rate("arrivals", window=60.0).mark(float(beat))


def record_sharded(num_shards, beats=5):
    """Per-shard registries+recorders and the single-process reference."""
    shards = PARTITIONS[:num_shards]
    combined = MetricsRegistry()
    part_registries = [MetricsRegistry(partition=p) for p in shards]
    clock = _Clock()
    reference = FlightRecorder(clock, interval=1.0, registry=combined,
                               include_kernel=False)
    recorders = [FlightRecorder(clock, interval=1.0, registry=registry,
                                include_kernel=False)
                 for registry in part_registries]
    for beat in range(1, beats + 1):
        for shard, (partition, registry) in enumerate(
                zip(shards, part_registries)):
            observe(registry, beat, shard)
            observe(combined.scoped(partition), beat, shard)
        clock.now = float(beat)
        reference.sample()
        for recorder in recorders:
            recorder.sample()
    return recorders, reference


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_merged_flight_record_equals_single_process(num_shards):
    recorders, reference = record_sharded(num_shards)
    merged = FlightRecorder.merge(recorders)
    assert merged.to_jsonl() == reference.to_jsonl()


@pytest.mark.parametrize("num_shards", [2, 4])
def test_merge_is_fold_order_invariant(num_shards):
    recorders, reference = record_sharded(num_shards)
    forward = FlightRecorder.merge(recorders)
    backward = FlightRecorder.merge(list(reversed(recorders)))
    assert forward.to_jsonl() == backward.to_jsonl() == reference.to_jsonl()


def test_merge_with_idle_shard():
    # A shard that observed nothing still heartbeats; merging it in is
    # a no-op on every metric.
    recorders, reference = record_sharded(2)
    clock = _Clock()
    idle = FlightRecorder(clock, interval=1.0,
                          registry=MetricsRegistry(partition="idle"),
                          include_kernel=False)
    for beat in range(1, 6):
        clock.now = float(beat)
        idle.sample()
    merged = FlightRecorder.merge(recorders + [idle])
    assert merged.to_jsonl() == reference.to_jsonl()


def test_merge_rejects_misaligned_records():
    recorders, _ = record_sharded(2)
    short = record_sharded(1, beats=3)[0]
    with pytest.raises(SimulationError):
        FlightRecorder.merge([recorders[0], short[0]])
    with pytest.raises(SimulationError):
        FlightRecorder.merge([])


def test_merge_rejects_shifted_beats():
    recorders, _ = record_sharded(2)
    recorders[1].entries[2].time += 0.5
    with pytest.raises(SimulationError):
        FlightRecorder.merge(recorders)


def test_merged_histogram_quantiles_match_reference():
    recorders, reference = record_sharded(4)
    merged = FlightRecorder.merge(recorders)
    for partition in PARTITIONS:
        key = "job.latency[%s]" % partition
        ours = merged.last_histogram(key)
        theirs = reference.last_histogram(key)
        assert ours.state() == theirs.state()
        for q in (0.5, 0.95, 0.99):
            assert ours.quantile(q) == theirs.quantile(q)


# -- CLI ---------------------------------------------------------------------

def test_record_command_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "flight.jsonl"
    assert main(["record", "table2", "--seed", "42", "--interval", "2.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert first["seq"] == 0
    printed = capsys.readouterr().out
    assert str(out) in printed


def test_record_command_is_deterministic(tmp_path):
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    main(["record", "table2", "--seed", "42", "--out", str(one)])
    main(["record", "table2", "--seed", "42", "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_report_command_text(capsys):
    assert main(["report", "table2", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "Throughput" in out
    assert "Latency percentiles" in out
    assert "Utilization" in out
    assert "Per-partition" in out


def test_report_command_markdown(capsys):
    assert main(["report", "table2", "--seed", "42",
                 "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "| Metric |" in out
    assert "---" in out


def test_record_requires_target(capsys):
    assert main(["record"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no life-cycle scenario given")
    assert len(err.splitlines()) == 1
