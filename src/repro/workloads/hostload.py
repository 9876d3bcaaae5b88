"""Host-load traces and Dinda-style trace playback.

Figure 1's background load is produced by "host load trace playback of
load traces collected on the Pittsburgh Supercomputing Center's Alpha
Cluster".  The real traces are not available, so :meth:`HostLoadTrace
.synthetic` generates AR(1) traces with lognormal-shaped marginals and
occasional spikes — matching the published character of the PSC traces
(bursty, autocorrelated, heavy-tailed) — and :class:`LoadPlayback`
recreates the load on a simulated machine the way Dinda's playback tool
does: each interval it spawns compute bursts totalling ``load x
interval`` CPU-seconds.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Iterator, List, Optional, Sequence

from repro.simulation.kernel import SimulationError
from repro.workloads.applications import KernelEventRates

__all__ = ["HostLoadTrace", "LoadPlayback"]

#: Kernel-event rates of a playback burst (it is a real spinning program).
_BURST_RATES = KernelEventRates(syscalls_per_sec=120.0,
                                pagefaults_per_sec=60.0)


class HostLoadTrace:
    """A sequence of load-average samples at a fixed interval.

    The samples live in a fixed-length array of doubles.  A synthetic
    trace fills it lazily: samples are drawn from the trace's own
    stream on first use, in index order — exactly the draws an eager
    generation would make — so a playback that covers part of a long
    trace never pays for the rest.  :attr:`values` (and :attr:`mean`)
    draw whatever is still missing.
    """

    def __init__(self, values: Sequence[float], interval: float = 1.0,
                 name: str = "trace"):
        if interval <= 0:
            raise SimulationError("trace interval must be positive")
        if any(v < 0 for v in values):
            raise SimulationError("load values must be non-negative")
        self._samples = array("d", values)
        #: ``_samples[:_drawn]`` are drawn; the rest are placeholders
        #: until ``_source`` (None once every sample is drawn) reaches
        #: them.
        self._drawn = len(self._samples)
        self._source: Optional[Iterator[float]] = None
        self.interval = float(interval)
        self.name = name

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def values(self) -> List[float]:
        """Every sample of the trace (draws any still missing)."""
        self._draw(len(self._samples))
        return self._samples.tolist()

    def load(self, index: int) -> float:
        """The sample at ``index`` (``0 <= index < len(self)``)."""
        if index >= self._drawn:
            self._draw(index + 1)
        return self._samples[index]

    def _draw(self, count: int) -> None:
        """Extend the drawn prefix to ``count`` samples."""
        samples = self._samples
        source = self._source
        for index in range(self._drawn, count):
            samples[index] = next(source)
        if count > self._drawn:
            self._drawn = count
            if count >= len(samples):
                self._source = None

    @property
    def duration(self) -> float:
        """Seconds of load the trace covers before repeating."""
        return len(self._samples) * self.interval

    @property
    def mean(self) -> float:
        """Average load over the trace."""
        values = self.values
        return sum(values) / len(values) if values else 0.0

    def value_at(self, time: float) -> float:
        """Load during the interval containing ``time`` (trace repeats)."""
        if not self._samples:
            return 0.0
        return self.load(int(time / self.interval) % len(self._samples))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def none(cls, length: int = 60, interval: float = 1.0) -> "HostLoadTrace":
        """An idle machine."""
        return cls([0.0] * length, interval, name="none")

    @classmethod
    def synthetic(cls, mean: float, rng: random.Random, length: int = 300,
                  interval: float = 1.0, autocorrelation: float = 0.85,
                  burstiness: float = 0.6, spike_probability: float = 0.02,
                  name: str = "synthetic") -> "HostLoadTrace":
        """An AR(1) trace with lognormal-shaped marginals and rare spikes.

        ``mean`` sets the long-run load average; ``autocorrelation`` the
        epoch-to-epoch persistence (PSC traces are strongly
        autocorrelated); ``burstiness`` the coefficient of variation.
        The trace owns ``rng`` from here on: samples are drawn from it
        lazily, so nothing else may draw from the same stream.
        """
        if mean < 0:
            raise SimulationError("mean load must be non-negative")
        if not 0 <= autocorrelation < 1:
            raise SimulationError("autocorrelation must be in [0, 1)")
        trace = cls([], interval, name=name)
        if length > 0:
            trace._samples = array("d", bytes(8 * length))
            trace._drawn = 0
            trace._source = _ar1_levels(mean, rng, autocorrelation,
                                        burstiness, spike_probability)
        return trace

    @classmethod
    def light(cls, rng: random.Random, length: int = 300,
              interval: float = 1.0) -> "HostLoadTrace":
        """A lightly loaded interactive host (mean load ~0.2)."""
        return cls.synthetic(0.2, rng, length, interval, name="light")

    @classmethod
    def heavy(cls, rng: random.Random, length: int = 300,
              interval: float = 1.0) -> "HostLoadTrace":
        """A busy compute server (mean load ~1.2, frequently >1)."""
        return cls.synthetic(1.2, rng, length, interval, name="heavy")

    def __repr__(self) -> str:
        return "<HostLoadTrace %s n=%d mean=%.2f>" % (self.name,
                                                      len(self._samples),
                                                      self.mean)


def _ar1_levels(mean: float, rng: random.Random, autocorrelation: float,
                burstiness: float,
                spike_probability: float) -> Iterator[float]:
    """The endless sample stream behind :meth:`HostLoadTrace.synthetic`."""
    state = 0.0
    sigma = math.sqrt(1.0 - autocorrelation ** 2)
    while True:
        state = autocorrelation * state + sigma * rng.gauss(0.0, 1.0)
        level = mean * math.exp(burstiness * state
                                - 0.5 * burstiness ** 2)
        if rng.random() < spike_probability:
            level += mean * rng.uniform(1.0, 3.0)
        yield max(0.0, level)


class _Burst:
    """One playback burst, alive from its spawn until its process-free
    run on the OS exits (see :meth:`OperatingSystem.start_compute`).

    It starts through :meth:`Simulation.call_soon`, at the queue
    position a spawned process would have started at.
    """

    __slots__ = ("os", "name", "work", "started", "is_alive")

    def __init__(self, os, name: str, work: float):
        self.os = os
        self.name = name
        self.work = work
        self.started = os.sim.now
        self.is_alive = True
        os.sim.call_soon(self._start)

    def _start(self, _event) -> None:
        if self.os.booted:
            self.os.start_compute(self.name, self.work, 0.0, _BURST_RATES,
                                  self._exit)
        else:
            self.is_alive = False  # the OS died before the burst began

    def _exit(self, _result) -> None:
        self.is_alive = False


class LoadPlayback:
    """Recreates a load trace on an operating system, Dinda-style.

    Every ``trace.interval`` seconds the playback spawns compute bursts
    totalling ``load x interval`` CPU-seconds: one full burst per whole
    unit of load plus one fractional burst, mirroring how a load average
    of 2.4 means "2.4 runnable processes".  Bursts run without a
    process each (they only wait on the CPU); the playback stops once
    its OS is no longer booted (a crashed VM cancels the bursts still
    in flight).

    ``os`` is any booted :class:`repro.guestos.kernel.OperatingSystem`
    (host or guest) — imported lazily to keep this package dependency-free.
    """

    def __init__(self, os, trace: HostLoadTrace):
        self.os = os
        self.trace = trace
        self.work_injected = 0.0
        self.work_dropped = 0.0
        self._burst_counter = 0
        self._alive: List[_Burst] = []

    def run(self, duration: float):
        """Process generator: play the trace for ``duration`` seconds."""
        sim = self.os.sim
        end = sim.now + duration
        position = 0
        trace = self.trace
        nvalues = len(trace)
        overdue_after = 1.05 * trace.interval
        while sim.now < end - 1e-9:
            if not self.os.booted:
                break
            load = trace.load(position % nvalues) if nvalues else 0.0
            position += 1
            interval = min(trace.interval, end - sim.now)
            total_work = load * interval
            if total_work > 0:
                # Like the real playback tool, recreate the *current*
                # load level rather than accumulating deficit: bursts
                # that have outlived a whole interval (the machine is
                # saturated) count against this interval's target, so a
                # saturated machine sees a steady queue, not unbounded
                # backlog.
                bursts = max(1, int(math.ceil(load)))
                # One pass filters dead bursts and counts overdue ones.
                now = sim.now
                alive = []
                overdue = 0
                for burst in self._alive:
                    if burst.is_alive:
                        alive.append(burst)
                        if now - burst.started > overdue_after:
                            overdue += 1
                self._alive = alive
                to_spawn = max(0, bursts - overdue)
                per_burst = total_work / bursts
                for _i in range(to_spawn):
                    self._burst_counter += 1
                    alive.append(_Burst(
                        self.os, "load-burst-%d" % self._burst_counter,
                        per_burst))
                self.work_injected += per_burst * to_spawn
                self.work_dropped += per_burst * (bursts - to_spawn)
            yield sim.timeout(interval)
        return self.work_injected
