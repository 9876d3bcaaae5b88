"""Measurement probes: time series and summary statistics.

Two collectors are provided:

* :class:`StatAccumulator` — streaming mean / variance / min / max over a
  set of scalar samples (Welford's algorithm, numerically stable);
* :class:`TimeSeriesMonitor` — timestamped samples with time-weighted
  averaging, used for utilization and queue-length traces that feed the
  RPS-style predictors in :mod:`repro.prediction`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["StatAccumulator", "TimeSeriesMonitor", "set_merge_audit"]

#: Optional audit hook ``(target, part) -> None`` consulted at the top
#: of every :meth:`StatAccumulator.merge`.  Installed by the runtime
#: determinism sanitizer (simsan) to check canonical fold order; None
#: (the default) costs one module-global load per merge.  One slot: a
#: second installer replaces the first.
#: Deliberately process-global: simsan instruments the whole process,
#: and the hook only *observes* merges (it never feeds a statistic), so
#: it cannot couple shards.
_merge_audit: Optional[Callable] = None  # simlint: disable=R15  observer hook; never feeds model state


def set_merge_audit(hook: Optional[Callable]) -> None:
    """Install (or with None, remove) the accumulator merge audit hook."""
    global _merge_audit
    _merge_audit = hook


class StatAccumulator:
    """Streaming summary statistics over scalar samples."""

    __slots__ = ("name", "count", "_mean", "_m2", "minimum", "maximum",
                 "_seq")

    #: Process-wide creation counter; ``_seq`` gives every accumulator a
    #: stable creation rank so the merge audit can verify that parts are
    #: folded in the order they were created (the replication runner's
    #: canonical task order).  Never feeds into any statistic.
    #: Ranks are audit metadata only (and cross process boundaries as
    #: None, see ``__getstate__``), so sharing the counter process-wide
    #: cannot couple shards.
    _creation_counter = itertools.count()  # simlint: disable=R15  audit-only rank source; never feeds a statistic

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._seq: Optional[int] = next(StatAccumulator._creation_counter)

    def __getstate__(self):
        # ``_seq`` ranks creations within ONE process; a pickled copy
        # (a pool worker's part coming home) carries no comparable rank,
        # so it crosses the boundary as None and the merge audit skips
        # it rather than comparing apples to oranges.
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot != "_seq"}

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._seq = None

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def extend(self, values: Sequence[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    def merge(self, other: "StatAccumulator") -> "StatAccumulator":
        """Fold another accumulator's samples into this one, in place.

        Uses the parallel-variance combination (Chan et al.), so the
        result is exactly what a single accumulator over both sample
        sets would hold — this is how per-layer metrics collected by
        independent components are combined into one summary.  Returns
        ``self`` for chaining.
        """
        if _merge_audit is not None:
            _merge_audit(self, other)
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 \
            + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        if other.minimum is not None and other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum is not None and other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def summary(self) -> dict:
        """A plain-dict snapshot, convenient for table printing."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return ("<StatAccumulator %s n=%d mean=%.4g std=%.4g>"
                % (self.name, self.count, self.mean, self.stdev))


class TimeSeriesMonitor:
    """Timestamped scalar samples with time-weighted aggregation.

    Samples represent the value of a quantity *from* the sample time until
    the next sample (a right-continuous step function), which is the
    natural shape for utilizations, levels and queue lengths.

    By default every sample is retained.  Passing ``window`` (simulated
    seconds) and/or ``max_samples`` bounds memory: old samples are
    evicted as new ones arrive, but their time-weighted integral is
    carried forward, so :meth:`time_average` over the full series stays
    *exact* across evictions — only point queries (:meth:`value_at`,
    :meth:`samples_between`) lose access to the evicted region.  The
    sample governing the start of the retention window is always kept,
    so window queries ``time_average(now - window, now)`` remain exact
    too.  Passing ``window=None`` explicitly declares an intentionally
    unbounded series (simlint rule R20 flags constructions that make no
    choice at all in model code).
    """

    __slots__ = ("name", "times", "values", "window", "max_samples",
                 "_dropped_integral", "_dropped_count", "_origin_time")

    def __init__(self, name: str = "", window: Optional[float] = None,
                 max_samples: Optional[int] = None):
        if window is not None and window <= 0:
            raise ValueError("window must be positive (or None)")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1 (or None)")
        self.name = name
        self.window = window
        self.max_samples = max_samples
        self.times: List[float] = []
        self.values: List[float] = []
        #: Time-weighted integral of the evicted prefix, covering
        #: [origin_time, times[0]].  Accumulated one segment at a time
        #: in time order — the same float-addition chain a full
        #: in-order sweep would perform — so full-range averages are
        #: bit-identical to the unbounded series.
        self._dropped_integral = 0.0
        self._dropped_count = 0
        self._origin_time: Optional[float] = None

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        times = self.times
        if times and time < times[-1]:
            raise ValueError("samples must be recorded in time order")
        time = float(time)
        if self._origin_time is None:
            self._origin_time = time
        times.append(time)
        self.values.append(float(value))
        # A window-only policy evicts nothing until the second sample
        # has fallen out of the window.
        if self.max_samples is not None or (
                self.window is not None and len(times) > 1
                and times[1] <= time - self.window):
            self._trim()

    def record_latest(self, time: float, value: float) -> None:
        """Record a sample, keeping one sample per instant.

        A sample at the same instant as the last one replaces it
        instead of appending.  Every query of the step function is
        unchanged by this — :meth:`time_average` skips zero-width
        segments (full range, windowed, and across evictions) and
        :meth:`value_at`/:attr:`last_value` already return the last
        sample at an instant — while the series stops growing with
        same-instant bursts of changes.
        """
        times = self.times
        if times and time <= times[-1]:
            if time < times[-1]:
                raise ValueError("samples must be recorded in time order")
            self.values[-1] = float(value)
        else:
            self.record(time, value)

    def _trim(self) -> None:
        """Evict the prefix outside the retention policy, keeping the
        boundary sample that governs the window start."""
        times = self.times
        values = self.values
        n = len(times)
        k = 0
        if self.window is not None:
            horizon = times[-1] - self.window
            while k + 1 < n and times[k + 1] <= horizon:
                self._dropped_integral += values[k] * (times[k + 1]
                                                       - times[k])
                k += 1
        if self.max_samples is not None:
            while n - k > self.max_samples:
                self._dropped_integral += values[k] * (times[k + 1]
                                                       - times[k])
                k += 1
        if k:
            del times[:k]
            del values[:k]
            self._dropped_count += k

    def __len__(self) -> int:
        return len(self.times)

    @property
    def total_count(self) -> int:
        """Samples ever recorded, including evicted ones."""
        return len(self.times) + self._dropped_count

    @property
    def dropped_count(self) -> int:
        """Samples evicted under the retention policy."""
        return self._dropped_count

    @property
    def origin_time(self) -> Optional[float]:
        """Time of the first sample ever recorded (survives eviction)."""
        return self._origin_time

    @property
    def last_value(self) -> Optional[float]:
        """Most recent sample value, or None when empty."""
        return self.values[-1] if self.values else None

    def value_at(self, time: float) -> Optional[float]:
        """The step-function value at ``time`` (None before first sample)."""
        if not self.times or time < self.times[0]:
            return None
        # Binary search for rightmost sample with times[i] <= time.
        lo, hi = 0, len(self.times)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.times[mid] <= time:
                lo = mid + 1
            else:
                hi = mid
        return self.values[lo - 1]

    def time_average(self, start: Optional[float] = None,
                     end: Optional[float] = None) -> float:
        """Time-weighted mean of the step function over [start, end].

        Exact even after window evictions, as long as the queried range
        does not *begin inside* the evicted region: full-range averages
        (``start=None`` or ``start <= origin_time``) use the carried
        integral of the evicted prefix, and window queries starting at
        or after the retained boundary sample use the live samples.  A
        start strictly inside the evicted region raises ``ValueError``
        rather than silently approximating.
        """
        if len(self.times) == 0:
            return 0.0
        if start is None:
            start = self._origin_time
        if end is None:
            end = self.times[-1]
        if end <= start:
            return self.value_at(start) or 0.0
        total = 0.0
        if self._dropped_count:
            if start <= self._origin_time:
                if end <= self.times[0]:
                    raise ValueError(
                        "%s: [%g, %g] ends inside the evicted region"
                        % (self.name or "monitor", start, end))
                total = self._dropped_integral
            elif start < self.times[0]:
                raise ValueError(
                    "%s: start %g falls inside the evicted region "
                    "(retained history begins at %g)"
                    % (self.name or "monitor", start, self.times[0]))
        for i, t in enumerate(self.times):
            seg_start = max(t, start)
            seg_end = self.times[i + 1] if i + 1 < len(self.times) else end
            seg_end = min(seg_end, end)
            if seg_end > seg_start:
                total += self.values[i] * (seg_end - seg_start)
        return total / (end - start)

    def samples_between(self, start: float,
                        end: float) -> List[Tuple[float, float]]:
        """The retained (time, value) samples falling inside [start, end]."""
        return [(t, v) for t, v in zip(self.times, self.values)
                if start <= t <= end]

    def merge(self, other: "TimeSeriesMonitor") -> "TimeSeriesMonitor":
        """Append another monitor's later samples onto this one, in place.

        Time series partition by *time*, not by sample set: a shard
        handing back its span of a series must start at or after this
        one's last sample, mirroring the ``record`` ordering rule.
        Overlapping series raise rather than interleave silently.

        A part that has itself already evicted samples can only be
        merged into an *empty* monitor (its carried integral is only
        meaningful from its own origin), in which case the full
        retention state transfers.  Merging into a windowed monitor
        re-applies the retention policy afterwards.  Returns ``self``
        for chaining.
        """
        if _merge_audit is not None:
            _merge_audit(self, other)
        if other._dropped_count:
            if self.times or self._dropped_count:
                raise ValueError(
                    "cannot merge %s, which has already evicted samples, "
                    "into a non-empty monitor" % (other.name or "part"))
            self._origin_time = other._origin_time
            self._dropped_integral = other._dropped_integral
            self._dropped_count = other._dropped_count
            self.times.extend(other.times)
            self.values.extend(other.values)
        elif other.times:
            if self.times and other.times[0] < self.times[-1]:
                raise ValueError(
                    "cannot merge overlapping time series: %s restarts "
                    "at %g before %g" % (other.name or "part",
                                         other.times[0], self.times[-1]))
            if self._origin_time is None:
                self._origin_time = other._origin_time
            self.times.extend(other.times)
            self.values.extend(other.values)
        if self.times and (self.window is not None
                           or self.max_samples is not None):
            self._trim()
        return self

    def __repr__(self) -> str:
        return "<TimeSeriesMonitor %s n=%d>" % (self.name, len(self.times))
