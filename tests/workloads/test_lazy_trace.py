"""Lazy synthetic traces draw exactly what eager generation drew.

``HostLoadTrace.synthetic`` draws its samples from its own stream on
first use.  The reference below is the eager loop it replaced; every
prefix, and every derived quantity, must match it bit for bit.
"""

import math
import random

import pytest

from repro.workloads import HostLoadTrace

LENGTH = 120


def eager_values(mean, rng, length, autocorrelation=0.85, burstiness=0.6,
                 spike_probability=0.02):
    values = []
    state = 0.0
    sigma = math.sqrt(1.0 - autocorrelation ** 2)
    for _i in range(length):
        state = autocorrelation * state + sigma * rng.gauss(0.0, 1.0)
        level = mean * math.exp(burstiness * state
                                - 0.5 * burstiness ** 2)
        if rng.random() < spike_probability:
            level += mean * rng.uniform(1.0, 3.0)
        values.append(max(0.0, level))
    return values


def bits(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("mean", [0.2, 1.2])
def test_every_prefix_matches_eager_generation(mean):
    reference = eager_values(mean, random.Random(11), LENGTH)
    for k in range(LENGTH):
        trace = HostLoadTrace.synthetic(mean, random.Random(11), LENGTH)
        assert trace.load(k).hex() == reference[k].hex()
        assert bits(trace._samples[:trace._drawn]) == bits(reference[:k + 1])
    trace = HostLoadTrace.synthetic(mean, random.Random(11), LENGTH)
    assert bits(trace.values) == bits(reference)


def test_out_of_order_access_draws_in_index_order():
    reference = eager_values(1.2, random.Random(3), LENGTH)
    trace = HostLoadTrace.heavy(random.Random(3), length=LENGTH)
    for index in (57, 3, 119, 0, 58):
        assert trace.load(index).hex() == reference[index].hex()
    assert bits(trace.values) == bits(reference)


def test_derived_quantities_match_eager_trace():
    reference = HostLoadTrace(eager_values(0.2, random.Random(5), LENGTH),
                              interval=2.0, name="light")
    lazy = HostLoadTrace.light(random.Random(5), length=LENGTH,
                               interval=2.0)
    assert len(lazy) == len(reference) == LENGTH
    assert lazy.duration == reference.duration
    for time in (0.0, 1.5, 2.0, 77.3, 239.9, 240.0, 1000.25):
        assert lazy.value_at(time).hex() == reference.value_at(time).hex()
    assert lazy.mean.hex() == reference.mean.hex()
    assert repr(lazy) == repr(reference)


def test_playback_draws_only_what_it_plays():
    trace = HostLoadTrace.light(random.Random(1), length=10_000)
    assert len(trace) == 10_000
    trace.load(9)
    assert trace._drawn == 10


def test_empty_synthetic_trace():
    trace = HostLoadTrace.synthetic(1.0, random.Random(0), length=0)
    assert len(trace) == 0 and trace.values == [] and trace.mean == 0.0
    assert trace.value_at(3.0) == 0.0
