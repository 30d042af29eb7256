"""The speed sampler: its time stays out of the clock, and its timer is undone."""

import signal
from time import perf_counter

import run
import workloads


def test_clock_leaves_sampling_out():
    sampler = run.SpeedSampler("small-requests")
    start = sampler.clock()
    sampler.sample()
    sampler.sample()
    assert len(sampler.durations) == 2
    assert sampler.clock() - start < 0.1 * sum(sampler.durations)


def test_speed_covers_at_least_four_samples():
    sampler = run.SpeedSampler("small-requests")
    assert sampler.speed(0) > 0
    assert len(sampler.durations) == 4
    sampler.sample()
    assert sampler.speed(5) == sum(sampler.durations[1:]) / 4


def test_running_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = run.SpeedSampler("triangle-default")
    with sampler.running():
        deadline = perf_counter() + 3 * run.SAMPLE_EVERY_S
        while perf_counter() < deadline:
            pass
    assert len(sampler.durations) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_workload_has_a_speed_kernel():
    assert set(run.SPEED_KERNEL_OF) == set(workloads.WORKLOADS)
    assert set(run.SPEED_KERNEL_OF.values()) <= set(run.SPEED_KERNELS)
