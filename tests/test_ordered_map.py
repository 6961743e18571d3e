"""The contract of `_ordered_map`: task order, pinned workers, worker failures and early exits."""

import os
import signal
import time

import pytest

from seqdef import _rand
from seqdef._rand import _ordered_map

from conftest import leftover_children

TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="forking needs 2 usable CPUs")


@pytest.fixture
def deadline():
    # a map that hangs fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError("the map hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def square(task):
    return task * task


def test_small_maps_run_inline(cpus):
    # 8 tasks of GROUP_STATES // 8 entries hold GROUP_STATES together: not more, so no fork
    cpus(2)
    parent = os.getpid()
    assert set(_ordered_map(lambda task: os.getpid(), range(8), _rand.GROUP_STATES // 8)) == {parent}
    assert list(_ordered_map(square, range(5), 0)) == [0, 1, 4, 9, 16]


@pytest.mark.parametrize("count", [2, 3])
def test_workers_take_every_w_th_task(cpus, count):
    # W = min(CPUs, tasks) workers, worker w running tasks w, w + W, ...; results in task order
    cpus(count)
    parent = os.getpid()
    pids = list(_ordered_map(lambda task: os.getpid(), range(10), _rand.GROUP_STATES))
    assert parent not in pids and len(set(pids)) == count
    assert all(pids[i] == pids[i % count] for i in range(10))
    assert list(_ordered_map(square, range(10), _rand.GROUP_STATES)) == [i * i for i in range(10)]
    # fewer tasks than CPUs: one worker per task
    assert len(set(_ordered_map(lambda task: os.getpid(), range(2), _rand.GROUP_STATES))) == 2


@TWO_CPUS
def test_worker_w_is_pinned_to_the_w_th_usable_cpu():
    usable = sorted(os.sched_getaffinity(0))
    pinned = list(_ordered_map(lambda task: os.sched_getaffinity(0), range(2 * len(usable)), _rand.GROUP_STATES))
    assert pinned == [{usable[i % len(usable)]} for i in range(2 * len(usable))]
    assert os.sched_getaffinity(0) == set(usable)  # the parent stays unpinned


def test_worker_exception_is_raised_again(cpus):
    cpus(2)

    def fail_at_five(task):
        if task == 5:
            raise ValueError(f"bad task {task}")
        return task

    seen = []
    with pytest.raises(ValueError, match="^bad task 5$"):
        for result in _ordered_map(fail_at_five, range(9), _rand.GROUP_STATES):
            seen.append(result)
    assert seen == [0, 1, 2, 3, 4]
    assert leftover_children() == []


def test_unpicklable_exception_carries_its_traceback(cpus):
    # an exception that holds a lambda does not pickle
    cpus(2)

    def fail(task):
        raise ValueError(lambda: task)

    with pytest.raises(RuntimeError, match="(?s)^task 0 failed in a worker:\nTraceback.*in fail\n.*ValueError"):
        list(_ordered_map(fail, range(4), _rand.GROUP_STATES))
    assert leftover_children() == []


def test_a_worker_that_dies_raises(cpus):
    cpus(2)

    def die_at_three(task):
        if task == 3:
            os._exit(3)
        return task

    with pytest.raises(RuntimeError, match="died before the result of task 3"):
        list(_ordered_map(die_at_three, range(6), _rand.GROUP_STATES))
    assert leftover_children() == []


@pytest.mark.parametrize("count", [2, 3])
def test_early_break_leaves_no_child(cpus, deadline, count):
    # every result is 1 MiB, far more than a pipe holds, so each worker blocks on a full pipe;
    # the parent closes its read ends, and a worker gets EPIPE only if it closed the read ends it
    # inherited from the workers forked before it
    cpus(count)
    start = time.perf_counter()
    for result in _ordered_map(lambda task: bytes(1 << 20), range(60), _rand.GROUP_STATES):
        assert len(result) == 1 << 20
        break
    assert leftover_children() == []
    assert time.perf_counter() - start < 30


def test_closing_the_generator_reaps_the_workers(cpus, deadline):
    cpus(2)
    results = _ordered_map(lambda task: bytes(1 << 20), range(60), _rand.GROUP_STATES)
    next(results)
    results.close()
    assert leftover_children() == []
