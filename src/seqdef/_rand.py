"""Deterministic random streams, and the one map that runs independent tasks.

Every stochastic routine in the package draws from a Philox-4x64-10
counter-based generator (numpy's implementation). A stream is addressed
by the user seed plus a small tuple of stream indices (e.g. a trial
number), so independent trials can run in parallel and any run can be
reproduced from (seed, indices) alone. A seed is any whole number; its
low 64 bits address the stream. One map, `_ordered_map`, runs the three
kinds of parallel task (Brandes lane blocks, random-attack trials and
detection chunks), and callers fold its results in task order, so no
output depends on the CPU count.
"""

from __future__ import annotations

import numbers
import os

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
GROUP_STATES = 1 << 18  # array entries the tasks of one map must exceed, all told, before it forks; sets scheduling only, never an output


def _fold(indices: tuple[int, ...]) -> int:
    # splitmix64-style fold of the index tuple into one 64-bit word
    acc = 0x9E3779B97F4A7C15
    for idx in indices:
        acc = (acc ^ (int(idx) & _MASK64)) & _MASK64
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 31
    return acc


def _seed(seed) -> int:
    """`seed` as an int; ConfigError unless it is a whole number. Every entry point that takes a seed checks it."""
    if not (isinstance(seed, numbers.Integral) or isinstance(seed, numbers.Real) and float(seed).is_integer()):
        raise ConfigError(f"seed must be a whole number, got {seed!r}")  # int() would take 7.9 as 7, and "7"
    return int(seed)


def rng_stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, *indices); ConfigError unless `seed` is a whole number."""
    import numpy as np
    key = np.array([_seed(seed) & _MASK64, _fold(indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ordered_map(fn, tasks: range, states: int):
    """Yield fn(task) for every task, in task order; forked once the tasks hold over GROUP_STATES array entries.

    A task holds `states` entries. With 2 or more usable CPUs and tasks that large, W = min(CPUs,
    tasks) forked workers run; worker w, pinned to the w-th usable CPU (unpinned, a 2-CPU run kept
    both on the parent's), writes the pickled results of tasks w, w + W, ... to its own pipe, and the
    parent reads the pipes in task order. Fork is safe as the package starts no threads. A worker's
    exception is raised here, as a RuntimeError with its traceback text if it does not pickle, and so
    is one for a worker that dies. However the loop ends, the parent closes the pipes and reaps every
    worker: one still writing gets EPIPE.
    """
    cpus = sorted(os.sched_getaffinity(0))
    workers = min(len(cpus), len(tasks))
    if workers < 2 or len(tasks) * states <= GROUP_STATES:
        yield from map(fn, tasks)
        return
    import pickle

    pids, pipes = [], []
    try:
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                if (pid := os.fork()) == 0:  # the worker closes the read ends, so that the parent holds the only ones
                    _worker(fn, tasks[w::workers], cpus[w], write, [pipe.fileno() for pipe in pipes])
            finally:
                os.close(write)
            pids.append(pid)
        for i, task in enumerate(tasks):
            try:
                ok, result = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker process {pids[i % workers]} died before the result of task {task}") from None
            if not ok:
                raise result
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _worker(fn, tasks, cpu, write, read_ends):
    """Forked worker of `_ordered_map`: write (True, result) per task, or (False, exception) once, to `write`; never returns."""
    import pickle

    try:
        for fd in read_ends:
            os.close(fd)
        os.sched_setaffinity(0, {cpu})
        _keep_heap()
        with os.fdopen(write, "wb") as out:
            for task in tasks:
                try:
                    message = pickle.dumps((True, fn(task)), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # reported to the parent, which raises it
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        import traceback
                        exc = RuntimeError(f"task {task} failed in a worker:\n" + "".join(traceback.format_exception(exc)))
                    out.write(pickle.dumps((False, exc)))
                    break
                out.write(message)
                out.flush()
    finally:
        os._exit(0)  # the parent reads a failure from the pipe, never from the exit status


def _keep_heap():
    """Worker setting: glibc keeps freed blocks up to 32 MiB and never trims the heap below 1 GiB (stand-in `powergrid`: 17k minor faults, not 117-140k)."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc's; other C libraries may lack it
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
