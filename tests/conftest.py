"""Session-wide checks for the test suite."""

import os
import threading

import pytest


def leftover_children():
    """Children of the test process still running or exited unreaped, reaping the exited ones.

    `os.waitpid` sees every child, forked directly or by any library;
    `multiprocessing.active_children()` sees only its own.
    """
    found = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            return found
        if pid == 0:  # a child still runs
            return found + ["a running child"]
        found.append(f"child {pid}, exited unreaped (status {status})")


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(count)` makes the task map see `count` usable CPUs; its workers skip pinning, as some may not exist."""

    def usable(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)

    return usable


@pytest.fixture(autouse=True)
def no_child_left():
    # a test whose code under test leaves a child process fails on it, running or not
    yield
    left = leftover_children()
    assert left == [], f"child processes outlived the test: {left}"


@pytest.fixture(autouse=True)
def no_thread_left():
    # a test whose code under test leaves a thread running fails on it; the fork map must not fork
    # while a thread of the package may hold a lock the child would inherit locked
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert left == [], f"threads outlived the test: {left}"


def pytest_sessionfinish(session, exitstatus):
    # a worker process still alive after the last test leaked from the code under test;
    # the benchmark refuses a run that leaves one, so the suite fails on it too
    left = leftover_children()
    if not left:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_sep("=", f"child processes still alive after the tests: {left}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
