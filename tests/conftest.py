"""Session-wide checks for the test suite."""

import multiprocessing

import pytest


def pytest_sessionfinish(session, exitstatus):
    # a worker process still alive after the last test leaked from the code under test;
    # the benchmark refuses a run that leaves one, so the suite fails on it too
    alive = multiprocessing.active_children()
    if not alive:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_sep("=", f"child processes still alive after the tests: {alive}", red=True)
    for child in alive:
        child.terminate()
        child.join(timeout=5)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
