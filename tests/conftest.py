"""Shared pytest configuration.

Hypothesis runs derandomized so a red test on one machine is red
everywhere; deadlines are off because a few property bodies rebuild
matroid views per example. The terminal-summary hook echoes the
acceptance criterion verdicts collected by tests/test_acceptance.py,
so they stay visible even though pytest captures per-test output.

A watchdog gives each test, fixture set-up included, LIMIT seconds:
past that, faulthandler dumps every thread's stack to a copy of the
original stderr and ends the run with a non-zero exit, so a test stuck
in an endless loop names its frame instead of hanging the suite. Do not
also set pytest's faulthandler_timeout: both use faulthandler's one
process-wide timer.
"""

import faulthandler
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


LIMIT = 120         # seconds per test; the slowest test (C7) takes under 10
_watchdog_fd = None


def pytest_configure(config):
    # pytest's capture owns fd 2 while a test runs; dump to a copy taken first
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


def pytest_unconfigure(config):
    os.close(_watchdog_fd)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # wraps set-up too, so the module-scoped streams of C5 and C10 are timed
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
