"""Per-test deadline for every test under the repository: tests/ and perfbench/."""

import faulthandler
import os
import signal
import sys

import pytest

# A loop that stops ending fails its own test: a phase of a test (setup, call or
# teardown) past TEST_DEADLINE_S (far above the slowest test, a few seconds) fails
# with a traceback of where it was.  A stall inside one C call, which no signal
# handler interrupts, ends the run at twice the deadline, with every thread's stack
# written to stderr.
TEST_DEADLINE_S = 60
_STDERR_FD = pytest.StashKey[int]()


class DeadlineExceeded(BaseException):
    """A test ran past TEST_DEADLINE_S.  Not an Exception, so neither an `except
    Exception` in the code under test nor a Hypothesis shrink catches it and runs on."""


def pytest_configure(config):
    # stderr as it is outside the capture of any test, for the backstop's stacks
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    # Each phase of a test runs under the deadline: its setup too, where a module-scoped
    # fixture is built for the first test that asks for it.
    def expire(signum, frame):
        raise DeadlineExceeded(f"{item.nodeid} ran past {TEST_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    faulthandler.dump_traceback_later(
        2 * TEST_DEADLINE_S, exit=True, file=item.config.stash[_STDERR_FD]
    )
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup
