import faulthandler
import os
import signal
import sys

import pytest
from hypothesis import HealthCheck, settings

# Big-integer examples can blow the default per-example deadline on slow
# boxes; determinism matters more than wall-clock here.
settings.register_profile(
    "enumtree",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("enumtree")

# A loop that stops ending fails its own test: past TEST_DEADLINE_S (far above the
# slowest test, a few seconds) the test fails with a traceback of where it was.  A
# stall inside one C call, which no signal handler interrupts, ends the run at twice
# the deadline, with every thread's stack written to stderr.
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


@pytest.fixture(autouse=True)
def _deadline(request):
    def expire(signum, frame):
        raise DeadlineExceeded(f"{request.node.nodeid} ran past {TEST_DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    faulthandler.dump_traceback_later(
        2 * TEST_DEADLINE_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
