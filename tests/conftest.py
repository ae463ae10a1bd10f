import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """deadline(seconds) is a context that fails its test once a call in it
    has run that many seconds, so that a call that would loop forever fails
    instead of hanging the suite, which configures no per-test timeout.
    The failure is no Exception, so no handler in the call catches it.
    POSIX only (SIGALRM)."""
    @contextlib.contextmanager
    def within(seconds):
        def expired(signum, frame):
            pytest.fail(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
