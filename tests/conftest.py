import contextlib
import signal

import pytest
from hypothesis import settings

# Tier-1 draws the same examples on every machine and run, and replays no
# failure saved by an earlier run, so its outcome depends on the commit
# alone.  The explore profile draws fresh examples and prints the blob that
# reproduces a failure: pytest --hypothesis-profile=explore.  Its
# max_examples reaches only a test that sets none of its own in @settings
# (test_distance_symmetric and test_distance_triangle_inequality).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=1000, print_blob=True)
settings.load_profile("tier1")


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
