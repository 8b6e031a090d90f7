import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves more threads running than it found, such as
    a record's draw-ahead worker that was never joined."""
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, "a thread outlived the test"
