import tracemalloc

import pytest


def _peak_traced_bytes(fn):
    """Peak bytes tracemalloc sees during fn(), after one warm call."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def peak_traced_bytes():
    return _peak_traced_bytes
