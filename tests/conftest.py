import os
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def _no_shell_settings(monkeypatch):
    # EXPSUMLAB_* variables of the caller's shell would change what the CLI
    # prints (EXPSUMLAB_FORMAT=json turns every CSV into JSON)
    for name in list(os.environ):
        if name.startswith("EXPSUMLAB_"):
            monkeypatch.delenv(name)


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
