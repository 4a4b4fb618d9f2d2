import os

import pytest


@pytest.fixture(autouse=True)
def _no_shell_settings(monkeypatch):
    # EXPSUMLAB_* variables of the caller's shell would change what the CLI
    # prints (EXPSUMLAB_FORMAT=json turns every CSV into JSON)
    for name in list(os.environ):
        if name.startswith("EXPSUMLAB_"):
            monkeypatch.delenv(name)
