"""Puts ``tests/`` on ``sys.path``, so every suite imports the shared
helpers kept here (``residue``) as top-level modules, arms a per-test
watchdog so a deadlock fails the run with every thread's stack instead of
hanging it, and offers the ``pickle_calls`` spy."""

import faulthandler
import os
import pickle
import sys
from pathlib import Path

import pytest

HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

#: Seconds one test may take, set-up and teardown included, before
#: ``faulthandler`` dumps every thread's stack and exits the run.  The
#: slowest set-up is ``TestFig4cShapes``' class fixture (≈ 18–21 s on a
#: 2-vCPU box) and the slowest call ≈ 6 s, so 120 s leaves ~6× headroom
#: for a loaded CI runner.
WATCHDOG_S = 120.0

_watchdog_fd = None


def pytest_configure(config):
    # A copy of the real stderr: during a test, fd 2 is pytest's capture
    # file, which the exiting process would never print.
    global _watchdog_fd
    _watchdog_fd = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    global _watchdog_fd
    if _watchdog_fd is not None:
        os.close(_watchdog_fd)
        _watchdog_fd = None


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_watchdog_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def pickle_calls(monkeypatch):
    """Every ``pickle.dumps`` call the test makes, by the pickled type's
    name — including calls through a name the codec bound at import."""
    from repro import codec

    calls = []
    real = pickle.dumps

    def spy(obj, *args, **kwargs):
        calls.append(type(obj).__name__)
        return real(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", spy)
    for name, attr in list(vars(codec).items()):
        if attr is real:
            monkeypatch.setattr(codec, name, spy)
    return calls
