"""Shared test configuration.

Deadlocks are detected instantly by the simulator's wait-for graph, so
the wall-clock timeout is only a safety net for detector regressions.
Keep it short in the suite: a bug should cost seconds, not the old
60-second silence.  Tests that need a specific value still win — an
explicit ``timeout_s=`` beats the environment, and ``setdefault`` never
overrides a value the invoker exported.

The generated-module cache and the tuning memo default to directories
under ``~/.cache``; the suite points both at a session temp dir (removed
at exit) so a run neither reads what an earlier checkout left there nor
grows it.
"""

import atexit
import os
import shutil
import tempfile

import pytest

from repro.machine import SCHEDULERS
from repro.obs import FlightRecorder

os.environ.setdefault("REPRO_SIM_TIMEOUT", "20")

_cache_root = tempfile.mkdtemp(prefix="repro-test-cache-")
atexit.register(shutil.rmtree, _cache_root, ignore_errors=True)
os.environ.setdefault("REPRO_CODEGEN_CACHE",
                      os.path.join(_cache_root, "codegen"))
os.environ.setdefault("REPRO_TUNE_CACHE", os.path.join(_cache_root, "tune"))

#: every spelling ``scheduler=`` / ``REPRO_SCHEDULER`` accepts: the two
#: backends plus ``"coop"``, a legacy alias that resolves to ``"event"``
#: (the frozen ``benchmarks/e2e`` probes pass it).  Backend-parametrised
#: matrices run the alias as a case of its own, so it goes through the
#: same deadlock / trace / metrics checks as the name it stands for.
SCHEDULER_SPELLINGS = SCHEDULERS + ("coop",)


@pytest.fixture
def recorders(monkeypatch):
    """Every flight recorder a ``Machine`` attaches during the test
    (``cp.run`` does not hand its machine back)."""
    made = []

    class Spy(FlightRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr("repro.machine.machine.FlightRecorder", Spy)
    return made
