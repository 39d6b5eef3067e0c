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

Hypothesis tests that name no ``max_examples`` take it from the loaded
profile.  ``--hypothesis-profile=sweep`` (a CI step) runs them on fresh
seeds with ~2 000 examples each; without it the generated-program
oracles are derandomised, so tier-1 sees the same examples every run.
"""

import atexit
import os
import shutil
import tempfile

import pytest
from hypothesis import settings

from repro.machine import SCHEDULERS
from repro.obs import Tracer

os.environ.setdefault("REPRO_SIM_TIMEOUT", "20")

settings.register_profile("sweep", max_examples=2000, derandomize=False)

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
    """Every ring tracer a ``Machine`` makes for itself during the test
    — its flight recorder, or the empty ring a metrics fold rides on
    (``cp.run`` does not hand its machine back).  A trace the caller
    asked for is made elsewhere and is not collected."""
    made = []

    class Spy(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr("repro.machine.machine.Tracer", Spy)
    return made


# -- many-procedure sources (the shapes of the end-to-end benchmark's
# programs, rebuilt here: tests do not import ``benchmarks/``) -----------


def pipeline_source(k, consts=None, n=64, body_extra=None):
    """main + *k* relaxation stages; stage *j* adds ``consts[j]``.  A
    one-stage edit leaves every other unit's text untouched.
    *body_extra* is one more line in every stage, after its declaration."""
    consts = consts or [f"{100 + j}.25" for j in range(k)]
    parts = ["program p", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)"]
    parts += [f"call stage{j}(x, y)" for j in range(k)]
    parts.append("end")
    for j, c in enumerate(consts):
        s = 1 + j % 3
        parts += [f"subroutine stage{j}(x, y)", f"real x({n}), y({n})"]
        if body_extra is not None:
            parts.append(body_extra)
        parts += [f"do i = {1 + s}, {n - s}",
                  f"  y(i) = f(x(i - {s})) + f(x(i + {s})) + {c}",
                  "enddo",
                  f"do i = 1, {n}", "  x(i) = y(i) * 0.5", "enddo",
                  "end"]
    return "\n".join(parts) + "\n"


def chain_source(depth, n=64):
    """A *depth*-deep call chain."""
    parts = ["program p", f"real x({n}), y({n})",
             "align y(i) with x(i)", "distribute x(block)",
             "call c1(x, y)", "end"]
    for j in range(1, depth + 1):
        s = 1 + j % 3
        parts += [f"subroutine c{j}(x, y)", f"real x({n}), y({n})",
                  f"do i = 1, {n - s}",
                  f"  y(i) = f(x(i + {s})) + {j}.5", "enddo",
                  f"do i = 1, {n}", "  x(i) = y(i) * 0.5", "enddo"]
        if j < depth:
            parts.append(f"call c{j + 1}(x, y)")
        parts.append("end")
    return "\n".join(parts) + "\n"


def clonefan_source(fan, n=16):
    """Figure-4 shaped: each of *fan* callee pairs is reached with a
    row- and a column-distributed actual, so INTER / INTRA compilation
    clones ``g<j>`` and then ``h<j>`` — two clone steps per pair."""
    parts = ["program p", f"real x({n},{n}), y({n},{n})",
             "align y(i, j) with x(j, i)", "distribute x(block, :)"]
    for j in range(fan):
        parts += [f"do i = 1, {n}", f"  call g{j}(x, i)", "enddo",
                  f"do j = 1, {n}", f"  call g{j}(y, j)", "enddo"]
    parts.append("end")
    for j in range(fan):
        s = 1 + j % 3
        parts += [f"subroutine g{j}(z, i)", f"real z({n},{n})",
                  f"call h{j}(z, i)", "end",
                  f"subroutine h{j}(z, i)", f"real z({n},{n})",
                  f"do k = 1, {n - s}",
                  f"  z(k, i) = f(z(k + {s}, i)) + {j}.75",
                  "enddo", "end"]
    return "\n".join(parts) + "\n"


@pytest.fixture
def cold_unit_memo():
    """Start the test with an empty parser unit memo and zeroed
    ``PARSE_COUNTS`` (both are process-wide)."""
    from repro.lang import reset_unit_memo

    reset_unit_memo()
