"""Experiment [observability]: tracing overhead.

Not a paper figure — this measures the tracer itself.  There are two
cost levels, and the design contract differs for each:

* **off** — what every user actually gets (``fdc --run``, the daemon,
  the end-to-end benchmark): an untraced run (``trace=None``, or
  ``trace=False``) attaches no sink, so every instrumentation point is
  one ``tracer is not None`` test and the run is indistinguishable
  from the pre-instrumentation simulator.  Measured as a twin series
  (the same ``trace=False`` run, best-of-N, twice) whose ratio bounds
  both timer noise and any guard cost — the target is ≤ 2 %.  The
  default run (``trace=None``) is gated at the same twin tolerance: a
  failed run's flight recorder is a replay after the failure, so a run
  that succeeds pays nothing for it.
* **tracing on** may pay for full event collection, but no more than
  2x: each event is one positional record appended to a per-rank list,
  no locks, no I/O during the run; dicts are built when the trace is
  read.

The stencil relaxation at P = 16 is the workload (communication-dense,
so a run records an event at every message, dispatch, and cache
probe).  Results land in ``BENCH_obs_overhead.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.apps.stencil import stencil1d_source
from repro.core import Mode, Options, compile_program
from repro.machine import IPSC860

from _harness import emit_bench

N, STEPS, P = 256, 50, 16
REPS = 5

#: twin-series tolerance — the tracing-off target (2 %) plus the timer
#: noise floor best-of-REPS leaves behind on a shared CI host; the
#: default run is gated at it too
OFF_TOLERANCE = 1.25
ON_LIMIT = 2.0


def _best_wall(run, reps: int = REPS) -> tuple[float, object]:
    best, res = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = run()
        best = min(best, time.perf_counter() - t0)
    return best, res


def test_bench_obs_overhead(benchmark, paper_table, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    src = stencil1d_source(N, STEPS)
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER))

    def run(trace):
        return cp.run(cost=IPSC860, scheduler="event", timeout_s=300.0,
                      trace=trace)

    off_a, res_off = _best_wall(lambda: run(False))
    off_b, _ = _best_wall(lambda: run(False))
    default_w, res_default = _best_wall(lambda: run(None))
    on_w, res_on = _best_wall(lambda: run(True))
    benchmark.pedantic(lambda: run(False), rounds=2, iterations=1)

    # tracing must also be *invisible*: same arrays, same clocks
    for res in (res_default, res_on):
        assert np.array_equal(res_off.gathered("x"), res.gathered("x"))
        assert res_off.stats.proc_times == res.stats.proc_times
    assert res_default.trace is None

    twin_ratio = max(off_a, off_b) / min(off_a, off_b)
    default_ratio = default_w / min(off_a, off_b)
    on_ratio = on_w / min(off_a, off_b)
    events = res_on.trace.event_count()
    payload = {
        "workload": {"app": "stencil1d", "n": N, "steps": STEPS, "P": P},
        "reps": REPS,
        "wall_off_s": min(off_a, off_b),
        "wall_off_twin_s": max(off_a, off_b),
        "wall_default_s": default_w,
        "wall_on_s": on_w,
        "off_twin_ratio": twin_ratio,
        "off_target_ratio": 1.02,
        "default_over_off": default_ratio,
        "default_target_ratio": 1.02,
        "on_over_off": on_ratio,
        "events": events,
        "events_per_second": events / on_w if on_w else 0.0,
    }
    emit_bench("obs_overhead", payload)
    paper_table(
        f"Tracing overhead (stencil n={N} x {STEPS} steps, P={P}, "
        f"best of {REPS})",
        "config                 wall(ms)    ratio",
        [
            f"{'tracing off':<22} {min(off_a, off_b) * 1e3:>8.1f}"
            f"    1.00x",
            f"{'tracing off (twin)':<22} {max(off_a, off_b) * 1e3:>8.1f}"
            f"    {twin_ratio:.3f}x",
            f"{'default (untraced)':<22} {default_w * 1e3:>8.1f}"
            f"    {default_ratio:.3f}x",
            f"{'tracing on':<22} {on_w * 1e3:>8.1f}"
            f"    {on_ratio:.3f}x  ({events} events)",
        ],
    )
    benchmark.extra_info.update(
        off_twin_ratio=round(twin_ratio, 4),
        default_over_off=round(default_ratio, 4),
        on_over_off=round(on_ratio, 4),
        events=events,
    )

    # the off/off twin series bounds guard cost + noise; the 2 % design
    # target is recorded in the payload, the hard gate absorbs CI noise
    assert twin_ratio <= OFF_TOLERANCE, \
        f"tracing-off runs diverged {twin_ratio:.3f}x (noise or guards)"
    # the default run attaches no sink: it is a third off run
    assert default_ratio <= OFF_TOLERANCE, \
        f"default (untraced) run {default_ratio:.3f}x the off run " \
        f"exceeds the off/off tolerance {OFF_TOLERANCE}x"
    assert on_ratio <= ON_LIMIT, \
        f"tracing-on overhead {on_ratio:.2f}x exceeds {ON_LIMIT}x"
    assert events > 0
