"""Cross-backend differential suite: the event-driven core vs the
thread oracle.

The scheduler backend must be an *invisible* change: virtual time is
dataflow-determined (a recv completes at ``max(own clock, arrival)``,
a collective at ``max(participant clocks) + tree cost``), so per-rank
arrays, virtual clocks, and delivery statistics are bit-identical
whichever backend drives the ranks — under fault plans and under both
execution paths.  This suite enforces that for both backends, plus
determinism of the event scheduler itself and the equivalence of the
communication-schedule cache.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps.adi import adi_source
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source, stencil2d_source
from repro.apps.wave import wave_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.interp.interpreter import default_init
from repro.machine import (
    SCHEDULERS,
    FaultPlan,
    Machine,
    SimulationError,
    resolve_scheduler,
)

#: statistics that must not depend on the backend (wall-clock and the
#: scheduler counters themselves are exempt by definition)
STAT_FIELDS = (
    "messages", "bytes", "collectives", "collective_bytes",
    "remaps", "remap_bytes", "guards",
)

CASES = [
    ("stencil1d", stencil1d_source(128, 4), None),
    ("stencil2d", stencil2d_source(24, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 4), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 4), None),
]
SEEDS = [1, 2, 3]


def _chaos_plan(seed: int) -> FaultPlan:
    return FaultPlan(seed=seed, delay_prob=0.5, delay_max_us=80.0,
                     drop_prob=0.1, retry_timeout_us=50.0)


def _run(cp, init, scheduler, **kw):
    extra = {"init_fn": init} if init is not None else {}
    return cp.run(timeout_s=30.0, scheduler=scheduler, **extra, **kw)


def _assert_identical(a, b, label):
    """Arrays, per-rank virtual clocks, and delivery stats must match
    bit for bit."""
    assert a.stats.proc_times == b.stats.proc_times, label
    for f in STAT_FIELDS:
        assert getattr(a.stats, f) == getattr(b.stats, f), (label, f)
    for name in a.frames[0].arrays:
        for rk, (fa, fb) in enumerate(zip(a.frames, b.frames)):
            assert np.array_equal(
                fa.arrays[name].data, fb.arrays[name].data,
                equal_nan=True,
            ), f"{label}: array {name} differs on rank {rk}"


#: the event kinds ``machine/wire.py`` emits
MODEL_KINDS = ("net.send", "net.recv", "coll", "net.exchange", "fault")


def _model_events(result, rank):
    return [ev for ev in result.trace.rank_events[rank]
            if ev["kind"] in MODEL_KINDS]


@pytest.mark.parametrize("vectorize", [False, True],
                         ids=["scalar", "vectorized"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_apps_bit_identical_across_backends(src, init, seed, vectorize):
    cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
    plan = _chaos_plan(seed)
    event = _run(cp, init, "event", faults=plan, vectorize=vectorize)
    threads = _run(cp, init, "threads", faults=plan, vectorize=vectorize)
    _assert_identical(event, threads, f"seed={seed} vec={vectorize}")
    assert sorted(event.prints) == sorted(threads.prints)
    assert event.stats.flops == threads.stats.flops
    # traced leg: what the wire model emits is backend-independent —
    # each rank's ordered stream of model events is equal dict for dict
    # (``sched.*`` events are the scheduling discipline's own)
    event, threads = (
        _run(cp, init, s, faults=plan, vectorize=vectorize, trace=True)
        for s in ("event", "threads")
    )
    for rank in range(4):
        stream = _model_events(event, rank)
        assert stream, f"rank {rank} recorded no model events"
        assert stream == _model_events(threads, rank), \
            f"seed={seed} vec={vectorize} rank={rank}"


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.RTR],
                         ids=["inter", "rtr"])
def test_modes_bit_identical_across_backends(mode):
    """RTR's element-grain messaging stresses the comm path hardest."""
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=mode))
    _assert_identical(_run(cp, None, "event"), _run(cp, None, "threads"),
                      mode.value)


# one core, two spellings: "coop" is the legacy alias of "event"
@pytest.mark.parametrize("scheduler", ["coop", "event"])
def test_deterministic_backends_repeat_exactly(scheduler):
    """Two runs agree on everything including the scheduler's own
    counters — dispatch order is a pure function of (clock, rank)."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    a = _run(cp, None, scheduler, faults=_chaos_plan(1))
    b = _run(cp, None, scheduler, faults=_chaos_plan(1))
    _assert_identical(a, b, "repeat")
    assert a.stats.dispatches == b.stats.dispatches
    assert a.stats.switches == b.stats.switches


#: the six apps at sizes a 16-way block distribution divides evenly
CASES_P16 = [
    ("stencil1d", stencil1d_source(128, 2), None),
    ("stencil2d", stencil2d_source(32, 2), None),
    ("adi", adi_source(32, 2), None),
    ("cg", cg_source(32, 2), None),
    ("dgefa", dgefa_source(16), make_dgefa_init(16)),
    ("wave", wave_source(64, 2), None),
]


@pytest.mark.parametrize(
    "src,init", [c[1:] for c in CASES_P16], ids=[c[0] for c in CASES_P16]
)
def test_event_run_creates_no_threads(src, init):
    """The event core runs every rank on the calling thread: the
    process's thread count is the same after a run as before it —
    when the run succeeds and when a rank crashes mid-run."""
    cp = compile_program(src, Options(nprocs=16, mode=Mode.INTER))
    seen = []

    def init_fn(name, idx, _base=init or default_init):
        seen.append(threading.active_count())
        return _base(name, idx)

    before = threading.active_count()
    res = cp.run(timeout_s=30.0, scheduler="event", init_fn=init_fn)
    assert len(res.frames) == 16
    # sampled from inside every rank's node program, not only at exit
    assert seen and set(seen) == {before}
    assert threading.active_count() == before
    crash = FaultPlan(crash_at={3: 0.0})
    with pytest.raises(SimulationError, match="injected crash"):
        _run(cp, init, "event", faults=crash)
    assert threading.active_count() == before


def test_event_deadlock_creates_no_threads():
    def prog(ctx):
        if ctx.rank != 5:  # rank 5 skips the barrier: forced deadlock
            yield from ctx.barrier_y()

    before = threading.active_count()
    with pytest.raises(SimulationError, match="deadlock"):
        Machine(16, timeout_s=30.0, scheduler="event").run(prog)
    assert threading.active_count() == before


def test_comm_cache_equivalence(monkeypatch):
    """The communication-schedule cache is a pure memoization: results
    and statistics are identical with it disabled."""
    cp = compile_program(stencil1d_source(128, 4),
                         Options(nprocs=4, mode=Mode.INTER))
    cached = _run(cp, None, "event")
    monkeypatch.setenv("REPRO_COMM_CACHE", "0")
    uncached = _run(cp, None, "event")
    _assert_identical(cached, uncached, "comm-cache")
    assert cached.stats.comm_cache_hits > 0
    assert uncached.stats.comm_cache_hits == 0


def test_scheduler_stats_surface():
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = _run(cp, None, "event")
    s = res.stats
    assert s.scheduler == "event"
    assert s.wall_s > 0.0
    assert s.dispatches >= 4
    assert s.switches > 0
    line = s.sched_summary()
    assert "scheduler=event" in line and "dispatches=" in line


def test_env_selects_backend(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert SCHEDULERS == ("event", "threads")
    assert resolve_scheduler(None) == "event"
    monkeypatch.setenv("REPRO_SCHEDULER", "threads")
    assert resolve_scheduler(None) == "threads"
    assert Machine(2).scheduler == "threads"
    # an explicit argument wins over the environment
    assert resolve_scheduler("event") == "event"
    assert Machine(2, scheduler="event").scheduler == "event"
    with pytest.raises(ValueError, match="unknown scheduler"):
        resolve_scheduler("fibers")


def test_legacy_coop_spelling_runs_on_event(monkeypatch):
    """The retired backend's name still resolves (the frozen end-to-end
    benchmark passes it) — to the event core."""
    assert resolve_scheduler("coop") == "event"
    monkeypatch.setenv("REPRO_SCHEDULER", "coop")
    assert resolve_scheduler(None) == "event"
    cp = compile_program(stencil1d_source(64, 2),
                         Options(nprocs=4, mode=Mode.INTER))
    res = cp.run(timeout_s=30.0)
    assert res.stats.scheduler == "event"
    monkeypatch.delenv("REPRO_SCHEDULER")
    _assert_identical(res, _run(cp, None, "coop"), "coop alias")


COMM_IN_EXPR = """
program p
real x(8)
distribute x(block)
y = g2(x) + 1.0
end

real function g2(x)
real x(8)
g2 = 0.0
call shift(x)
end

subroutine shift(x)
real x(8)
do i = 2, 8
  x(i) = x(i - 1)
enddo
end
"""


@pytest.mark.parametrize("codegen", [False, True], ids=["interp", "codegen"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_communicating_function_in_expression_is_compile_error(
        scheduler, codegen):
    """A rank cannot suspend inside an expression, so a function
    reference that (transitively) communicates is refused when the
    calling procedure is compiled — on every backend, not only on the
    one that would otherwise have hung or mis-scheduled."""
    from repro.interp.interpreter import find_blocking_units

    cp = compile_program(COMM_IN_EXPR, Options(nprocs=2, mode=Mode.INTER))
    assert "g2" in find_blocking_units(cp.program)
    with pytest.raises(Exception, match="g2.* communicates"):
        cp.run(timeout_s=30.0, scheduler=scheduler, codegen=codegen)


def test_cli_scheduler_flag(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    f = tmp_path / "prog.fd"
    f.write_text(stencil1d_source(64, 2))
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    rc = main([str(f), "--run", "--no-text", "--report"])
    assert rc == 0
    assert "scheduler=event" in capsys.readouterr().out  # the default
    with pytest.raises(SystemExit):
        main([str(f), "--run", "--scheduler", "coop"])
    capsys.readouterr()
    rc = main([str(f), "--run", "--no-text", "--report",
               "--scheduler", "threads"])
    assert rc == 0
    assert "scheduler=threads" in capsys.readouterr().out
    rc = main([str(f), "--run", "--no-text", "--report",
               "--scheduler", "event"])
    assert rc == 0
    assert "scheduler=event" in capsys.readouterr().out
