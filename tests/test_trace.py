"""Trace-schema validation for the observability subsystem.

Every traced run must produce a self-consistent event stream: rank
events carry ``kind``/``rank``/``ts``, per-rank virtual timestamps are
monotone, compiler phase spans nest properly, the Chrome export is
valid trace-event JSON, the communication matrix reconciles with the
run statistics, and the critical path tiles ``[0, final clock]``
exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import Machine, resolve_scheduler
from repro.obs import (
    Tracer,
    chrome_trace,
    comm_hotspots,
    comm_matrix,
    critical_path,
    path_length,
    profile_report,
    resolve_trace,
)

from .conftest import SCHEDULER_SPELLINGS

RANK_KINDS = {
    "net.send", "net.recv", "net.exchange", "coll",
    "sched.dispatch", "sched.block", "sched.unblock",
    "interp.vec", "interp.cache", "fault",
}

GRID = [(s, v) for s in SCHEDULER_SPELLINGS for v in (False, True)]
GRID_IDS = [f"{s}-{'vec' if v else 'scalar'}" for s, v in GRID]


def _traced_run(src, *, scheduler="event", vectorize=False, init_fn=None,
                nprocs=4, mode=Mode.INTER):
    cp = compile_program(src, Options(nprocs=nprocs, mode=mode))
    extra = {"init_fn": init_fn} if init_fn is not None else {}
    return cp.run(trace=True, scheduler=scheduler, vectorize=vectorize,
                  **extra)


# ---------------------------------------------------------------------------
# enabling / disabling
# ---------------------------------------------------------------------------


class TestResolve:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert resolve_trace(None) is None
        # an untraced Machine may still carry a flight recorder on
        # .tracer, but no *user* tracer is attached
        assert Machine(2).user_tracer is None
        cp = compile_program(stencil1d_source(32, 1),
                             Options(nprocs=2, mode=Mode.INTER))
        assert cp.run().trace is None

    def test_explicit_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        t = Tracer()
        assert resolve_trace(t) is t
        assert isinstance(resolve_trace(True), Tracer)
        assert resolve_trace(False) is None
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert isinstance(resolve_trace(None), Tracer)
        # False beats the environment
        assert resolve_trace(False) is None
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert resolve_trace(None) is None

    def test_machine_attaches_tracer(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        m = Machine(3, trace=True)
        assert m.tracer is not None
        assert m.tracer.nprocs == 3
        assert m.tracer.meta["nprocs"] == 3


# ---------------------------------------------------------------------------
# rank-event schema
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler,vectorize", GRID, ids=GRID_IDS)
class TestRankEvents:
    def test_schema_and_monotone_clocks(self, scheduler, vectorize):
        res = _traced_run(stencil1d_source(64, 2), scheduler=scheduler,
                          vectorize=vectorize)
        tr = res.trace
        assert isinstance(tr, Tracer)
        assert tr.nprocs == 4
        assert tr.event_count() > 0
        for rank, evs in enumerate(tr.rank_events):
            last = -1.0
            for ev in evs:
                assert ev["kind"] in RANK_KINDS
                assert ev["rank"] == rank
                assert ev["ts"] >= 0.0
                assert ev.get("dur", 0.0) >= 0.0
                assert ev["ts"] >= last, \
                    f"rank {rank}: non-monotone virtual time"
                last = ev["ts"]

    def test_message_lifecycle_fields(self, scheduler, vectorize):
        res = _traced_run(stencil1d_source(64, 2), scheduler=scheduler,
                          vectorize=vectorize)
        tr = res.trace
        sends = tr.events("net.send")
        recvs = tr.events("net.recv")
        assert sends and recvs
        assert len(sends) == res.stats.messages
        assert len(recvs) == len(sends)  # no faults: every send matched
        for ev in sends:
            assert 0 <= ev["dst"] < 4 and ev["bytes"] > 0
            assert ev["avail"] >= ev["ts"]
            assert ev["origin"]  # codegen provenance threaded through
        for ev in recvs:
            assert ev["avail"] >= ev["sent_at"]
            assert ev["wait"] >= 0.0
            assert ev["ts"] + ev["dur"] >= ev["avail"]

    def test_scheduler_and_interp_events(self, scheduler, vectorize):
        res = _traced_run(stencil1d_source(64, 2), scheduler=scheduler,
                          vectorize=vectorize)
        tr = res.trace
        sched_evs = tr.events("sched.dispatch")
        if resolve_scheduler(scheduler) == "event":
            # one dispatch per scheduler hand-off, as counted by stats
            assert len(sched_evs) == res.stats.dispatches
            assert tr.events("sched.block")
        else:
            assert not sched_evs  # thread oracle has no dispatcher
        vec_evs = tr.events("interp.vec")
        if vectorize:
            assert vec_evs
            for ev in vec_evs:
                assert ev["n"] > 0 and ev["unit"]
        else:
            assert not vec_evs
        cache = tr.events("interp.cache")
        hits = sum(1 for ev in cache if ev["hit"])
        misses = sum(1 for ev in cache if not ev["hit"])
        assert hits == res.stats.comm_cache_hits
        assert misses == res.stats.comm_cache_misses


# ---------------------------------------------------------------------------
# compiler phase spans
# ---------------------------------------------------------------------------


class TestCompilerEvents:
    def test_phases_nest(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        tracer = Tracer()
        compile_program(stencil1d_source(64, 2),
                        Options(nprocs=4, mode=Mode.INTER), trace=tracer)
        phases = [e for e in tracer.host_events
                  if e["kind"] == "compile.phase"]
        assert {p["name"] for p in phases} >= {
            "compile", "parse", "interprocedural-analysis",
            "alias-analysis", "initial-distributions", "codegen",
            "procedure",
        }
        stack: list[dict] = []
        for p in phases:
            assert p["t1"] is not None and p["t1"] >= p["t0"]
            while stack and p["depth"] <= stack[-1]["depth"]:
                stack.pop()
            if stack:  # properly nested inside the enclosing span
                assert p["depth"] == stack[-1]["depth"] + 1
                assert p["t0"] >= stack[-1]["t0"]
                assert p["t1"] <= stack[-1]["t1"]
            else:
                assert p["depth"] == 0
            stack.append(p)

    def test_decisions_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        tracer = Tracer()
        compile_program(dgefa_source(16),
                        Options(nprocs=4, mode=Mode.INTER), trace=tracer)
        decisions = [e for e in tracer.host_events
                     if e["kind"] == "compile.decision"]
        names = {d["name"] for d in decisions}
        assert "distribution" in names
        assert "comm-placement" in names
        dist = [d for d in decisions if d["name"] == "distribution"]
        assert all("proc" in d and "array" in d and "dist" in d
                   for d in dist)

    def test_cache_hit_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "1")
        src = stencil1d_source(48, 1)
        opts = Options(nprocs=4, mode=Mode.INTER)
        compile_program(src, opts)  # prime
        tracer = Tracer()
        compile_program(src, opts, trace=tracer)
        names = [e["name"] for e in tracer.host_events
                 if e["kind"] == "compile.decision"]
        assert names == ["compile.cache-hit"]


# ---------------------------------------------------------------------------
# chrome export
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_valid_trace_event_json(self):
        tracer = Tracer()
        cp = compile_program(stencil1d_source(64, 2),
                             Options(nprocs=4, mode=Mode.INTER),
                             trace=tracer)
        cp.run(trace=tracer)
        doc = json.loads(json.dumps(chrome_trace(tracer), default=str))
        evs = doc["traceEvents"]
        assert evs
        for ev in evs:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            assert ev["ph"] in ("X", "i", "M")
            if ev["ph"] != "M":
                assert ev["ts"] >= 0.0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0
        # both tracks present: compiler (pid 0) and simulation (pid 1)
        assert {e["pid"] for e in evs if e["ph"] != "M"} == {0, 1}
        assert any(e["ph"] == "M" for e in evs)  # track names

    def test_cli_writes_loadable_trace(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "prog.fd"
        f.write_text(stencil1d_source(64, 2))
        trace_file = tmp_path / "trace.json"
        stats_file = tmp_path / "stats.json"
        rc = main([str(f), "--no-text", "--trace", str(trace_file),
                   "--profile", "--stats-json", str(stats_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "communication hot spots" in out
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]
        stats = json.loads(stats_file.read_text())
        assert stats["messages"] >= 0 and "time_us" in stats
        assert stats["proc_times"]


# ---------------------------------------------------------------------------
# profile consumers
# ---------------------------------------------------------------------------


class TestProfile:
    def test_matrix_reconciles_with_stats(self):
        res = _traced_run(stencil1d_source(64, 2))
        tr = res.trace
        msgs, byts = comm_matrix(tr)
        assert sum(map(sum, msgs)) == res.stats.messages
        assert sum(map(sum, byts)) == res.stats.bytes
        for r in range(4):
            assert msgs[r][r] == 0  # no self-messages

    def test_hotspots_have_provenance(self):
        res = _traced_run(stencil1d_source(64, 2))
        rows = comm_hotspots(res.trace)
        assert rows
        for row in rows:
            assert row["count"] > 0 and row["bytes"] >= 0
            assert row["proc"] != "?"  # origin carries the procedure

    @pytest.mark.parametrize("scheduler,vectorize", GRID, ids=GRID_IDS)
    def test_critical_path_tiles_makespan(self, scheduler, vectorize):
        res = _traced_run(dgefa_source(16), scheduler=scheduler,
                          vectorize=vectorize,
                          init_fn=make_dgefa_init(16))
        segs = critical_path(res.trace, res.stats.proc_times)
        T = res.stats.time_us
        assert segs
        tol = 1e-6 * max(1.0, T)
        assert abs(path_length(segs) - T) <= tol
        assert abs(segs[0]["t0"]) <= tol
        assert abs(segs[-1]["t1"] - T) <= tol
        for a, b in zip(segs, segs[1:]):  # time-contiguous chain
            assert abs(a["t1"] - b["t0"]) <= tol

    def test_profile_report_renders(self):
        res = _traced_run(stencil1d_source(64, 2))
        text = profile_report(res.trace, res.stats)
        assert "communication hot spots" in text
        assert "communication matrix" in text
        assert "virtual-time critical path" in text
