"""Trace-schema validation for the observability subsystem.

Every traced run must produce a self-consistent event stream: rank
events carry ``kind``/``rank``/``ts``, per-rank virtual timestamps are
monotone, compiler phase spans nest properly, the Chrome export is
valid trace-event JSON, the communication matrix reconciles with the
run statistics, and the critical path tiles ``[0, final clock]``
exactly.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys

import pytest

import repro
from repro.apps.cg import cg_source
from repro.apps.dgefa import dgefa_source, make_dgefa_init
from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import Machine, resolve_scheduler
from repro.obs import (
    FIELDS,
    Tracer,
    chrome_trace,
    comm_hotspots,
    comm_matrix,
    critical_path,
    path_length,
    profile_report,
    resolve_trace,
)
from repro.obs.tracer import ABSENT, event_dict

from .conftest import SCHEDULER_SPELLINGS

SRC_ROOT = os.path.dirname(repro.__file__)
REPO_ROOT = os.path.dirname(os.path.dirname(SRC_ROOT))

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


# ---------------------------------------------------------------------------
# the record schema and its one emit path
# ---------------------------------------------------------------------------

_STD = ("kind", "rank", "ts", "dur")

#: one keyword-form event per kind, incl. a skipped middle field
#: (``sched.block`` for a collective), dropped trailing fields and
#: ``origin=None`` (a value, not absence)
SAMPLE_EVENTS = [
    ("net.send", 1.0, 0.0, dict(dst=1, tag=2, bytes=8, avail=3.0,
                                origin=None)),
    ("net.send", 1.0, 0.0, dict(dst=1, tag=2, bytes=8, avail=3.0,
                                origin="p:a[i]", hops=2)),
    ("net.recv", 1.0, 2.5, dict(src=0, tag=2, bytes=8, sent_at=0.5,
                                avail=3.0, wait=2.0, origin="p:a[i]")),
    ("net.exchange", 4.0, 0.0, dict(dst=3, bytes=16.0, origin=None)),
    ("coll", 4.0, 6.0, dict(label="reduce", bytes=8, maxclock=5.0,
                            maxrank=1, origin=None)),
    ("fault", 1.0, 0.0, dict(dst=1, tag=2, delay=40.0, retries=1)),
    ("sched.dispatch", 7.0, 0.0, {}),
    ("sched.block", 7.0, 0.0, dict(why="recv", src=0, tag=2)),
    ("sched.block", 7.0, 0.0, dict(why="collective", label="barrier")),
    ("sched.unblock", 7.0, 0.0, dict(why="recv", src=0, tag=2)),
    ("sched.unblock", 7.0, 0.0, dict(why="collective")),
    ("interp.vec", 2.0, 9.0, dict(unit="main", var="i", n=16, ops=32)),
    ("interp.cache", 2.0, 0.0, dict(array="x", hit=False)),
]


class TestSchema:
    def test_sample_covers_every_kind(self):
        assert {k for k, *_ in SAMPLE_EVENTS} == set(FIELDS) == RANK_KINDS

    def test_traced_apps_conform(self):
        """Every event of the differential apps names only schema
        fields, in schema order."""
        from .test_trace_differential import CASES

        seen = set()
        for _, src, init in CASES:
            res = _traced_run(src, vectorize=True, init_fn=init)
            for ev in res.trace.events():
                names = [k for k in ev if k not in _STD]
                schema = FIELDS[ev["kind"]]
                assert set(names) <= set(schema), ev
                assert names == [n for n in schema if n in ev], ev
                assert list(ev)[:3] == ["kind", "rank", "ts"]
                seen.add(ev["kind"])
        assert seen >= RANK_KINDS - {"fault", "net.exchange"}

    def test_front_door_equals_emit(self):
        """``rank_event`` (keywords) and ``emit`` (records) are one
        path: equal events, field for field and in the same order."""
        kw, pos = Tracer(1, sample=False), Tracer(1, sample=False)
        for kind, ts, dur, fields in SAMPLE_EVENTS:
            kw.rank_event(0, kind, ts, dur, **fields)
            values = [fields.get(n, ABSENT) for n in FIELDS[kind]]
            while values and values[-1] is ABSENT:
                values.pop()
            pos.emit(0, (kind, ts, dur, *values))
        got = kw.rank_events[0]
        assert got == pos.rank_events[0]
        for ev, (kind, ts, dur, fields) in zip(got, SAMPLE_EVENTS):
            want = {"kind": kind, "rank": 0, "ts": ts}
            if dur:
                want["dur"] = dur
            want.update(fields)
            assert ev == want and list(ev) == list(want)
        assert got[0]["origin"] is None  # written as null, not dropped
        assert "src" not in got[8] and got[8]["label"] == "barrier"

    def test_malformed_events_rejected(self):
        t = Tracer(1, sample=False)
        with pytest.raises(TypeError, match="bogus"):
            t.rank_event(0, "net.send", 1.0, bogus=1)
        assert t.event_count() == 0
        with pytest.raises(ValueError, match="interp.cache"):
            event_dict(0, ("interp.cache", 1.0, 0.0, "x", True, "extra"))

    def test_docs_table_matches_schema(self):
        """docs/observability.md § Event schema names exactly FIELDS'
        kinds and, per kind, exactly its fields."""
        with open(os.path.join(REPO_ROOT, "docs", "observability.md"),
                  encoding="utf-8") as fh:
            text = fh.read()
        section = text.split("## Event schema", 1)[1].split("\n#", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].startswith("`"):
                continue
            fields = tuple(re.findall(r"`(\w+)`", cells[2]))
            for kind in re.findall(r"`([\w.]+)`", cells[0]):
                documented[kind] = fields
        assert documented == FIELDS


def test_one_emit_path():
    """Under ``src/repro`` nothing outside ``obs/tracer.py`` calls the
    keyword front door or writes an event dict literal, and a tracer's
    ``emit`` is called from exactly the 13 instrumentation sites."""
    emit_call = re.compile(r"\btracer\.emit\(")
    # {"kind": ..., "rank": ..., "ts": ...} (profile.py's path segments
    # carry t0/t1, not ts)
    literal = re.compile(r'"kind":[^}]*?"rank":[^}]*?"ts":')
    emits, front_door, literals = {}, [], []
    for root, _, files in os.walk(SRC_ROOT):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC_ROOT).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            n = len(emit_call.findall(text))
            if n:
                emits[rel] = n
            if rel == "obs/tracer.py":
                continue
            if "rank_event(" in text:
                front_door.append(rel)
            if literal.search(text):
                literals.append(rel)
    assert front_door == [] and literals == []
    assert emits == {
        "machine/wire.py": 5, "machine/event.py": 5,
        "interp/interpreter.py": 2, "interp/vectorize.py": 1,
    }
    # ... and in tracer.py the one event-dict literal is event_dict's
    with open(os.path.join(SRC_ROOT, "obs", "tracer.py"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert len(literal.findall(text)) == 1
    assert literal.search(
        text.split("def event_dict", 1)[1].split("\ndef ", 1)[0])


# ---------------------------------------------------------------------------
# what the always-on recorder costs, counted exactly
# ---------------------------------------------------------------------------


def _python_calls(fn):
    """Python-level function calls made while *fn* runs.  The event
    backend is single-threaded, so the count is deterministic once the
    cycle collector — which would run finalizers of earlier tests'
    garbage at a point nobody controls — is held off."""
    calls = 0

    def prof(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(prof)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, result


@pytest.mark.parametrize("src,nprocs,per_event", [
    (stencil1d_source(256, 10), 8, 2.3),
    (cg_source(64, 5), 4, 1.7),
], ids=["stencil1d", "cg"])
def test_recorder_costs_one_frame_per_event(monkeypatch, recorders, src,
                                            nprocs, per_event):
    """The default run (flight recorder attached) makes as many Python
    calls per event as a traced one — one ``emit`` frame plus the
    timestamp's ``clock_estimate`` — and holds records, not dicts."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    cp = compile_program(src, Options(nprocs=nprocs, mode=Mode.INTER))

    def run(trace):
        return _python_calls(
            lambda: cp.run(trace=trace, scheduler="event"))

    run(False)  # warm every lazy path before counting
    off, _ = run(False)
    assert run(False)[0] == off
    default, res = run(None)
    traced, res_on = run(True)
    assert res.trace is None and len(recorders) == 1
    events = len(res_on.trace.events())
    assert recorders[0].events_seen == events
    assert (default - off) / events <= per_event
    assert abs((default - off) - (traced - off)) / events <= 0.05

    live = [rec for stream in recorders[0].streams for rec in stream]
    assert live
    for rec in live:
        assert type(rec) is tuple
        assert not any(isinstance(item, dict) for item in rec)
