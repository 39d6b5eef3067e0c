"""Flight-recorder and postmortem-bundle tests.

The recorder must stay bounded (O(P · capacity) memory no matter how
long the run), attach automatically to untraced runs without leaking
into ``SPMDResult.trace``, and — when ``REPRO_POSTMORTEM_DIR`` is set —
a run that dies (deadlock on any backend, crashed service worker) must
leave one complete JSON bundle behind.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import FREE, Machine, resolve_scheduler
from repro.machine.network import SimulationError
from repro.obs import FIELDS, Tracer
from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    dump_postmortem,
    flightrec_capacity,
)
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceCompiler, WorkerPool

from .conftest import SCHEDULER_SPELLINGS
from .test_service import BASE


# ---------------------------------------------------------------------------
# configuration and ring bounding
# ---------------------------------------------------------------------------


class TestCapacity:
    @pytest.mark.parametrize("env,expect", [
        (None, DEFAULT_CAPACITY),
        ("", DEFAULT_CAPACITY),
        ("1", DEFAULT_CAPACITY),
        ("on", DEFAULT_CAPACITY),
        ("0", 0),
        ("off", 0),
        ("64", 64),
        ("-3", 0),
        ("garbage", DEFAULT_CAPACITY),
    ])
    def test_parsing(self, monkeypatch, env, expect):
        if env is None:
            monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        else:
            monkeypatch.setenv("REPRO_FLIGHTREC", env)
        assert flightrec_capacity() == expect

    def test_ring_is_bounded(self):
        fr = FlightRecorder(2, capacity=8)
        for i in range(100):
            fr.rank_event(0, "net.send", float(i))
        assert fr.events_seen == 100
        assert len(fr.rank_events[0]) == 8
        # only the most recent events survive
        assert [e["ts"] for e in fr.rank_events[0]] == \
            [float(i) for i in range(92, 100)]
        tail = fr.tail()
        assert tail["capacity"] == 8 and tail["events_seen"] == 100
        assert set(tail["ranks"]) == {"0"}  # silent ranks omitted

    def test_events_seen_survives_racing_ranks(self):
        """One counter per rank, each written only by that rank's
        writers: P threads emitting at once lose no count."""
        P, N = 8, 4000
        fr = FlightRecorder(P, capacity=4)
        go = threading.Event()

        def writer(rank):
            go.wait(10.0)
            for i in range(N):
                fr.emit(rank, ("sched.dispatch", float(i), 0.0))

        threads = [threading.Thread(target=writer, args=(r,), daemon=True)
                   for r in range(P)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            go.set()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert fr.events_seen == P * N
        assert all(len(stream) == 4 for stream in fr.streams)

    def test_machine_attachment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        m = Machine(2)
        assert isinstance(m.tracer, FlightRecorder)
        assert m.user_tracer is None  # the recorder is not a user trace
        monkeypatch.setenv("REPRO_FLIGHTREC", "0")
        assert Machine(2).tracer is None
        # an explicit trace wins: no recorder rides along
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        m = Machine(2, trace=True)
        assert m.tracer is m.user_tracer
        assert isinstance(m.tracer, Tracer)
        assert not isinstance(m.tracer, FlightRecorder)


@pytest.mark.parametrize("scheduler", SCHEDULER_SPELLINGS)
def test_events_seen_is_exact(monkeypatch, recorders, scheduler):
    """The default run's recorder is offered exactly the rank events a
    full-fidelity trace of the same run records — on both backends."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    cp = compile_program(stencil1d_source(256, 10),
                         Options(nprocs=8, mode=Mode.INTER))
    res = cp.run(scheduler=scheduler)
    assert res.trace is None and len(recorders) == 1
    traced = cp.run(scheduler=scheduler, trace=Tracer(sample=False))
    assert len(recorders) == 1  # an explicit trace: no recorder
    fr = recorders[0]
    assert fr.capacity == DEFAULT_CAPACITY
    assert fr.events_seen == len(traced.trace.events()) > 0
    # every kind the full trace holds is in the rings too
    tail = fr.tail()
    assert tail["events_seen"] == fr.events_seen
    ring_kinds = {ev["kind"] for evs in tail["ranks"].values()
                  for ev in evs}
    assert ring_kinds == {ev["kind"] for ev in traced.trace.events()}


# ---------------------------------------------------------------------------
# postmortem bundles
# ---------------------------------------------------------------------------


def _load_bundle(directory, kind):
    files = sorted(directory.glob(f"postmortem-{kind}-*.json"))
    assert files, f"no {kind} bundle in {directory}"
    return json.loads(files[-1].read_text())


class TestDumpPostmortem:
    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_POSTMORTEM_DIR", raising=False)
        assert dump_postmortem("unit-test") is None

    def test_explicit_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_POSTMORTEM_DIR", raising=False)
        path = dump_postmortem("unit-test",
                               error=ValueError("boom"),
                               directory=str(tmp_path))
        assert path is not None
        bundle = json.loads((tmp_path / path.split("/")[-1]).read_text())
        assert bundle["schema"] == 1 and bundle["kind"] == "unit-test"
        assert bundle["error"] == {"type": "ValueError",
                                   "message": "boom"}

    def test_never_raises(self, tmp_path, monkeypatch):
        # un-creatable directory: the dump reports None, not an error
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR",
                           str(blocker / "nested"))
        assert dump_postmortem("unit-test") is None


@pytest.mark.parametrize("scheduler", SCHEDULER_SPELLINGS)
class TestDeadlockBundle:
    def test_deadlock_dumps_bundle(self, tmp_path, monkeypatch,
                                   scheduler):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 7, "other", 8)  # tag 7, never awaited
            else:
                yield from ctx.recv_y(0, 8)  # tag 8, never sent

        with pytest.raises(SimulationError, match="deadlock|aborted"):
            Machine(2, FREE, timeout_s=10.0,
                    scheduler=scheduler).run(prog)
        bundle = _load_bundle(tmp_path, "simulation-error")
        assert bundle["kind"] == "simulation-error"
        assert bundle["error"]["type"] in ("SimulationError",
                                           "DeadlockError")
        dl = bundle["deadlock"]
        assert dl is not None and dl["waits"]
        assert any(w["state"].startswith("blocked") for w in dl["waits"])
        assert "rank 1" in dl["describe"]
        # the flight recorder caught the run's final moments
        assert bundle["events"]["events_seen"] > 0
        assert bundle["events"]["ranks"]
        assert bundle["stats"]["nprocs"] == 2
        assert bundle["extra"]["scheduler"] == resolve_scheduler(scheduler)

    def test_bundle_events_are_schema_shaped(self, tmp_path, monkeypatch,
                                             scheduler):
        """The rings hold records; the bundle holds the documented
        event dicts, each on the rank track it is filed under."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 7, "other", 8)
            else:
                yield from ctx.recv_y(0, 8)

        with pytest.raises(SimulationError, match="deadlock|aborted"):
            Machine(2, FREE, timeout_s=10.0,
                    scheduler=scheduler).run(prog)
        ranks = _load_bundle(tmp_path, "simulation-error")["events"]["ranks"]
        sends = [ev for ev in ranks["0"] if ev["kind"] == "net.send"]
        assert [(ev["dst"], ev["tag"], ev["bytes"]) for ev in sends] == \
            [(1, 7, 8)]
        assert "origin" in sends[0] and sends[0]["origin"] is None
        for rank, evs in ranks.items():
            for ev in evs:
                assert ev["rank"] == int(rank) and ev["ts"] >= 0.0
                assert set(ev) - {"kind", "rank", "ts", "dur"} <= \
                    set(FIELDS[ev["kind"]])


class TestEventGeneratorBundle:
    def test_generator_programs_dump_too(self, tmp_path, monkeypatch):
        """The event backend's native program style — generator
        coroutines — takes the same postmortem path."""
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 7, "other", 8)
            else:
                yield from ctx.recv_y(0, 8)  # never sent

        with pytest.raises(SimulationError, match="deadlock|aborted"):
            Machine(2, FREE, timeout_s=10.0, scheduler="event").run(prog)
        bundle = _load_bundle(tmp_path, "simulation-error")
        assert bundle["deadlock"] is not None
        assert bundle["events"]["events_seen"] > 0


class TestWorkerCrashBundle:
    def test_crashed_worker_dumps_bundle(self, tmp_path, monkeypatch):
        """A SIGKILLed compile worker is discarded, counted in the
        restart metrics, and leaves a worker-crash bundle — while the
        request itself still completes on the replacement worker."""
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        pm_dir = tmp_path / "pm"
        monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(pm_dir))
        flag = tmp_path / "die"
        flag.write_text("")
        reg = MetricsRegistry()
        pool = WorkerPool(size=1, seed=0, crash_flag=str(flag),
                          backoff_base=0.01, metrics=reg)
        try:
            ServiceCompiler(pool=pool).compile(BASE, Options(nprocs=4))
            assert pool.stats()["crashes"] >= 1
        finally:
            pool.close()
        bundle = _load_bundle(pm_dir, "worker-crash")
        assert bundle["kind"] == "worker-crash"
        assert bundle["extra"]["cause"] == "crashes"
        assert bundle["extra"]["worker_pid"] > 0
        restarts = reg.counter("fdc_worker_restarts_total")
        assert restarts.value(cause="crashes") >= 1.0
