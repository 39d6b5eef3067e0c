"""Flight-recorder and postmortem-bundle tests.

The flight recorder is a replay: an untraced run attaches no sink, and
only when a failed run leaves a bundle (``REPRO_POSTMORTEM_DIR``) and
its own sink kept no events is the same node program re-simulated on a
replica of the machine with a ``Tracer`` ring per rank.  The ring must
stay bounded (O(P · capacity) memory no matter how long the run), the
replay must record exactly what a ring attached to the failed run would
have held, and a run that dies (deadlock, collective mismatch, injected
crash, run-time error, timeout on any backend; crashed service worker)
must leave one complete JSON bundle behind, whichever sink the run had.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.apps.stencil import stencil1d_source
from repro.core.driver import compile_program
from repro.core.options import Mode, Options
from repro.machine import (
    FREE,
    IPSC860,
    SCHEDULERS,
    FaultPlan,
    Machine,
    resolve_scheduler,
)
from repro.machine.event import EventScheduler
from repro.machine.network import SimulationError
from repro.obs import FIELDS, Tracer
from repro.obs.flightrec import dump_postmortem
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceCompiler, WorkerPool
from repro.settings import DEFAULT_CAPACITY, Settings

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
        assert Settings.from_env().flightrec == expect

    def test_ring_is_bounded(self):
        fr = Tracer(2, capacity=8)
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
        fr = Tracer(P, capacity=4)
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
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        # an untraced run has no sink, whatever the ring size
        assert Machine(2).tracer is None
        assert Machine(2).flightrec == DEFAULT_CAPACITY
        monkeypatch.setenv("REPRO_FLIGHTREC", "64")
        assert Machine(2).tracer is None and Machine(2).flightrec == 64
        monkeypatch.setenv("REPRO_FLIGHTREC", "0")
        assert Machine(2).tracer is None and Machine(2).flightrec == 0
        # metrics alone: a ring that keeps nothing carries the fold
        m = Machine(2, metrics=MetricsRegistry())
        assert m.tracer.capacity == 0 and m.tracer.fold is not None
        # an explicit trace is the sink; trace=False also means no
        # events in a bundle
        monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
        t = Tracer()
        assert Machine(2, trace=t).tracer is t
        assert Machine(2, trace=True).tracer.capacity is None
        assert Machine(2, trace=False).tracer is None
        assert Machine(2, trace=False).flightrec == 0
        # ... and only an asked-for trace reaches the result
        cp = compile_program(stencil1d_source(32, 1),
                             Options(nprocs=2, mode=Mode.INTER))
        assert cp.run().trace is None
        assert cp.run(trace=t).trace is t
        ring = Tracer(capacity=8)
        assert cp.run(trace=ring).trace is ring


@pytest.mark.parametrize("scheduler", SCHEDULER_SPELLINGS)
def test_events_seen_is_exact(tmp_path, monkeypatch, recorders, scheduler):
    """A run that succeeds makes no ring; the replay of one that fails
    is offered exactly the rank events a full-fidelity trace of the
    same failing run records — on both backends."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    cp = compile_program(stencil1d_source(256, 10),
                         Options(nprocs=8, mode=Mode.INTER))
    assert cp.run(scheduler=scheduler).trace is None
    assert recorders == []

    def run(trace):
        with pytest.raises(SimulationError, match="deadlock"):
            Machine(4, IPSC860, timeout_s=10.0, scheduler=scheduler,
                    trace=trace).run(_ring_then_hang)

    full = Tracer(sample=False)
    run(full)
    assert recorders == []  # the trace kept events: nothing replayed
    run(None)
    (fr,) = recorders
    assert fr.capacity == DEFAULT_CAPACITY
    assert fr.events_seen == len(full.events()) > 0
    assert fr.events() == full.events()  # a ring this size holds them all


# ---------------------------------------------------------------------------
# postmortem bundles
# ---------------------------------------------------------------------------


def _load_bundle(directory, kind):
    files = sorted(directory.glob(f"postmortem-{kind}-*.json"))
    assert files, f"no {kind} bundle in {directory}"
    return json.loads(files[-1].read_text())


def _ring_then_hang(ctx):
    """Four ranks pass a token round a ring and meet at a barrier;
    then rank 3 waits for a message nobody sends."""
    r, p = ctx.rank, ctx.nprocs
    ctx.send((r + 1) % p, 1, r, 8)
    yield from ctx.recv_y((r - 1) % p, 1)
    yield from ctx.barrier_y()
    if r == 3:
        yield from ctx.recv_y(0, 9)


def _traced_with_a_phase():
    t = Tracer(sample=False)
    with t.phase("setup"):  # a host event is not a rank event
        pass
    return t


@pytest.mark.parametrize("sink", [
    lambda: None, _traced_with_a_phase, lambda: Tracer(sample="2:1"),
], ids=["default-ring", "full-trace", "sampled"])
def test_bundle_events_seen_is_every_offered_event(tmp_path, monkeypatch,
                                                   sink):
    """``events_seen`` counts the rank events the run offered its sink,
    whichever sink it was: not the host events a trace also holds, and
    not only the ones sampling kept."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))

    def run(trace):
        with pytest.raises(SimulationError, match="deadlock"):
            Machine(4, FREE, timeout_s=10.0, scheduler="event",
                    trace=trace).run(_ring_then_hang)

    full = Tracer(sample=False)
    run(full)
    offered = sum(map(len, full.streams))
    assert offered == 30
    for f in tmp_path.iterdir():
        f.unlink()
    run(sink())
    bundle = _load_bundle(tmp_path, "simulation-error")
    assert bundle["events"]["events_seen"] == offered


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


# ---------------------------------------------------------------------------
# the replay: a failed untraced run's bundle holds what a ring would have
# ---------------------------------------------------------------------------


def _bundle_of(directory, monkeypatch, run) -> dict:
    """The one bundle *run* — which must fail — leaves in *directory*."""
    directory.mkdir()
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(directory))
    with pytest.raises(SimulationError):
        run()
    (path,) = directory.glob("postmortem-simulation-error-*.json")
    return json.loads(path.read_text())


def _mismatch(ctx):
    """Ranks 0-2 send rank 3 a token and enter an allreduce; rank 3
    collects the tokens and enters a barrier."""
    if ctx.rank == 3:
        for src in range(3):
            yield from ctx.recv_y(src, 1)
        yield from ctx.barrier_y()
    else:
        ctx.send(3, 1, ctx.rank, 8)
        yield from ctx.allreduce_y(1.0, "sum")


def _gather_then_reply(ctx):
    """Every other rank sends rank 1 a token and waits for its reply;
    rank 1 collects the tokens, computes past its injected crash and
    replies."""
    if ctx.rank == 1:
        for src in (0, 2, 3):
            yield from ctx.recv_y(src, 1)
        ctx.compute(10 ** 6)
        for dst in (0, 2, 3):
            ctx.send(dst, 5, 1, 8)
    else:
        ctx.send(1, 1, ctx.rank, 8)
        yield from ctx.recv_y(1, 5)


def _ping_pong(ctx):
    """Ranks 0 and 1 trade a message forever; rank 2 waits for a
    message nobody sends, so only the wall clock ends the run."""
    if ctx.rank == 2:
        yield from ctx.recv_y(0, 9)
    peer = 1 - ctx.rank
    if ctx.rank == 0:
        ctx.send(peer, 1, 0, 8)
    while True:
        yield from ctx.recv_y(peer, 1)
        ctx.compute(10)
        ctx.send(peer, 1, 0, 8)


#: a run-time error in a compiled program: rank 0 fails while the other
#: ranks wait in the broadcast of the value it was computing, so the
#: free-running thread backend stops every rank at the same place too
OOB = """
program p
real x(16), r(10)
distribute x(block)
x(1) = r(11)
do i = 2, 16
  x(i) = x(1)
enddo
end
"""


def _machine_case(program, faults=None):
    def run(scheduler, trace):
        Machine(4, IPSC860, timeout_s=10.0, faults=faults,
                scheduler=scheduler, trace=trace).run(program)
    return run


def _compiled_case(scheduler, trace):
    cp = compile_program(OOB, Options(nprocs=4, mode=Mode.INTER))
    cp.run(scheduler=scheduler, trace=trace, timeout_s=10.0)


REPLAY_CASES = {
    "deadlock": _machine_case(_ring_then_hang),
    "collective-mismatch": _machine_case(_mismatch),
    "crash-fault": _machine_case(_gather_then_reply,
                                 FaultPlan(crash_at={1: 1e5})),
    "index-error": _compiled_case,
}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replay_holds_what_a_ring_would_have(tmp_path, monkeypatch,
                                             scheduler, case):
    """The bundle of a failed untraced run equals, event for event, the
    bundle of the same failing run given the ring up front.  Each case
    fails while every other rank is finished or waiting on the failing
    one, so the thread backend's free-running ranks stop at the same
    place in every run."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    run = REPLAY_CASES[case]
    replayed = _bundle_of(tmp_path / "replayed", monkeypatch,
                          lambda: run(scheduler, None))
    ring = _bundle_of(tmp_path / "ring", monkeypatch,
                      lambda: run(scheduler, Tracer(capacity=256)))
    assert replayed["replayed"] is True and ring["replayed"] is False
    assert replayed["events_note"] is None
    assert replayed["events"]["events_seen"] > 0
    assert replayed["events"] == ring["events"]
    assert replayed["error"]["type"] == ring["error"]["type"]


def test_event_timeout_replays_to_its_dispatch(tmp_path, monkeypatch):
    """A wall-clock timeout on the event loop is replayed up to the
    dispatch it was declared at: its bundle equals that of the same
    run given the ring up front and stopped at the same dispatch."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)

    def run(trace):
        Machine(3, IPSC860, timeout_s=0.3, scheduler="event",
                trace=trace).run(_ping_pong)

    replayed = _bundle_of(tmp_path / "replayed", monkeypatch,
                          lambda: run(None))
    assert "wall-clock timeout" in replayed["error"]["message"]
    dispatches = replayed["stats"]["dispatches"]
    monkeypatch.setattr(EventScheduler, "stop_after", dispatches)
    ring = _bundle_of(tmp_path / "ring", monkeypatch,
                      lambda: run(Tracer(capacity=256)))
    assert ring["stats"]["dispatches"] == dispatches
    assert replayed["replayed"] is True
    assert replayed["events"]["events_seen"] > 0
    assert replayed["events"] == ring["events"]


def test_threads_timeout_is_not_replayed(tmp_path, monkeypatch, recorders):
    """On the thread backend where the ranks stood at a wall-clock
    timeout is host timing: the bundle carries no events and says
    why."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    bundle = _bundle_of(tmp_path / "pm", monkeypatch, lambda: Machine(
        3, IPSC860, timeout_s=0.3, scheduler="threads").run(_ping_pong))
    assert "wall-clock timeout" in bundle["error"]["message"]
    assert bundle["events"] is None and bundle["replayed"] is False
    assert "not replayed" in bundle["events_note"]
    assert bundle["deadlock"] is not None


def test_no_bundle_no_replay(monkeypatch, recorders):
    """Without REPRO_POSTMORTEM_DIR a failed run is not re-simulated."""
    monkeypatch.delenv("REPRO_POSTMORTEM_DIR", raising=False)
    with pytest.raises(SimulationError, match="deadlock"):
        Machine(4, FREE, timeout_s=10.0).run(_ring_then_hang)
    assert recorders == []


def test_flightrec_zero_means_no_events(tmp_path, monkeypatch, recorders):
    monkeypatch.setenv("REPRO_FLIGHTREC", "0")
    bundle = _bundle_of(tmp_path / "pm", monkeypatch, lambda: Machine(
        4, FREE, timeout_s=10.0).run(_ring_then_hang))
    assert recorders == []
    assert bundle["events"] is None and bundle["replayed"] is False
    assert bundle["deadlock"] is not None


def test_a_replay_that_does_not_fail_says_so(tmp_path, monkeypatch):
    """A node program whose failure the replay does not reproduce (it
    depends on state outside the simulation) still leaves its events,
    marked as the end of a completed run."""
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    runs = []

    def fails_once(ctx):
        r, p = ctx.rank, ctx.nprocs
        ctx.send((r + 1) % p, 1, r, 8)
        yield from ctx.recv_y((r - 1) % p, 1)
        if r == 0:
            runs.append(1)
            if len(runs) == 1:
                raise RuntimeError("only the first time")

    bundle = _bundle_of(tmp_path / "pm", monkeypatch, lambda: Machine(
        4, FREE, timeout_s=10.0).run(fails_once))
    assert len(runs) == 2
    assert bundle["replayed"] is True
    assert "did not fail" in bundle["events_note"]
    assert bundle["events"]["events_seen"] > 0


def test_rank_error_is_one_line_with_its_traceback_bundled(tmp_path,
                                                          monkeypatch):
    """A rank's Python error surfaces as one message line; the rank's
    traceback is on the error and in the bundle, not in the message."""
    bundle = _bundle_of(tmp_path / "pm", monkeypatch,
                        lambda: _compiled_case("event", None))
    assert "\n" not in bundle["error"]["message"]
    assert bundle["error"]["message"].startswith("node ")
    assert "Traceback (most recent call last)" in \
        bundle["error"]["traceback"]
    with pytest.raises(SimulationError) as info:
        _compiled_case("event", None)
    assert "\n" not in str(info.value)
    assert info.value.traceback.startswith("Traceback")


class TestWorkerCrashBundle:
    def test_crashed_worker_dumps_bundle(self, tmp_path, monkeypatch):
        """A SIGKILLed compile worker is discarded, counted in the
        restart metrics, and leaves a worker-crash bundle — while the
        request itself still completes on the replacement worker."""
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
