"""Tests for the simulated MIMD machine: network, collectives, timing,
instant deadlock diagnosis, and deterministic fault injection."""

import ast
import inspect
import os
import textwrap
import threading
import time

import pytest

import repro.machine
from repro.machine import (
    FREE,
    IPSC860,
    SCHEDULERS,
    CostModel,
    FaultPlan,
    Machine,
    ProcContext,
    SimulationError,
)
from repro.settings import Settings

from .conftest import SCHEDULER_SPELLINGS


def node_threads():
    """Names of still-alive simulated node threads (should be none
    outside an active Machine.run)."""
    return [t.name for t in threading.enumerate()
            if t.name.startswith("node-")]


class TestPointToPoint:
    def test_ring_shift(self):
        def prog(ctx):
            if ctx.rank < ctx.nprocs - 1:
                ctx.send(ctx.rank + 1, 1, ctx.rank, 8)
            if ctx.rank > 0:
                return (yield from ctx.recv_y(ctx.rank - 1, 1))
            return None

        m = Machine(4, FREE)
        res = m.run(prog)
        assert res == [None, 0, 1, 2]
        assert m.stats.messages == 3
        assert m.stats.bytes == 24

    def test_tag_matching(self):
        """Receives match on (src, tag) even when messages arrive out of
        tag order."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 5, "five", 8)
                ctx.send(1, 3, "three", 8)
            elif ctx.rank == 1:
                a = yield from ctx.recv_y(0, 3)
                b = yield from ctx.recv_y(0, 5)
                return (a, b)
            return None

        m = Machine(2, FREE)
        res = m.run(prog)
        assert res[1] == ("three", "five")

    def test_send_to_self_rejected(self):
        def prog(ctx):
            ctx.send(ctx.rank, 0, "x", 8)

        with pytest.raises(SimulationError, match="itself"):
            Machine(2, FREE).run(prog)

    def test_invalid_destination(self):
        def prog(ctx):
            ctx.send(99, 0, "x", 8)

        with pytest.raises(SimulationError, match="invalid"):
            Machine(2, FREE).run(prog)

    def test_deadlock_detected(self):
        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.recv_y(0, 42)  # never sent

        with pytest.raises(SimulationError, match="deadlock|aborted"):
            Machine(2, FREE, timeout_s=0.5).run(prog)

    def test_out_of_order_tags_from_multiple_sources(self):
        """Keyed queues: a receiver drains tags in any order it likes,
        from interleaved sources, without losing or reordering messages
        within one (src, tag) stream."""

        def prog(ctx):
            if ctx.rank == 0:
                for tag in range(9, -1, -1):  # descending send order
                    ctx.send(2, tag, ("a", tag), 8)
            elif ctx.rank == 1:
                for tag in range(10):  # ascending send order
                    ctx.send(2, tag, ("b", tag), 8)
            else:
                got = []
                for tag in range(10):  # ascending receive order
                    got.append((yield from ctx.recv_y(0, tag)))
                    got.append((yield from ctx.recv_y(1, 9 - tag)))
                return got

        res = Machine(3, FREE).run(prog)
        expect = [x for t in range(10) for x in (("a", t), ("b", 9 - t))]
        assert res[2] == expect

    def test_deadlock_despite_pending_unrelated_message(self):
        """The deadlock timeout still fires when traffic is queued but
        none of it matches the awaited (src, tag)."""

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 7, "other", 8)
            else:
                yield from ctx.recv_y(0, 8)  # tag 8 never sent

        with pytest.raises(SimulationError, match="deadlock|aborted"):
            Machine(2, FREE, timeout_s=0.5).run(prog)


class TestVirtualTime:
    def test_transfer_latency_dominates_receiver_clock(self):
        cost = CostModel(alpha=100.0, beta=1.0, flop=0.0, loop_overhead=0.0,
                         copy=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 0, b"x" * 50, 50)
                return ctx.clock
            yield from ctx.recv_y(0, 0)
            return ctx.clock

        m = Machine(2, cost)
        t_send, t_recv = m.run(prog)
        assert t_send == pytest.approx(100.0)       # alpha
        assert t_recv == pytest.approx(150.0)       # alpha + 50*beta

    def test_receiver_not_rewound(self):
        """A busy receiver's clock never goes backwards on recv."""
        cost = CostModel(alpha=1.0, beta=0.0, flop=1.0, loop_overhead=0.0,
                         copy=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 0, 1, 8)
            else:
                ctx.compute(10_000)  # busy until t=10000
                yield from ctx.recv_y(0, 0)
                return ctx.clock
            return None

        m = Machine(2, cost)
        res = m.run(prog)
        assert res[1] >= 10_000

    def test_makespan_is_max_clock(self):
        def prog(ctx):
            ctx.compute(100 * (ctx.rank + 1))

        m = Machine(4, CostModel(flop=1.0))
        m.run(prog)
        assert m.stats.time_us == pytest.approx(400.0)

    def test_flop_accounting(self):
        def prog(ctx):
            ctx.compute(25)

        m = Machine(2, IPSC860)
        m.run(prog)
        assert all(
            t == pytest.approx(25 * IPSC860.flop)
            for t in m.stats.proc_times.values()
        )
        assert m.stats.flops == sum(m.stats.proc_work.values()) == 50
        assert m.stats.as_dict()["flops"] == 50


class TestCollectives:
    def test_broadcast_value(self):
        def prog(ctx):
            return (yield from ctx.broadcast_y(
                2, "data" if ctx.rank == 2 else None, 32))

        res = Machine(4, FREE).run(prog)
        assert res == ["data"] * 4

    def test_broadcast_counts_once(self):
        def prog(ctx):
            yield from ctx.broadcast_y(0, 1 if ctx.rank == 0 else None, 8)

        m = Machine(4, FREE)
        m.run(prog)
        assert m.stats.collectives == 1

    def test_allreduce_ops(self):
        def prog(ctx):
            s = yield from ctx.allreduce_y(ctx.rank + 1, "sum")
            mx = yield from ctx.allreduce_y(ctx.rank, "max")
            mn = yield from ctx.allreduce_y(ctx.rank, "min")
            return (s, mx, mn)

        res = Machine(4, FREE).run(prog)
        assert all(r == (10, 3, 0) for r in res)

    def test_allreduce_maxloc(self):
        def prog(ctx):
            mags = [3.0, 9.0, 9.0, 1.0]
            return (yield from ctx.allreduce_y(
                (mags[ctx.rank], ctx.rank), "maxloc"))

        res = Machine(4, FREE).run(prog)
        # ties break to the smaller index
        assert all(r == (9.0, 1) for r in res)

    def test_collective_time_tree(self):
        cost = CostModel(alpha=10.0, beta=0.0, flop=0.0, loop_overhead=0.0,
                         copy=0.0)

        def prog(ctx):
            yield from ctx.broadcast_y(0, 0 if ctx.rank == 0 else None, 0)
            return ctx.clock

        res = Machine(8, cost).run(prog)
        # log2(8) = 3 stages of alpha
        assert all(t == pytest.approx(30.0) for t in res)

    def test_barrier_synchronizes_clocks(self):
        cost = CostModel(alpha=0.0, beta=0.0, flop=1.0, loop_overhead=0.0,
                         copy=0.0)

        def prog(ctx):
            ctx.compute(100 * (ctx.rank + 1))
            yield from ctx.barrier_y()
            return ctx.clock

        res = Machine(4, cost).run(prog)
        assert all(t == pytest.approx(400.0) for t in res)

    def test_exchange(self):
        def prog(ctx):
            out = {dst: f"{ctx.rank}->{dst}"
                   for dst in range(ctx.nprocs) if dst != ctx.rank}
            inc = yield from ctx.exchange_y(out, 8)
            return sorted(inc.values())

        res = Machine(3, FREE).run(prog)
        assert res[0] == ["1->0", "2->0"]
        assert res[2] == ["0->2", "1->2"]

    def test_exchange_records_point_to_point_traffic(self):
        """A remap exchange is physically a bundle of sends: its traffic
        must land in the point-to-point message/byte counts."""

        def prog(ctx):
            out = {dst: b"x" * 8
                   for dst in range(ctx.nprocs) if dst != ctx.rank}
            yield from ctx.exchange_y(out, 8 * len(out))

        m = Machine(3, FREE)
        m.run(prog)
        assert m.stats.messages == 6       # 3 ranks x 2 destinations
        assert m.stats.bytes == 3 * 16     # each rank contributed 16 B
        assert m.stats.total_bytes == m.stats.bytes


class TestDeadlockDiagnostics:
    """Deadlocks are declared the instant they become true — by the
    wait-for graph on the thread backend, natively ("no rank runnable")
    on the event loop — with identical structured reports.
    With a 60 s safety-net timeout, each case must still fail well
    under a second on both backends."""

    @pytest.fixture(autouse=True, params=SCHEDULER_SPELLINGS,
                    ids=list(SCHEDULER_SPELLINGS))
    def _backend(self, request):
        self.scheduler = request.param

    def _deadlock(self, nprocs, prog):
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as ei:
            Machine(nprocs, FREE, timeout_s=60.0,
                    scheduler=self.scheduler).run(prog)
        assert time.monotonic() - t0 < 1.0, "detection was not instant"
        assert not node_threads(), "leaked node threads"
        report = ei.value.report
        assert report is not None, "no DeadlockReport attached"
        return ei.value, report

    def test_recv_with_no_sender(self):
        def prog(ctx):
            if ctx.rank == 2:
                yield from ctx.recv_y(0, 42)  # never sent

        err, rep = self._deadlock(3, prog)
        assert rep.blocked_ranks == [2]
        assert rep.awaited[2] == (0, 42)
        assert "src=0" in str(err) and "tag=42" in str(err)

    def test_mismatched_barrier_membership(self):
        def prog(ctx):
            if ctx.rank != 0:  # rank 0 skips the barrier and finishes
                yield from ctx.barrier_y()

        _, rep = self._deadlock(3, prog)
        assert rep.blocked_ranks == [1, 2]
        assert rep.awaited[1] == "barrier"
        assert "collective" in rep.reason

    def test_tag_mismatch(self):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.send(1, 7, "payload", 8)
            else:
                yield from ctx.recv_y(0, 8)  # tag 8 never sent

        _, rep = self._deadlock(2, prog)
        assert rep.awaited[1] == (0, 8)
        # the mismatched message shows up in rank 1's pending summary
        assert rep.pending[1] == [((0, 7), 1)]

    def test_cyclic_recv_wait(self):
        """Two ranks each waiting on the other: a wait-for cycle."""

        def prog(ctx):
            yield from ctx.recv_y(1 - ctx.rank, 0)

        _, rep = self._deadlock(2, prog)
        assert rep.blocked_ranks == [0, 1]
        assert rep.awaited == {0: (1, 0), 1: (0, 0)}

    def test_recv_from_finished_rank(self):
        """A rank that already finished can never satisfy the wait."""

        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.recv_y(0, 0)

        _, rep = self._deadlock(2, prog)
        waits = {w.rank: w.state for w in rep.waits}
        assert waits[0] == "finished"
        assert waits[1] == "blocked-recv"

    def test_collective_vs_recv_split(self):
        """One rank in a barrier, one in a recv: neither can advance."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier_y()
            else:
                yield from ctx.recv_y(0, 9)

        _, rep = self._deadlock(2, prog)
        assert rep.awaited == {0: "barrier", 1: (0, 9)}

    def test_correct_barrier_heavy_program_not_flagged(self):
        """Regression guard for the release race: a rank finishing right
        as a barrier trips must not observe stale blocked states."""

        def prog(ctx):
            for i in range(200):
                if ctx.rank == 0:
                    ctx.send(1, i, i, 8)
                elif ctx.rank == 1:
                    assert (yield from ctx.recv_y(0, i)) == i
                yield from ctx.barrier_y()
            return ctx.rank

        for _ in range(5):
            assert Machine(3, FREE,
                           scheduler=self.scheduler).run(prog) == [0, 1, 2]
        assert not node_threads()

    def test_report_describe_lists_every_rank(self):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv_y(3, 1)

        _, rep = self._deadlock(4, prog)
        text = rep.describe()
        for r in range(4):
            assert f"rank {r}" in text

    # -- mismatched collectives: a diagnosis, not a wrong answer ----------
    #
    # The ranks of one rendezvous entered different collectives (or the
    # same one with a different op / root).  Which rank arrives first is
    # free on ``threads``, so the checks are order-insensitive.

    def _mismatch(self, prog, *named):
        t0 = time.monotonic()
        with pytest.raises(SimulationError) as ei:
            Machine(3, IPSC860, timeout_s=60.0,
                    scheduler=self.scheduler).run(prog)
        assert time.monotonic() - t0 < 1.0, "diagnosis was not instant"
        assert not node_threads(), "leaked node threads"
        text = str(ei.value)
        assert "collective mismatch" in text
        for name in named:
            assert name in text, (name, text)

        # a correct collective on a fresh machine is unaffected
        def ok(ctx):
            return (yield from ctx.allreduce_y(float(ctx.rank + 1), "sum"))

        assert Machine(3, IPSC860,
                       scheduler=self.scheduler).run(ok) == [6.0] * 3

    def test_barrier_vs_exchange_mismatch(self):
        """Not a successful run with rank 0's payload silently dropped."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier_y()
                return "barrier"
            return (yield from ctx.exchange_y({0: "x"}, 8))

        self._mismatch(prog, "'barrier'", "'exchange'")

    def test_broadcast_vs_allreduce_mismatch(self):
        """Not a bare KeyError from the round's completion."""

        def prog(ctx):
            if ctx.rank == 0:
                return (yield from ctx.broadcast_y(0, "x", 8))
            return (yield from ctx.allreduce_y(1.0, "sum"))

        self._mismatch(prog, "'bcast'", "'reduce'")

    def test_allreduce_op_mismatch(self):
        """Not a result that depends on which rank's op the backend
        happens to keep."""

        def prog(ctx):
            return (yield from ctx.allreduce_y(
                float(ctx.rank + 1), "sum" if ctx.rank == 0 else "max"
            ))

        self._mismatch(prog, "'reduce'", "'sum'", "'max'")

    def test_broadcast_root_mismatch(self):
        def prog(ctx):
            return (yield from ctx.broadcast_y(
                0 if ctx.rank == 0 else 1, "x", 8
            ))

        self._mismatch(prog, "'bcast'", "root 0", "root 1")


class TestNodeProgramForms:
    """Node programs are generator functions; both backends run the
    same one.  A plain callable is a program that never has to wait."""

    @staticmethod
    def _ring_gen(ctx):
        ctx.send((ctx.rank + 1) % ctx.nprocs, 0, ctx.rank, 8)
        got = yield from ctx.recv_y((ctx.rank - 1) % ctx.nprocs, 0)
        yield from ctx.barrier_y()
        return got

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_generator_program_runs_on_both_backends(self, scheduler):
        before = threading.active_count()
        m = Machine(4, FREE, scheduler=scheduler)
        assert m.run(self._ring_gen) == [3, 0, 1, 2]
        assert m.stats.scheduler == scheduler
        assert threading.active_count() == before

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_plain_callable_that_never_waits_runs_on_both_backends(
            self, scheduler):
        def prog(ctx):
            ctx.compute(ctx.rank + 1)
            if ctx.rank == 0:
                ctx.send(1, 0, "early", 8)
            return ctx.rank

        m = Machine(2, FREE, scheduler=scheduler)
        assert m.run(prog) == [0, 1]
        assert m.stats.messages == 1
        assert m.stats.proc_work == {0: 1, 1: 2}
        assert not node_threads()

    def test_yield_on_threads_is_an_error(self):
        def prog(ctx):
            yield  # nothing resumes a suspended rank on this backend

        with pytest.raises(SimulationError, match="yielded on the threads"):
            Machine(2, FREE, scheduler="threads").run(prog)
        assert not node_threads()


class TestTimeoutConfig:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIMEOUT", "7")
        assert Machine(2, FREE, timeout_s=3.0).network.timeout_s == 3.0
        assert Machine(2, FREE, timeout_s=3.0,
                       scheduler="threads").network.timeout_s == 3.0

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIMEOUT", "7.5")
        assert Settings.from_env().sim_timeout_s == 7.5
        assert Machine(2, FREE).network.timeout_s == 7.5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_TIMEOUT", raising=False)
        assert Settings.from_env().sim_timeout_s == 60.0

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_TIMEOUT", "soon")
        assert Settings.from_env().sim_timeout_s == 60.0


class TestEventBackendTimeout:
    """Regression: the event backend runs the calendar loop on the
    calling thread, so a runaway (livelocking) node program used to
    escape the REPRO_SIM_TIMEOUT safety net the threads backend
    enforces via per-wait timeouts.  The loop now checks the wall-clock
    deadline periodically."""

    def test_livelock_hits_wall_clock_timeout(self):
        def prog(ctx):
            # endless ping-pong: every rank always makes progress, so
            # no deadlock is ever detectable — only the wall clock can
            # end this
            peer = 1 - ctx.rank
            i = 0
            while True:
                ctx.send(peer, i, 1, 8)
                yield from ctx.recv_y(peer, i)
                i += 1

        t0 = time.monotonic()
        m = Machine(2, FREE, scheduler="event", timeout_s=0.5)
        with pytest.raises(SimulationError) as ei:
            m.run(prog)
        assert time.monotonic() - t0 < 30
        assert "timeout" in str(ei.value)
        assert not node_threads()
        # every rank was torn down — none left suspended mid-program
        assert sorted(m.stats.proc_times) == [0, 1]

    def test_normal_program_unaffected(self):
        def prog(ctx):
            peer = 1 - ctx.rank
            for i in range(50):
                ctx.send(peer, i, ctx.rank, 8)
                yield from ctx.recv_y(peer, i)
            return ctx.rank

        assert Machine(2, FREE, scheduler="event",
                       timeout_s=20.0).run(prog) == [0, 1]


def env_plan():
    return FaultPlan.from_settings(Settings.from_env())


class TestFaultInjection:
    def _ring(self, ctx):
        nxt = (ctx.rank + 1) % ctx.nprocs
        prv = (ctx.rank - 1) % ctx.nprocs
        total = 0
        for i in range(10):
            ctx.send(nxt, i, ctx.rank + i, 8)
            total += yield from ctx.recv_y(prv, i)
            ctx.compute(50)
        return (total, (yield from ctx.allreduce_y(total, "sum")))

    def test_same_seed_reproduces_exactly(self):
        plan = FaultPlan(seed=11, delay_prob=0.5, delay_max_us=80.0,
                         drop_prob=0.2, retry_timeout_us=50.0)
        runs = []
        for _ in range(2):
            m = Machine(4, IPSC860, faults=plan)
            runs.append((m.run(self._ring), dict(m.stats.proc_times),
                         m.stats.messages, m.stats.retransmits))
        assert runs[0] == runs[1]

    def test_delivery_and_results_unchanged_only_clocks_move(self):
        m_clean = Machine(4, IPSC860)
        res_clean = m_clean.run(self._ring)
        plan = FaultPlan(seed=3, delay_prob=0.8, delay_max_us=500.0,
                         drop_prob=0.3, retry_timeout_us=100.0)
        m_chaos = Machine(4, IPSC860, faults=plan)
        res_chaos = m_chaos.run(self._ring)
        assert res_chaos == res_clean
        assert m_chaos.stats.messages == m_clean.stats.messages
        assert m_chaos.stats.bytes == m_clean.stats.bytes
        assert m_chaos.stats.collectives == m_clean.stats.collectives
        assert m_chaos.stats.faulted_messages > 0
        assert m_chaos.stats.retransmits > 0
        assert m_chaos.stats.time_us > m_clean.stats.time_us

    def test_rank_slowdown_scales_compute(self):
        def prog(ctx):
            ctx.compute(1000)
            return ctx.clock

        cost = CostModel(alpha=0.0, beta=0.0, flop=1.0, loop_overhead=0.0,
                         copy=0.0)
        res = Machine(2, cost,
                      faults=FaultPlan(slowdown={1: 2.5})).run(prog)
        assert res[0] == pytest.approx(1000.0)
        assert res[1] == pytest.approx(2500.0)

    def test_crash_at_clock_fails_cleanly(self):
        def prog(ctx):
            for i in range(100):
                ctx.compute(10)
                yield from ctx.barrier_y()
            return "survived"

        t0 = time.monotonic()
        with pytest.raises(SimulationError, match="injected crash"):
            Machine(3, CostModel(flop=1.0),
                    faults=FaultPlan(crash_at={1: 250.0})).run(prog)
        assert time.monotonic() - t0 < 2.0
        assert not node_threads()

    def test_crash_identifies_rank(self):
        def prog(ctx):
            yield from ctx.barrier_y()

        with pytest.raises(SimulationError, match=r"rank 2"):
            Machine(3, FREE,
                    faults=FaultPlan(crash_at={2: 0.0})).run(prog)

    def test_message_faults_pure_function_of_identity(self):
        plan = FaultPlan(seed=5, delay_prob=0.5, delay_max_us=100.0,
                         drop_prob=0.4)
        a = [plan.message_faults(0, 1, t, s)
             for t in range(20) for s in range(5)]
        b = [plan.message_faults(0, 1, t, s)
             for t in range(20) for s in range(5)]
        assert a == b
        for extra, retries in a:
            assert extra >= 0.0
            assert 0 <= retries <= plan.max_retries
        # some message must actually be perturbed at these probabilities
        assert any(extra > 0 for extra, _ in a)
        # a different seed perturbs a different subset
        other = FaultPlan(seed=6, delay_prob=0.5, delay_max_us=100.0,
                          drop_prob=0.4)
        assert a != [other.message_faults(0, 1, t, s)
                     for t in range(20) for s in range(5)]

    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "delay=0.5:80, drop=0.1, retry=50, slow=1:2.0, crash=2@5000",
            seed=7,
        )
        assert plan.seed == 7
        assert plan.delay_prob == 0.5 and plan.delay_max_us == 80.0
        assert plan.drop_prob == 0.1
        assert plan.retry_timeout_us == 50.0
        assert plan.slowdown == {1: 2.0}
        assert plan.crash_at == {2: 5000.0}
        assert plan.affects_messages

    def test_parse_rejects_garbage(self):
        for bad in ("frobnicate=1", "delay=often", "slow=1", "crash=2"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert env_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "delay=0.25:40")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        plan = env_plan()
        assert plan.seed == 9 and plan.delay_prob == 0.25

    def test_bad_env_seed_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SEED", "x")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert env_plan() is None  # no plan, no seed to parse
        monkeypatch.setenv("REPRO_FAULTS", "delay=0.25:40")
        with pytest.raises(ValueError, match="REPRO_FAULT_SEED 'x'"):
            env_plan()
        with pytest.raises(ValueError, match="REPRO_FAULT_SEED"):
            Machine(2, FREE)

    def test_machine_picks_up_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "slow=0:3.0")
        m = Machine(2, FREE)
        assert m.faults is not None
        assert m.faults.rank_slowdown(0) == 3.0


class TestErrors:
    def test_node_exception_propagates(self):
        def prog(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")

        with pytest.raises(SimulationError, match="boom"):
            Machine(2, FREE).run(prog)

    def test_single_proc_machine(self):
        def prog(ctx):
            ctx.compute(10)
            return ctx.rank

        m = Machine(1, FREE)
        assert m.run(prog) == [0]

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)


def test_one_wire_model_site():
    """What a message or a collective costs, records and traces is
    written in ``machine/wire.py`` only: no other module of the package
    calls the cost formulas, bumps the traffic counters or emits the
    ``net.*`` / ``coll`` events (the files defining those names aside)."""
    needles = (
        "record_message(", "record_collective(", "record_exchange(",
        "record_fault(", "send_cost(", "recv_cost(", "collective_cost(",
        "barrier_cost(", "message_faults(",
        '"net.send"', '"net.recv"', '"net.exchange"', '"coll"',
    )
    defining = {"stats.py", "costmodel.py", "topology.py", "faults.py"}
    pkg = os.path.dirname(repro.machine.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name in defining:
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            text = fh.read()
        found = [n for n in needles if n in text]
        assert found == (list(needles) if name == "wire.py" else []), name


#: the blocking ops; each backend's ``Context`` defines the ``_y`` forms
BLOCKING_OPS = ("recv", "broadcast", "allreduce", "barrier", "exchange")
#: the backend-object interface ``Machine`` calls
BACKEND_INTERFACE = ("Context", "network", "collectives", "run_ranks",
                     "finish", "fail", "report", "dispatches", "switches")
#: names of one backend's parts, and of the machine-side helpers the
#: backend objects replaced
BACKEND_PARTS = {"EventScheduler", "EventProcContext", "EventNetwork",
                 "EventCollectives", "ThreadBackend", "ThreadProcContext",
                 "Network", "CollectiveContext", "DeadlockDetector",
                 "_sched", "detector", "_declare_failure",
                 "_run_to_completion"}


def _backend_branches(source: str) -> list[str]:
    """What in *source* names one backend or branches on which one runs:
    a scheduler name, a backend part, a comparison of the scheduler or
    the backend object, or a type test of the backend object."""

    def about_backend(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Attribute)
                   and n.attr in ("scheduler", "backend")
                   or isinstance(n, ast.Name) and n.id == "backend"
                   for n in ast.walk(node))

    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Constant) \
                and node.value in SCHEDULER_SPELLINGS:
            found.append(repr(node.value))
        elif isinstance(node, ast.Name) and node.id in BACKEND_PARTS:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in BACKEND_PARTS:
            found.append(node.attr)
        elif isinstance(node, ast.Compare) and about_backend(node):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "hasattr", "type") \
                and about_backend(node):
            found.append(ast.unparse(node))
    return found


class TestOneBackendInterface:
    """The machine layer keeps one copy of each blocking op per backend
    and one interface between ``Machine`` and its backend object."""

    def test_proc_context_defines_no_blocking_op(self):
        for op in BLOCKING_OPS:
            assert not hasattr(ProcContext, op), op
            assert not hasattr(ProcContext, op + "_y"), op

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_backend_exposes_the_whole_interface(self, scheduler):
        backend = Machine(2, FREE, scheduler=scheduler).backend
        for name in BACKEND_INTERFACE:
            assert hasattr(backend, name), (scheduler, name)
        assert issubclass(backend.Context, ProcContext)
        for op in BLOCKING_OPS:
            assert not hasattr(backend.Context, op), (scheduler, op)
            assert inspect.isgeneratorfunction(
                getattr(backend.Context, op + "_y")), (scheduler, op)

    def test_machine_names_no_backend(self):
        source = inspect.getsource(Machine)
        assert _backend_branches(source) == []
        # the check sees a branch reintroduced in Machine._run
        anchor = "        backend.run_ranks("
        assert anchor in source
        for branch in ('if self.scheduler == "event":',
                       "if isinstance(backend, EventScheduler):",
                       'if hasattr(backend, "detector"):'):
            mutated = source.replace(
                anchor, f"        {branch}\n            pass\n{anchor}", 1)
            assert _backend_branches(mutated), branch
