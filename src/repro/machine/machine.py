"""The simulated MIMD distributed-memory machine.

A :class:`Machine` runs the same node program (SPMD) on every simulated
processor; each node sees a :class:`ProcContext` — its rank, virtual
clock, and communication primitives.  The default backend is the
single-threaded event loop (:mod:`repro.machine.event`);
``scheduler="threads"`` selects the free-running thread-per-rank oracle.
Both run the same node programs: generator functions that enter every
operation that can block with ``yield from ctx.<op>_y(...)``.
Exceptions on any node abort the whole run: the remaining ranks are
signalled and raise at their next network operation, every node thread
is joined with a bound, and the *first* failure by virtual time is
re-raised on the caller's thread (secondary teardown aborts never shadow
the primary error).

Resilience hooks:

* ``faults=`` — a :class:`~repro.machine.faults.FaultPlan` injecting
  deterministic delay jitter, drops-with-retransmit, per-rank compute
  slowdowns, and crash-at-clock faults (``REPRO_FAULTS`` when unset);
* ``timeout_s=`` — the wall-clock safety-net timeout
  (``REPRO_SIM_TIMEOUT`` when unset; deadlocks are normally detected
  instantly by the wait-for graph, long before this fires).
"""

from __future__ import annotations

import threading
import time
import traceback
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from .costmodel import CostModel, IPSC860
from .deadlock import DeadlockDetector, DeadlockReport
from .faults import FaultPlan
from .network import (
    AbortError,
    CollectiveContext,
    Network,
    SimulationError,
)
from .scheduler import resolve_scheduler
from .stats import RunStats
from .topology import Topology, resolve_topology
from .wire import Wire
from ..obs import resolve_trace
from ..obs.flightrec import (
    FlightRecorder,
    dump_postmortem,
    flightrec_capacity,
)
from ..obs.metrics import SimMetrics, resolve_metrics


class ProcContext:
    """One node processor: rank, virtual clock, and communication ops.

    Compute charges (``compute``/``loop_tick``/``guard_tick``) are
    *batched*: they accumulate exact integer counters and convert to
    virtual time only when the clock is observed (a communication call,
    a direct ``ctx.clock`` read, end of run).  Between observation
    points only the counter totals matter, so the scalar interpreter
    path (one ``compute`` per statement instance) and the vectorized
    block path (one ``compute`` per loop nest) produce bit-identical
    clocks, work counts, and guard statistics.  Batching also removes a
    stats-lock acquisition per guard — a measurable win for run-time
    resolution, which executes one guard per array element.
    """

    def __init__(self, rank: int, machine: "Machine") -> None:
        self.rank = rank
        self.machine = machine
        self._clock = 0.0  # virtual µs (flushed)
        self._work = 0.0   # scalar operations executed (flushed)
        self.cost = machine.cost
        # pending (unflushed) charges — exact counts, not times
        self._ops = 0        # compute ops
        self._loops = 0      # loop iterations
        self._guard_ops = 0  # guard condition ops
        self._guards = 0     # guard evaluations (for RunStats)
        # fault-injection state for this rank
        f = machine.faults
        self._slow = f.rank_slowdown(rank) if f is not None else 1.0
        self._crash_at = f.crash_clock(rank) if f is not None else None

    @property
    def nprocs(self) -> int:
        return self.machine.nprocs

    @property
    def stats(self) -> RunStats:
        return self.machine.stats

    # -- virtual clock -------------------------------------------------------

    def _flush(self) -> None:
        """Convert pending charges to time in a fixed order (the order is
        part of the bit-for-bit contract between execution paths)."""
        if self._ops:
            self._clock += self._ops * self.cost.flop * self._slow
            self._work += self._ops
            self._ops = 0
        if self._loops:
            self._clock += self._loops * self.cost.loop_overhead * self._slow
            self._loops = 0
        if self._guard_ops:
            self._clock += self._guard_ops * self.cost.flop * self._slow
            self._guard_ops = 0
        if self._guards:
            self.stats.record_guards(self._guards)
            self._guards = 0

    def _maybe_crash(self) -> None:
        """Injected crash-at-clock fault, checked at communication
        points (so a crash surfaces within one virtual exchange)."""
        if self._crash_at is None:
            return
        self._flush()
        if self._clock >= self._crash_at:
            at = self._crash_at
            self._crash_at = None
            raise SimulationError(
                f"injected crash: rank {self.rank} failed at virtual "
                f"clock {self._clock:.3f} µs (crash scheduled at {at:g})"
            )

    def clock_estimate(self) -> float:
        """The clock a flush *would* produce, without performing one.

        Trace instrumentation must use this instead of ``clock``: an
        actual flush at a trace point would change the floating-point
        summation order of the batched charges and perturb the
        simulation, breaking the traced-vs-untraced bit-identity
        contract.  Mirrors the additive order of :meth:`_flush`.
        """
        t = self._clock
        if self._ops:
            t += self._ops * self.cost.flop * self._slow
        if self._loops:
            t += self._loops * self.cost.loop_overhead * self._slow
        if self._guard_ops:
            t += self._guard_ops * self.cost.flop * self._slow
        return t

    @property
    def tracer(self):
        return self.machine.tracer

    @property
    def clock(self) -> float:
        self._flush()
        return self._clock

    @clock.setter
    def clock(self, value: float) -> None:
        self._flush()
        self._clock = value

    @property
    def work(self) -> float:
        self._flush()
        return self._work

    # -- computation --------------------------------------------------------

    def compute(self, ops: float) -> None:
        """Charge *ops* scalar operations (batched)."""
        self._ops += ops

    def loop_tick(self, iters: int = 1) -> None:
        self._loops += iters

    def guard_tick(self, ops: float = 1.0, count: int = 1) -> None:
        self._guard_ops += ops
        self._guards += count

    # -- point-to-point ------------------------------------------------------

    def send(self, dst: int, tag: int, payload: Any, nbytes: int,
             origin: Optional[str] = None) -> None:
        self._maybe_crash()
        self.clock = self.machine.network.send(
            self.rank, dst, tag, payload, nbytes, self.clock, origin=origin
        )

    def recv(self, src: int, tag: int, origin: Optional[str] = None) -> Any:
        self._maybe_crash()
        payload, self.clock = self.machine.network.recv(
            self.rank, src, tag, self.clock, origin=origin
        )
        return payload

    # -- collectives ----------------------------------------------------------

    def broadcast(self, root: int, payload: Any, nbytes: int,
                  consume: Any = None, origin: Optional[str] = None) -> Any:
        self._maybe_crash()
        data, self.clock = self.machine.collectives.broadcast(
            self.rank, root, payload, nbytes, self.clock, consume=consume,
            origin=origin
        )
        return data

    def allreduce(self, value: Any, op: str, nbytes: int = 8,
                  origin: Optional[str] = None) -> Any:
        self._maybe_crash()
        result, self.clock = self.machine.collectives.allreduce(
            self.rank, value, op, nbytes, self.clock, origin=origin
        )
        return result

    def barrier(self, origin: Optional[str] = None) -> None:
        self._maybe_crash()
        self.clock = self.machine.collectives.barrier(
            self.rank, self.clock, origin=origin
        )

    def exchange(self, outgoing: dict[int, Any], nbytes_out: int,
                 origin: Optional[str] = None) -> dict[int, Any]:
        self._maybe_crash()
        incoming, self.clock = self.machine.collectives.exchange(
            self.rank, outgoing, nbytes_out, self.clock, origin=origin
        )
        return incoming

    # -- the generator form node programs are written in ---------------------
    #
    # ``x = yield from ctx.recv_y(src, tag)`` runs unchanged on both
    # backends.  On the event loop these suspend the rank
    # (:class:`~repro.machine.event.EventProcContext`); on a rank's own
    # thread the blocking call above simply waits, so each is a
    # generator that never yields (the unreachable ``yield`` only makes
    # it one).

    def recv_y(self, src: int, tag: int, origin: Optional[str] = None
               ) -> Generator[None, None, Any]:
        return self.recv(src, tag, origin=origin)
        yield

    def broadcast_y(self, root: int, payload: Any, nbytes: int,
                    consume: Any = None, origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        return self.broadcast(root, payload, nbytes, consume=consume,
                              origin=origin)
        yield

    def allreduce_y(self, value: Any, op: str, nbytes: int = 8,
                    origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        return self.allreduce(value, op, nbytes, origin=origin)
        yield

    def barrier_y(self, origin: Optional[str] = None
                  ) -> Generator[None, None, None]:
        return self.barrier(origin=origin)
        yield

    def exchange_y(self, outgoing: dict[int, Any], nbytes_out: int,
                   origin: Optional[str] = None
                   ) -> Generator[None, None, dict[int, Any]]:
        return self.exchange(outgoing, nbytes_out, origin=origin)
        yield


def _run_to_completion(coro: Generator[None, None, None]) -> None:
    """The synchronous driver of the ``threads`` backend: on a rank's
    own thread every blocking op waits inline, so a node program runs
    straight to ``StopIteration``.  A yield means it suspended without
    the event loop to resume it; that is raised inside the program, at
    the yield, so the run fails with the usual per-rank error report."""
    try:
        coro.send(None)
        coro.throw(SimulationError(
            "node program yielded on the threads backend, where "
            "blocking operations never suspend"
        ))
    except StopIteration:
        pass


class Machine:
    """P simulated node processors plus network and collectives.

    Two interchangeable backends drive the node programs (selected via
    ``scheduler=`` / ``REPRO_SCHEDULER``, default ``event``):

    * ``event`` — the event-driven rank state machine
      (:mod:`repro.machine.event`): one rank executes at a time,
      dispatched in deterministic (virtual time, rank) order by a
      calendar heap over generator coroutines, with no threads, no
      locks and single-rendezvous collectives;
    * ``threads`` — the free-running thread-per-rank oracle.

    Results, virtual clocks, and message/byte statistics are
    bit-identical across backends (virtual time is dataflow-determined;
    ``tests/test_scheduler_differential.py`` enforces it).

    The interconnect defaults to the uniform linear cost model; pass
    ``topology=`` (a name like ``"hypercube"`` / ``"torus2d:contention"``
    or a :class:`~repro.machine.topology.Topology` instance, or set
    ``REPRO_TOPOLOGY``) for hop-aware latencies, topology-shaped
    collective trees, and optional deterministic link contention.
    """

    def __init__(
        self,
        nprocs: int,
        cost: CostModel = IPSC860,
        timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        scheduler: Optional[str] = None,
        trace: Any = None,
        topology: Any = None,
        metrics: Any = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("need at least one processor")
        self.nprocs = nprocs
        self.cost = cost
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.scheduler = resolve_scheduler(scheduler)
        self.topology: Topology = resolve_topology(topology, nprocs)
        if self.topology.contention and self.scheduler == "threads":
            # link-contention arrival times depend on send order; the
            # free-running thread backend has no deterministic one
            raise ValueError(
                "link contention requires a deterministic scheduler "
                "(event), not threads"
            )
        self.stats = RunStats(nprocs=nprocs, scheduler=self.scheduler,
                              topology=self.topology.describe())
        #: the tracer the caller asked for (None for untraced runs —
        #: SPMDResult.trace mirrors this, never the flight recorder)
        self.user_tracer = resolve_trace(trace)
        self.tracer = self.user_tracer
        self.flightrec: Optional[FlightRecorder] = None
        if self.tracer is None and trace is not False:
            # always-on flight recorder: a bounded ring of recent
            # events per rank, so a run that dies leaves a postmortem
            # even though nobody requested a trace (REPRO_FLIGHTREC=0
            # disables, a number resizes the rings)
            cap = flightrec_capacity()
            if cap > 0:
                self.flightrec = FlightRecorder(nprocs, capacity=cap)
                self.tracer = self.flightrec
        self.metrics = resolve_metrics(metrics)
        self.sim_metrics: Optional[SimMetrics] = (
            None if self.metrics is None
            else SimMetrics(self.metrics, backend=self.scheduler,
                            topology=self.topology.describe())
        )
        if self.tracer is not None:
            self.tracer.ensure_ranks(nprocs)
            self.tracer.meta.update(
                nprocs=nprocs, scheduler=self.scheduler, cost=str(cost),
            )
            if not self.topology.is_uniform:
                self.tracer.meta["topology"] = self.topology.describe()
            if self.faults is not None:
                self.tracer.meta["faults"] = str(self.faults)
        self.wire = Wire(nprocs, cost, self.stats, self.faults, self.tracer,
                         self.topology, self.sim_metrics)
        if self.scheduler == "event":
            from .event import (
                EventCollectives,
                EventNetwork,
                EventScheduler,
            )

            self.detector = None
            self._sched = EventScheduler(nprocs, timeout_s,
                                         tracer=self.tracer,
                                         metrics=self.sim_metrics)
            self.network = EventNetwork(self.wire, self._sched, timeout_s)
            self.collectives = EventCollectives(self.wire, self._sched)
            self._sched.network = self.network
        else:
            self._sched = None
            self.detector = DeadlockDetector(nprocs)
            self.network = Network(self.wire, timeout_s,
                                   detector=self.detector)
            self.collectives = CollectiveContext(
                self.wire, timeout_s, detector=self.detector,
                network=self.network,
            )
            self.detector.attach(self.network, self._declare_failure)

    def _declare_failure(self, report: DeadlockReport) -> None:
        """Deadlock declared: wake every blocked rank so the run tears
        down (they raise DeadlockError/AbortError at their wait)."""
        self.network.fail()
        self.collectives.abort()

    @property
    def deadlock_report(self) -> Optional[DeadlockReport]:
        if self._sched is not None:
            return self._sched.report
        return self.detector.report

    def run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        """Run *node_program* on every node; returns per-rank results.

        *node_program* is either one callable shared by every rank or a
        sequence of per-rank callables (e.g. generated node programs,
        which differ per rank class).  Each is a generator function
        that enters blocking operations with ``yield from
        ctx.recv_y(...)`` (also ``broadcast_y`` / ``allreduce_y`` /
        ``barrier_y`` / ``exchange_y``); a plain callable is accepted
        as a program that never has to wait.  On failure the remaining ranks
        are aborted at their next network operation, all node threads
        are joined with a bound, and the first error *by virtual time*
        is re-raised (teardown aborts are only raised when no primary
        error exists).
        """
        t0 = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            return self._run(node_program)
        except SimulationError as e:
            failure = e
            raise
        finally:
            sched = self._sched
            self.stats.record_run(
                self.scheduler, time.perf_counter() - t0,
                dispatches=sched.dispatches if sched else self.nprocs,
                switches=sched.switches if sched else 0,
            )
            if self.sim_metrics is not None:
                self.sim_metrics.record_run(self.stats,
                                            failed=failure is not None)
                self.stats.record_metrics(self.metrics.snapshot())
            if failure is not None:
                # postmortem bundle (REPRO_POSTMORTEM_DIR; best-effort,
                # never masks the error being raised)
                dump_postmortem(
                    "simulation-error",
                    error=failure,
                    report=getattr(failure, "report", None)
                    or self.deadlock_report,
                    stats=self.stats,
                    recorder=self.tracer,
                    metrics=self.metrics,
                    extra={
                        "nprocs": self.nprocs,
                        "scheduler": self.scheduler,
                        "topology": self.topology.describe(),
                    },
                )

    def _run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        if self.scheduler == "event":
            from .event import EventProcContext

            ctx_cls: Any = EventProcContext
        else:
            ctx_cls = ProcContext
        contexts = [ctx_cls(r, self) for r in range(self.nprocs)]
        if isinstance(node_program, (list, tuple)):
            if len(node_program) != self.nprocs:
                raise ValueError(
                    f"need {self.nprocs} node programs, "
                    f"got {len(node_program)}"
                )
            programs = list(node_program)
        else:
            programs = [node_program] * self.nprocs
        results: list[Any] = [None] * self.nprocs
        #: (secondary, clock, rank, exc, tb) per failed rank
        errors: list[tuple[bool, float, int, BaseException, str]] = []
        lock = threading.Lock()

        def runner(ctx: ProcContext) -> Generator[None, None, None]:
            failed = False
            try:
                out = programs[ctx.rank](ctx)
                if isinstance(out, GeneratorType):
                    out = yield from out
                # else a plain callable: a node program that never yields
                results[ctx.rank] = out
            except BaseException as e:  # noqa: BLE001 - reported to caller
                failed = True
                secondary = isinstance(e, AbortError)
                with lock:
                    errors.append(
                        (secondary, ctx.clock, ctx.rank, e,
                         traceback.format_exc())
                    )
                self.network.fail()
                # break the collective barrier so peers don't hang
                self.collectives.abort()
            finally:
                self.stats.record_proc_time(ctx.rank, ctx.clock)
                self.stats.record_proc_work(ctx.rank, ctx.work)
                # a finished/failed rank may leave peers unwakeable:
                # both backends declare that deadlock immediately
                if self._sched is not None:
                    self._sched.finish(ctx.rank, ctx.clock, failed=failed)
                else:
                    self.detector.finish(ctx.rank, ctx.clock, failed=failed)

        leaked: list[str] = []
        coros = [runner(c) for c in contexts]
        if self._sched is not None:
            self._sched.run_ranks(coros)
        else:
            threads = [
                threading.Thread(
                    target=_run_to_completion, args=(coro,),
                    name=f"node-{rank}", daemon=True,
                )
                for rank, coro in enumerate(coros)
            ]
            for t in threads:
                t.start()
            # bounded join: every rank either finishes, or raises at its
            # next network operation once a failure is declared
            deadline = time.monotonic() + self.network.timeout_s + 10.0
            for t in threads:
                t.join(timeout=max(0.1, deadline - time.monotonic()))
            leaked = [t.name for t in threads if t.is_alive()]
            if leaked:  # pragma: no cover - defensive: should not happen
                self.network.fail()
                self.collectives.abort()
                for t in threads:
                    t.join(timeout=1.0)
                leaked = [t.name for t in threads if t.is_alive()]
        if leaked and not errors:  # pragma: no cover - defensive
            raise SimulationError(
                f"node threads failed to terminate: {leaked}"
            )
        return self._raise_or_results(errors, results)

    def _raise_or_results(
        self,
        errors: list[tuple[bool, float, int, BaseException, str]],
        results: list[Any],
    ) -> list[Any]:
        if errors:
            # primary failures (real errors, deadlock declarations)
            # outrank secondary teardown aborts; ties break on virtual
            # time then rank, so the report is deterministic
            errors.sort(key=lambda e: (e[0], e[1], e[2]))
            _secondary, _clock, rank, exc, tb = errors[0]
            report = getattr(exc, "report", None)
            if isinstance(exc, SimulationError):
                err = SimulationError(f"[node {rank}] {exc}")
                err.report = report
                raise err from exc
            err = SimulationError(f"node {rank} failed: {exc}\n{tb}")
            err.report = report
            raise err from exc
        return results
