"""The simulated MIMD distributed-memory machine.

A :class:`Machine` runs the same node program (SPMD) on every simulated
processor; each node sees a :class:`ProcContext` — its rank, virtual
clock, and communication primitives.  A scheduler *backend object*
drives the ranks: the single-threaded event loop
(:class:`~repro.machine.event.EventScheduler`, the default) or the
free-running thread-per-rank oracle
(:class:`~repro.machine.network.ThreadBackend`, ``scheduler="threads"``).
Each provides one interface — ``Context`` (its :class:`ProcContext`
subclass, holding the five blocking ops), ``network``, ``collectives``,
``run_ranks(coros)``, ``finish(rank, clock, failed)``, ``fail()``,
``prepare_replay(replica)``, ``report``, ``dispatches`` and
``switches`` — and :class:`Machine` names a backend only where it picks
the class.  Both run the same node programs: generator functions that
enter every operation that can block with ``yield from
ctx.<op>_y(...)``; a plain callable is a program that never waits.
Exceptions on any node abort the whole run: the remaining ranks are
signalled and raise at their next network operation, and the *first*
failure by virtual time is re-raised on the caller's thread (secondary
teardown aborts never shadow the primary error).

Resilience hooks (each falls back to its ``REPRO_*`` setting when unset):

* ``faults=`` — a :class:`~repro.machine.faults.FaultPlan` injecting
  deterministic delay jitter, drops-with-retransmit, per-rank compute
  slowdowns, and crash-at-clock faults;
* ``timeout_s=`` — the wall-clock safety net (deadlocks are detected
  instantly by the wait-for graph, long before it fires).
"""

from __future__ import annotations

import threading
import time
import traceback
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from .costmodel import CostModel, IPSC860
from .deadlock import AbortError, DeadlockReport, SimulationError
from .faults import FaultPlan
from .scheduler import resolve_scheduler
from .stats import RunStats
from .topology import Topology, resolve_topology
from .wire import Wire
from ..obs import Tracer, resolve_trace
from ..obs.flightrec import dump_postmortem
from ..obs.metrics import SimMetrics, record_run, resolve_metrics
from ..settings import Settings


class ProcContext:
    """One node processor: rank, virtual clock, compute charges and
    ``send``.  The blocking ops are the backend's: each backend's
    ``Context`` subclass defines them as generators, entered with
    ``yield from`` — ``recv_y(src, tag)`` (matched on ``(src, tag)``),
    ``broadcast_y(root, payload, nbytes, consume=None)`` (*consume*
    takes the data before any participant resumes, so the root may
    pass a zero-copy view), ``allreduce_y(value, op)`` (op in sum / max
    / min / maxloc, combined in rank order), ``barrier_y()`` and
    ``exchange_y({dst: payload}, nbytes_out)`` (returns ``{src:
    payload}``).

    Compute charges (``compute``/``loop_tick``/``guard_tick``) are
    *batched*: they accumulate exact integer counters and convert to
    virtual time only when the clock is observed (a communication call,
    a direct ``ctx.clock`` read, end of run).  Between observation
    points only the counter totals matter, so scalar execution (one
    ``compute`` per statement instance) and generated numpy blocks
    (one ``compute`` per loop nest) produce bit-identical
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


def _backend_class(scheduler: str) -> type:
    """The backend object's class for a resolved scheduler name — the
    one place the machine names a backend (imported here because both
    backend modules build on :class:`ProcContext`)."""
    if scheduler == "threads":
        from .network import ThreadBackend

        return ThreadBackend
    from .event import EventScheduler

    return EventScheduler


class Machine:
    """P simulated node processors plus network and collectives.

    Two interchangeable backend objects drive the node programs
    (selected via ``scheduler=`` / ``REPRO_SCHEDULER``, default
    ``event``):

    * ``event`` — :class:`~repro.machine.event.EventScheduler`, the
      event-driven rank state machine: one rank executes at a time,
      dispatched in deterministic (virtual time, rank) order by a
      calendar heap over generator coroutines, with no threads, no
      locks and single-rendezvous collectives;
    * ``threads`` — :class:`~repro.machine.network.ThreadBackend`, the
      free-running thread-per-rank oracle.

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
        # the environment is read once per machine; explicit arguments win
        s = Settings.from_env()
        self._build(
            nprocs, cost,
            s.sim_timeout_s if timeout_s is None else timeout_s,
            faults if faults is not None else FaultPlan.from_settings(s),
            resolve_scheduler(s.scheduler if scheduler is None
                              else scheduler),
            resolve_topology(s.topology if topology is None else topology,
                             nprocs),
            resolve_trace(trace, s),
            resolve_metrics(s.metrics if metrics is None else metrics),
        )
        #: where a failed run's postmortem bundle goes (None: no bundle)
        self.postmortem_dir = s.postmortem_dir
        #: the per-rank ring size of the replay that records a failed
        #: untraced run's last events for its bundle (0: no events)
        self.flightrec = 0 if trace is False else s.flightrec

    def _build(self, nprocs: int, cost: CostModel, timeout_s: float,
               faults: Optional[FaultPlan], scheduler: str,
               topology: Topology, tracer: Optional[Tracer],
               metrics: Any) -> None:
        """Assemble the machine from resolved settings (:meth:`_replay`
        builds its replica here, without reading the environment)."""
        self.nprocs = nprocs
        self.cost = cost
        self.timeout_s = timeout_s
        self.faults = faults
        self.scheduler = scheduler
        self.topology = topology
        self.stats = RunStats(nprocs=nprocs, scheduler=scheduler,
                              topology=topology.describe())
        self.metrics = metrics
        self.postmortem_dir: Optional[str] = None
        self.flightrec = 0
        #: the run's sink: the trace the caller asked for, else a ring
        #: keeping nothing when only the metrics fold needs the records,
        #: else None — an untraced run records nothing (a failed one is
        #: replayed for its postmortem, :meth:`_replay`)
        if tracer is None and metrics is not None:
            tracer = Tracer(nprocs, capacity=0)
        self.tracer = tracer
        if tracer is not None:
            tracer.fold = None if metrics is None \
                else SimMetrics(metrics, scheduler).fold
            tracer.ensure_ranks(nprocs)
            tracer.meta.update(
                nprocs=nprocs, scheduler=scheduler, cost=str(cost),
            )
            if not topology.is_uniform:
                tracer.meta["topology"] = topology.describe()
            if faults is not None:
                tracer.meta["faults"] = str(faults)
        self.wire = Wire(nprocs, cost, self.stats, faults, tracer, topology)
        #: the scheduler backend object; ``network`` and ``collectives``
        #: are its own, exposed here for the context ops
        self.backend = _backend_class(scheduler)(self.wire, timeout_s)
        self.network = self.backend.network
        self.collectives = self.backend.collectives

    @property
    def deadlock_report(self) -> Optional[DeadlockReport]:
        return self.backend.report

    def run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        """Run *node_program* on every node; returns per-rank results.

        *node_program* is one callable every rank runs (SPMD): a
        generator function that enters blocking operations with
        ``yield from ctx.recv_y(...)`` (also ``broadcast_y`` /
        ``allreduce_y`` / ``barrier_y`` / ``exchange_y``); a plain
        callable is accepted as a program that never has to wait.  On
        failure the remaining ranks are aborted at their next network
        operation and the first error *by virtual time* is re-raised
        (teardown aborts are only raised when no primary error exists);
        with ``REPRO_POSTMORTEM_DIR`` set it also leaves one postmortem
        bundle (:meth:`_postmortem`).
        """
        t0 = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            return self._run(node_program)
        except SimulationError as e:
            failure = e
            raise
        finally:
            self.stats.record_run(
                self.scheduler, time.perf_counter() - t0,
                dispatches=self.backend.dispatches,
                switches=self.backend.switches,
            )
            if self.metrics is not None:
                record_run(self.metrics, self.scheduler, self.stats,
                           failed=failure is not None)
                self.stats.record_metrics(self.metrics.snapshot())
            if failure is not None and self.postmortem_dir is not None:
                self._postmortem(failure, node_program)

    def _postmortem(self, failure: SimulationError,
                    node_program: Callable[[ProcContext], Any]) -> None:
        """Write the failed run's bundle into ``postmortem_dir``
        (best-effort, never masks the error being raised).  Its events
        are what the run's own sink kept; when it kept none, a replay
        records them (:meth:`_replay`)."""
        sink = self.tracer
        if sink is not None and any(sink.streams):
            events, replayed, note = sink.tail(), False, None
        else:
            events, replayed, note = self._replay(node_program)
        dump_postmortem(
            "simulation-error",
            error=failure,
            report=getattr(failure, "report", None) or self.deadlock_report,
            stats=self.stats,
            events=events,
            metrics=self.metrics,
            extra={
                "nprocs": self.nprocs,
                "scheduler": self.scheduler,
                "topology": self.topology.describe(),
            },
            directory=self.postmortem_dir,
            replayed=replayed,
            note=note,
        )

    def _replay(self, node_program: Callable[[ProcContext], Any]
                ) -> tuple[Optional[dict], bool, Optional[str]]:
        """Re-run the failed program on a replica of this machine with a
        ``flightrec``-sized ring per rank: ``(events, replayed, note)``
        for the bundle.  The simulation is deterministic — virtual time
        follows dataflow, fault plans are pure functions of message
        identity — so the rings hold what a ring attached to the failed
        run would have held.  The failed backend bounds the replica's
        (``prepare_replay``): the event loop replays a wall-clock
        timeout up to the dispatch it was declared at, the thread
        backend does not replay one."""
        if not self.flightrec:
            return None, False, "REPRO_FLIGHTREC=0: no events recorded"
        ring = Tracer(self.nprocs, capacity=self.flightrec)
        replica = Machine.__new__(Machine)
        replica._build(self.nprocs, self.cost, self.timeout_s, self.faults,
                       self.scheduler, self.topology, ring, None)
        if not self.backend.prepare_replay(replica.backend):
            return None, False, (
                f"no events: a wall-clock timeout on the {self.scheduler} "
                f"backend is not replayed (where its ranks stopped is "
                f"host timing, not simulation state)")
        try:
            replica.run(node_program)
        except Exception:  # noqa: BLE001 - the failure being replayed
            return ring.tail(), True, None
        return ring.tail(), True, (
            "the replay did not fail: its rings end where a completed "
            "run ends, not at this failure")

    def _run(self, node_program: Callable[[ProcContext], Any]) -> list[Any]:
        backend = self.backend
        contexts = [backend.Context(r, self) for r in range(self.nprocs)]
        results: list[Any] = [None] * self.nprocs
        #: (secondary, clock, rank, exc, tb) per failed rank
        errors: list[tuple[bool, float, int, BaseException, str]] = []
        lock = threading.Lock()

        def runner(ctx: ProcContext) -> Generator[None, None, None]:
            failed = False
            try:
                out = node_program(ctx)
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
                # wake the blocked peers so they tear down
                backend.fail()
            finally:
                self.stats.record_proc_time(ctx.rank, ctx.clock)
                self.stats.record_proc_work(ctx.rank, ctx.work)
                # a finished/failed rank may leave peers unwakeable:
                # both backends declare that deadlock immediately
                backend.finish(ctx.rank, ctx.clock, failed=failed)

        backend.run_ranks([runner(c) for c in contexts])
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
            err = SimulationError(
                f"[node {rank}] {exc}" if isinstance(exc, SimulationError)
                else f"node {rank} failed: {exc}")
            err.report = report
            err.traceback = tb  # for the postmortem bundle, not the message
            raise err from exc
        return results
