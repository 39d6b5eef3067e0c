"""Execution statistics collected by the machine simulator.

Message counts and byte volumes are exact; times follow the
:class:`~repro.machine.costmodel.CostModel`.  These are the quantities the
benchmark harness reports for every reproduced table/figure.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Aggregate statistics of one SPMD run."""

    nprocs: int = 1
    messages: int = 0            # point-to-point messages
    bytes: int = 0               # point-to-point payload bytes
    collectives: int = 0         # broadcast/reduce operations
    collective_bytes: int = 0
    remaps: int = 0              # physical remap operations
    remap_bytes: int = 0
    flops: float = 0.0           # scalar operations executed (all procs)
    guards: int = 0              # guard (IF) evaluations executed
    #: injected-fault bookkeeping (never part of messages/bytes: faults
    #: move virtual arrival times, they do not create protocol traffic)
    faulted_messages: int = 0    # messages that were delayed or dropped
    retransmits: int = 0         # retransmission attempts simulated
    proc_times: dict[int, float] = field(default_factory=dict)  # µs
    #: scalar operations executed per processor (pure compute work,
    #: excluding waiting -- exposes load imbalance that collective
    #: synchronization hides in the clocks)
    proc_work: dict[int, float] = field(default_factory=dict)
    #: scheduler-backend bookkeeping (host-side observability; never
    #: part of the simulated quantities above)
    scheduler: str = ""          # backend that produced this run
    topology: str = "uniform"    # interconnect topology (+":contention")
    host_cpus: int = field(default_factory=lambda: os.cpu_count() or 1)
    wall_s: float = 0.0          # host wall clock of Machine.run
    dispatches: int = 0          # rank dispatches (event) / starts
    switches: int = 0            # context switches (event only)
    #: interpreter communication-schedule cache (resolved sections
    #: memoized per CommAction per rank)
    comm_cache_hits: int = 0
    comm_cache_misses: int = 0
    #: generated-node-program cache (one module per run)
    codegen_cache_hits: int = 0
    codegen_cache_misses: int = 0
    #: metrics-registry snapshot stamped by the machine at end of run
    #: (None unless metrics were enabled — REPRO_METRICS / metrics=);
    #: the same schema the daemon's ``metrics`` op and the benchmark
    #: payloads carry
    metrics: dict | None = None

    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- recording (thread-safe) ------------------------------------------

    def record_message(self, nbytes: int) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += nbytes

    def record_collective(self, nbytes: int) -> None:
        with self._lock:
            self.collectives += 1
            self.collective_bytes += nbytes

    def record_remap(self, nbytes: int, count: int = 1) -> None:
        """Remap traffic: *nbytes* of redistribution payload and *count*
        remap operations.  Ranks report their own outgoing volume with
        ``count=0`` (summed over ranks that equals the total data
        moved); rank 0 counts the operation itself."""
        with self._lock:
            self.remaps += count
            self.remap_bytes += nbytes

    def record_exchange(self, nmsgs: int, nbytes: int) -> None:
        """All-to-all personalized exchange traffic (the remap runtime):
        *nmsgs* pairwise transfers carrying *nbytes* total payload.  They
        count as point-to-point traffic — a remap is physically a bundle
        of sends — so remap data motion is visible in ``messages`` and
        ``bytes`` like every other transfer."""
        with self._lock:
            self.messages += nmsgs
            self.bytes += nbytes

    def record_fault(self, retransmits: int = 0) -> None:
        """One message perturbed by the fault plan (delay jitter and/or
        *retransmits* dropped transmission attempts)."""
        with self._lock:
            self.faulted_messages += 1
            self.retransmits += retransmits

    def record_guards(self, n: int = 1) -> None:
        with self._lock:
            self.guards += n

    def record_proc_time(self, rank: int, t: float) -> None:
        with self._lock:
            self.proc_times[rank] = t

    def record_proc_work(self, rank: int, ops: float) -> None:
        with self._lock:
            self.proc_work[rank] = ops

    def record_run(self, scheduler: str, wall_s: float,
                   dispatches: int = 0, switches: int = 0) -> None:
        """Backend bookkeeping for one completed ``Machine.run``, plus
        the run's total work (summed in rank order: the float result
        must not depend on which rank finished first)."""
        with self._lock:
            self.flops = sum(
                self.proc_work[r] for r in sorted(self.proc_work)
            )
            self.scheduler = scheduler
            self.wall_s = wall_s
            self.dispatches += dispatches
            self.switches += switches

    def record_comm_cache(self, hits: int, misses: int) -> None:
        """One rank's communication-schedule cache counters."""
        with self._lock:
            self.comm_cache_hits += hits
            self.comm_cache_misses += misses

    def record_metrics(self, snapshot: dict | None) -> None:
        """Attach the run's metrics snapshot (taken by the machine
        after the final bulk fold, so it reflects this run)."""
        with self._lock:
            self.metrics = snapshot

    def record_codegen(self, hits: int, misses: int) -> None:
        """Generated-module cache counters for this run (a hit means
        every procedure of the run's module came from the unit memo
        or disk; a miss means one was emitted)."""
        with self._lock:
            self.codegen_cache_hits += hits
            self.codegen_cache_misses += misses

    # -- reporting ---------------------------------------------------------

    @property
    def time_us(self) -> float:
        """Simulated makespan (max over processor virtual clocks)."""
        return max(self.proc_times.values(), default=0.0)

    @property
    def time_ms(self) -> float:
        return self.time_us / 1000.0

    @property
    def load_imbalance(self) -> float:
        """max/mean per-processor compute work (1.0 = perfectly
        balanced)."""
        if not self.proc_work:
            return 1.0
        vals = list(self.proc_work.values())
        mean = sum(vals) / len(vals)
        if mean <= 0:
            return 1.0
        return max(vals) / mean

    @property
    def total_messages(self) -> int:
        """Point-to-point plus collective operations."""
        return self.messages + self.collectives

    @property
    def total_bytes(self) -> int:
        """All payload bytes moved.  Remap traffic is already part of
        ``bytes`` (the exchange records it as point-to-point transfers);
        ``remap_bytes`` remains the per-category breakdown."""
        return self.bytes + self.collective_bytes

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every recorded field plus the derived
        quantities (consumed by ``fdc --stats-json`` and the benchmark
        harness).  Taken under the lock so concurrent recorders never
        produce a torn snapshot."""
        with self._lock:
            time_us = max(self.proc_times.values(), default=0.0)
            work = list(self.proc_work.values())
            mean = sum(work) / len(work) if work else 0.0
            imbalance = max(work) / mean if work and mean > 0 else 1.0
            return {
                "nprocs": self.nprocs,
                "messages": self.messages,
                "bytes": self.bytes,
                "collectives": self.collectives,
                "collective_bytes": self.collective_bytes,
                "remaps": self.remaps,
                "remap_bytes": self.remap_bytes,
                "flops": self.flops,
                "guards": self.guards,
                "faulted_messages": self.faulted_messages,
                "retransmits": self.retransmits,
                "proc_times": {
                    str(r): self.proc_times[r]
                    for r in sorted(self.proc_times)
                },
                "proc_work": {
                    str(r): self.proc_work[r]
                    for r in sorted(self.proc_work)
                },
                "scheduler": self.scheduler,
                "topology": self.topology,
                "host_cpus": self.host_cpus,
                "wall_s": self.wall_s,
                "dispatches": self.dispatches,
                "switches": self.switches,
                "comm_cache_hits": self.comm_cache_hits,
                "comm_cache_misses": self.comm_cache_misses,
                "codegen_cache_hits": self.codegen_cache_hits,
                "codegen_cache_misses": self.codegen_cache_misses,
                "metrics": self.metrics,
                "time_us": time_us,
                "time_ms": time_us / 1000.0,
                "load_imbalance": imbalance,
                "total_messages": self.messages + self.collectives,
                "total_bytes": self.bytes + self.collective_bytes,
            }

    def summary(self) -> str:
        return (
            f"P={self.nprocs}  time={self.time_ms:.3f} ms  "
            f"msgs={self.messages}  bytes={self.bytes}  "
            f"colls={self.collectives}  remaps={self.remaps}  "
            f"guards={self.guards}"
        )

    def sched_summary(self) -> str:
        """Host-side scheduler line (``fdc --report``): which backend
        ran, how long it took on the host, and how hard the dispatch
        and comm-schedule-cache machinery worked."""
        return (
            f"scheduler={self.scheduler or '?'}  "
            f"topology={self.topology or 'uniform'}  "
            f"wall={self.wall_s:.3f} s  "
            f"dispatches={self.dispatches}  switches={self.switches}  "
            f"comm-cache={self.comm_cache_hits}/"
            f"{self.comm_cache_hits + self.comm_cache_misses} hits  "
            f"codegen={self.codegen_cache_hits}/"
            f"{self.codegen_cache_hits + self.codegen_cache_misses} hits"
        )
