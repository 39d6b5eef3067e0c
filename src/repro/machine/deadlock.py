"""Instant deadlock detection over a wait-for graph of blocked ranks.

The previous strategy — a wall-clock timeout on every blocked receive —
made a miscompiled program cost a minute of silence before failing.
This module detects the deadlock the moment it becomes true: every rank
still alive is blocked (on a matched receive or inside a collective),
no blocked receive can be satisfied by an in-flight (or retransmittable)
message, and at least one rank is waiting for something that can no
longer happen.

Ranks register their state transitions (running / blocked on recv /
blocked in collective / finished / failed) with the
:class:`DeadlockDetector`.  Registration happens *outside* the network
condition variables, so lock ordering is always detector -> queue lock
and never the reverse.  The decisive check is performed by whichever
thread makes the final transition into a fully-blocked state; a
deadlock yields a structured :class:`DeadlockReport` carried on the
raised :class:`DeadlockError`.

The wall-clock timeout remains as a safety net (configurable via
``REPRO_SIM_TIMEOUT`` / ``Machine(timeout_s=...)``), but every ordinary
deadlock — a receive nobody matches, mismatched barrier membership, a
tag mismatch — is reported immediately.

The machine's exceptions (:class:`SimulationError`,
:class:`DeadlockError`, :class:`AbortError`) are defined here, next to
the report they carry, so every machine module can import them without
a cycle; ``repro.machine.network`` re-exports them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network


class SimulationError(Exception):
    """Deadlock or protocol error inside the simulated machine."""

    report: Optional["DeadlockReport"] = None


class DeadlockError(SimulationError):
    """Deadlock detected; ``report`` carries the structured diagnosis."""

    def __init__(self, msg: str, report: Optional["DeadlockReport"] = None):
        super().__init__(msg)
        self.report = report


class AbortError(SimulationError):
    """Secondary failure: this rank was torn down because another rank
    failed first (the primary error is re-raised by ``Machine.run``)."""

#: rank states tracked by the detector
RUNNING = "running"
BLOCKED_RECV = "blocked-recv"
BLOCKED_COLLECTIVE = "blocked-collective"
FINISHED = "finished"
FAILED = "failed"


@dataclass
class RankWait:
    """One rank's state at the moment a deadlock was declared."""

    rank: int
    state: str
    #: for ``blocked-recv``: the awaited ``(src, tag)``; for
    #: ``blocked-collective``: the collective label (e.g. "barrier")
    awaiting: object = None
    clock: float = 0.0

    def describe(self) -> str:
        if self.state == BLOCKED_RECV:
            src, tag = self.awaiting
            what = f"recv(src={src}, tag={tag})"
        elif self.state == BLOCKED_COLLECTIVE:
            what = f"collective({self.awaiting})"
        else:
            what = self.state
        return f"rank {self.rank}: {what} at clock {self.clock:.3f} µs"


@dataclass
class DeadlockReport:
    """Structured diagnosis attached to a deadlock's SimulationError."""

    waits: list[RankWait] = field(default_factory=list)
    #: per-rank pending queue summary: rank -> [((src, tag), count)]
    pending: dict[int, list[tuple[tuple[int, int], int]]] = field(
        default_factory=dict
    )
    reason: str = ""

    @property
    def blocked_ranks(self) -> list[int]:
        return [w.rank for w in self.waits
                if w.state in (BLOCKED_RECV, BLOCKED_COLLECTIVE)]

    @property
    def awaited(self) -> dict[int, object]:
        """rank -> awaited (src, tag) key or collective label."""
        return {w.rank: w.awaiting for w in self.waits
                if w.state in (BLOCKED_RECV, BLOCKED_COLLECTIVE)}

    def describe(self) -> str:
        lines = [self.reason or "deadlock among blocked ranks"]
        for w in self.waits:
            lines.append("  " + w.describe())
        for rank, keys in sorted(self.pending.items()):
            if keys:
                summary = ", ".join(
                    f"(src={s}, tag={t})x{n}" for (s, t), n in keys
                )
                lines.append(f"  rank {rank} pending: {summary}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def build_report(states, details, clocks, pending_of=None) -> DeadlockReport:
    """Assemble a :class:`DeadlockReport` from per-rank state arrays.

    Shared by the thread-backend :class:`DeadlockDetector` and the
    event scheduler so both produce byte-identical diagnoses: the
    same ``waits`` snapshot, the same ``pending`` summaries (*pending_of*
    maps a rank to its queued-but-unmatched keys) and the same one-line
    ``reason`` strings.
    """
    rep = DeadlockReport()
    nprocs = len(states)
    for r in range(nprocs):
        rep.waits.append(RankWait(r, states[r], details[r], clocks[r]))
    if pending_of is not None:
        for r in range(nprocs):
            keys = pending_of(r)
            if keys:
                rep.pending[r] = keys
    blocked = [r for r, s in enumerate(states)
               if s in (BLOCKED_RECV, BLOCKED_COLLECTIVE)]
    gone = [r for r, s in enumerate(states) if s in (FINISHED, FAILED)]
    recv_waiters = [r for r in blocked if states[r] == BLOCKED_RECV]
    if recv_waiters:
        keys = ", ".join(
            f"rank {r} <- (src={details[r][0]}, "
            f"tag={details[r][1]})" for r in recv_waiters
        )
        rep.reason = (
            f"every live rank is blocked and no in-flight message "
            f"matches any awaited key ({keys})"
        )
    else:
        rep.reason = (
            f"ranks {blocked} wait in a collective that ranks "
            f"{gone} already left"
        )
    return rep


class DeadlockDetector:
    """Tracks rank states and declares deadlock at the instant the last
    live rank blocks with nothing able to wake any waiter."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._lock = threading.Lock()
        self._state = [RUNNING] * nprocs
        self._detail: list[object] = [None] * nprocs
        self._clock = [0.0] * nprocs
        self.report: Optional[DeadlockReport] = None
        self.network: Optional["Network"] = None
        self._declare_cb = None  # set by the backend: aborts the run

    def attach(self, network: "Network", declare_cb) -> None:
        self.network = network
        self._declare_cb = declare_cb

    # -- transitions -------------------------------------------------------

    def block_recv(self, rank: int, key: tuple[int, int],
                   clock: float) -> None:
        """Rank blocks on a matched receive.  Raises DeadlockError on
        this thread when this transition completes a deadlock."""
        self._transition(rank, BLOCKED_RECV, key, clock, raise_here=True)

    def block_collective(self, rank: int, label: str, clock: float) -> None:
        """Rank blocks inside a collective rendezvous."""
        self._transition(rank, BLOCKED_COLLECTIVE, label, clock,
                         raise_here=True)

    def unblock(self, rank: int) -> None:
        with self._lock:
            self._state[rank] = RUNNING
            self._detail[rank] = None

    def release_collective(self) -> None:
        """The collective barrier tripped: every rank waiting in it is
        logically running again.  Called from the barrier's action
        callback — which runs *before* any waiter is released — so a
        rank that finishes immediately afterwards can never observe a
        stale blocked-collective state and declare a false deadlock."""
        with self._lock:
            for r, s in enumerate(self._state):
                if s == BLOCKED_COLLECTIVE:
                    self._state[r] = RUNNING
                    self._detail[r] = None

    def finish(self, rank: int, clock: float, failed: bool = False) -> None:
        """Rank left its node program (cleanly or with an error).  Never
        raises — called from ``finally`` blocks — but still declares the
        deadlock it may have caused (peers wake and raise)."""
        self._transition(rank, FAILED if failed else FINISHED, None, clock,
                         raise_here=False)

    # -- the check ---------------------------------------------------------

    def _transition(self, rank, state, detail, clock, raise_here) -> None:
        with self._lock:
            self._state[rank] = state
            self._detail[rank] = detail
            self._clock[rank] = clock
            rep = self._check_locked()
        if rep is not None:
            if self._declare_cb is not None:
                self._declare_cb(rep)
            if raise_here:
                raise DeadlockError(
                    f"deadlock: {rep.reason}\n{rep.describe()}", rep
                )

    def _check_locked(self) -> Optional[DeadlockReport]:
        if self.report is not None:
            return None  # already declared
        net = self.network
        if net is None or net.failing():
            return None
        if any(s == RUNNING for s in self._state):
            return None
        blocked = [r for r, s in enumerate(self._state)
                   if s in (BLOCKED_RECV, BLOCKED_COLLECTIVE)]
        if not blocked:
            return None  # everyone finished: normal termination
        gone = [r for r, s in enumerate(self._state)
                if s in (FINISHED, FAILED)]
        # all live ranks inside the collective rendezvous and nobody
        # missing: the barrier is about to trip — a transient state of
        # the final arrival, not a deadlock
        if not gone and all(
            self._state[r] == BLOCKED_COLLECTIVE for r in blocked
        ):
            return None
        # a blocked receive with a matching in-flight message will be
        # woken (drops only delay virtual arrival, never delivery)
        recv_waiters = [r for r in blocked
                        if self._state[r] == BLOCKED_RECV]
        for r in recv_waiters:
            if net.has_pending(r, self._detail[r]):
                return None
        # collectives-only deadlock requires a missing participant;
        # with no receive waiter and no finished rank we returned above
        rep = build_report(self._state, self._detail, self._clock,
                           pending_of=net.pending_summary)
        self.report = rep
        return rep

    def _snapshot_locked(self) -> DeadlockReport:
        rep = DeadlockReport()
        for r in range(self.nprocs):
            rep.waits.append(RankWait(
                r, self._state[r], self._detail[r], self._clock[r]
            ))
        if self.network is not None:
            for r in range(self.nprocs):
                keys = self.network.pending_summary(r)
                if keys:
                    rep.pending[r] = keys
        return rep

    def snapshot(self, reason: str) -> DeadlockReport:
        """Best-effort report for the wall-clock timeout fallback."""
        with self._lock:
            if self.report is not None:
                return self.report
            rep = self._snapshot_locked()
            rep.reason = reason
            self.report = rep
            return rep
