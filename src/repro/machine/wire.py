"""The wire model: what a message or a collective costs, records, traces.

One :class:`Wire` per :class:`~repro.machine.machine.Machine` is the only
implementation of the machine model.  Both scheduler backends call it
and keep for themselves only how a rank *waits* (locks and condition
variables vs. the calendar heap):

* :meth:`Wire.post` — a send: sender overhead, topology (or contended
  link) arrival time, injected fault delay, ``RunStats``, ``net.send``;
* :meth:`Wire.take` — a matched receive: ``max(now, available)`` +
  receive overhead, ``net.recv`` (whose ``wait`` is the blocked time);
* :meth:`Wire.join` / :meth:`Wire.close_round` / :meth:`Wire.settle` —
  a collective: every rank deposits its contribution, exactly one
  participant closes the round (``max(clocks)``, the rank-ordered
  combine), and every rank then settles its own clock and ``coll``
  event.

The floating-point expression order below is part of the bit-identity
contract between backends and execution paths; do not re-associate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .costmodel import CostModel
from .faults import FaultPlan
from .network import SimulationError
from .stats import RunStats
from .topology import LinkClock, Topology


def combine_reduction(op: str, values: list) -> Any:
    """Combine allreduce contributions, already ordered by rank — NOT by
    arrival order — so floating-point reductions are deterministic."""
    if op == "sum":
        return sum(values)
    if op == "max":
        return max(values)
    if op == "min":
        return min(values)
    if op == "maxloc":
        # values are (magnitude, index) pairs; ties break to the
        # smallest index for determinism
        return max(values, key=lambda p: (p[0], -p[1]))
    raise SimulationError(f"unknown reduction {op!r}")


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any
    nbytes: int
    available_at: float  # virtual µs
    #: sender's clock when the send was posted (trace provenance: the
    #: critical-path walk jumps to the sender at this time)
    sent_at: float = 0.0
    #: source-program statement that emitted the send, when tracing
    origin: Optional[str] = None


def _describe(label: str, param: Any) -> str:
    """``'reduce' (op 'sum')`` / ``'bcast' (root 2)`` / ``'barrier'``."""
    if label == "reduce":
        return f"{label!r} (op {param!r})"
    if label == "bcast":
        return f"{label!r} (root {param!r})"
    return repr(label)


class Wire:
    """Cost, statistics and trace events of all simulated traffic."""

    def __init__(self, nprocs: int, cost: CostModel, stats: RunStats,
                 faults: Optional[FaultPlan], tracer: Any,
                 topology: Topology) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.stats = stats
        self.faults = faults
        self.tracer = tracer
        self.topo = topology
        self._faulty = faults is not None and faults.affects_messages
        self._links = LinkClock() if topology.contention else None
        #: per-(src, dst, tag) sequence numbers for deterministic fault
        #: identity.  Only rank *src* sends on a given key, so plain
        #: dict updates are race-free under the GIL.
        self._seq: dict[tuple[int, int, int], int] = {}
        # -- the open collective round (written by join) --
        #: (label, op-or-root) of the first participant, and its rank
        self._head: Optional[tuple[str, Any]] = None
        self._head_rank = 0
        self._clocks = [0.0] * nprocs
        self._values: list[Any] = [None] * nprocs
        self._nbytes = [0] * nprocs
        self._consume: list[Any] = []
        # -- the last closed round (written by close_round, read by
        # settle).  Overwrite-safe without locking: the *next* round
        # cannot close until every rank has re-joined, i.e. has already
        # settled this one.
        self._label = ""
        self._result: Any = None
        self._maxclock = 0.0
        #: straggler rank (trace-only)
        self._maxrank = 0

    # -- point-to-point ------------------------------------------------------

    def post(self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
             now: float, origin: Optional[str] = None
             ) -> tuple[_Message, float]:
        """A send posted at *now*: the message to enqueue at *dst* and
        the sender's clock after the send."""
        if not (0 <= dst < self.nprocs):
            raise SimulationError(f"send to invalid processor {dst}")
        if dst == src:
            raise SimulationError(f"processor {src} sending to itself")
        cost = self.cost
        sender_after = now + cost.send_cost(nbytes)
        # with link contention the message's head is routed over the
        # topology's link path (serializing against earlier traffic),
        # otherwise the closed-form latency applies
        if self._links is not None:
            available = self._links.traverse(
                self.topo.link_path(src, dst), now + cost.alpha,
                cost.beta * nbytes, cost.hop,
            )
        else:
            available = now + self.topo.transfer_time(cost, nbytes, src, dst)
        tracer = self.tracer
        if self._faulty:
            seqkey = (src, dst, tag)
            seq = self._seq.get(seqkey, 0)
            self._seq[seqkey] = seq + 1
            extra, retries = self.faults.message_faults(src, dst, tag, seq)
            if extra or retries:
                available += extra
                self.stats.record_fault(retries)
                if tracer is not None:
                    tracer.emit(src, ("fault", now, 0.0, dst, tag,
                                      extra, retries))
        if tracer is not None:
            rec = ("net.send", now, 0.0, dst, tag, nbytes, available,
                   origin)
            if not self.topo.is_uniform:  # trailing ``hops`` field
                rec += (self.topo.hops(src, dst),)
            tracer.emit(src, rec)
        self.stats.record_message(nbytes)
        return _Message(src, tag, payload, nbytes, available,
                        sent_at=now, origin=origin), sender_after

    def take(self, m: _Message, dst: int, tag: int, now: float,
             origin: Optional[str] = None) -> tuple[Any, float]:
        """*dst* consumes matched message *m* at *now*: (payload, new
        clock)."""
        arrive = max(now, m.available_at)
        t = arrive + self.cost.recv_cost(m.nbytes)
        if self.tracer is not None:
            self.tracer.emit(dst, (
                "net.recv", now, t - now, m.src, tag, m.nbytes, m.sent_at,
                m.available_at, max(0.0, m.available_at - now),
                origin or m.origin,
            ))
        return m.payload, t

    # -- collectives ---------------------------------------------------------
    #
    # label   param  value                    nbytes
    # bcast   root   payload (root's counts)  payload bytes
    # reduce  op     this rank's operand      operand bytes
    # barrier None   None                     0
    # exchange None  {dst: payload}           all contributed bytes

    def join(self, rank: int, label: str, now: float, param: Any = None,
             value: Any = None, nbytes: int = 0, consume: Any = None) -> None:
        """Deposit *rank*'s contribution to the open round.  SPMD
        programs execute collectives in the same order on every node; a
        rank that enters a different one than the round's first
        participant raises here."""
        head = (label, param)
        if self._head is None:
            self._head = head
            self._head_rank = rank
        elif self._head != head:
            raise SimulationError(
                f"collective mismatch: rank {rank} entered "
                f"{_describe(label, param)} while rank {self._head_rank} "
                f"is in {_describe(*self._head)}"
            )
        self._clocks[rank] = now
        self._values[rank] = value
        self._nbytes[rank] = nbytes
        if consume is not None:
            self._consume.append(consume)

    def close_round(self) -> None:
        """Complete the round every rank has joined.  Runs in exactly
        one participant, before any rank settles."""
        n = self.nprocs
        (label, param), self._head = self._head, None
        values, self._values = self._values, [None] * n
        clocks = self._clocks
        self._maxclock = maxclock = max(clocks)
        if self.tracer is not None:
            self._maxrank = clocks.index(maxclock)
        self._label = label
        if label == "reduce":
            self._result = combine_reduction(param, values)
            self.stats.record_collective(self._nbytes[0] * n)
        elif label == "bcast":
            # consumers run here, before any participant resumes, so the
            # root may pass a zero-copy view of its own array: every
            # consumer has copied the data out before anyone — the root
            # included — can run on and mutate the source
            self._result = data = values[param]
            consume, self._consume = self._consume, []
            for fn in consume:
                fn(data)
            self.stats.record_collective(self._nbytes[param])
        elif label == "exchange":
            # the pairwise transfers are real traffic, recorded once into
            # the point-to-point counts: one message per (src, dst) pair
            # with a payload, all contributed bytes
            self._result = values
            nmsgs = sum(len(msgs) for msgs in values)
            if nmsgs:
                self.stats.record_exchange(nmsgs, sum(self._nbytes))
        else:
            self._result = None

    def settle(self, rank: int, now: float,
               origin: Optional[str] = None) -> tuple[Any, float]:
        """*rank*'s outcome of the closed round: (result, new clock).
        All participants synchronize at ``max(clocks)`` then pay the
        tree cost."""
        label = self._label
        nbytes = self._nbytes[rank]
        maxclock = self._maxclock
        result = self._result
        topo = self.topo
        if label == "reduce":
            t = maxclock + 2 * topo.collective_cost(
                self.cost, self.nprocs, nbytes
            )
        elif label == "bcast":
            t = maxclock + topo.collective_cost(self.cost, self.nprocs, nbytes)
        elif label == "exchange":
            outgoing = result[rank]
            result = {
                src: msgs[rank]
                for src, msgs in enumerate(result) if rank in msgs
            }
            t = maxclock + topo.collective_cost(
                self.cost, self.nprocs, max(nbytes, 1)
            )
        else:
            t = maxclock + topo.barrier_cost(self.cost, self.nprocs)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(rank, ("coll", now, t - now, label, nbytes,
                               maxclock, self._maxrank, origin))
            if label == "exchange":
                per_pair = nbytes / max(1, len(outgoing))
                for dst in sorted(outgoing):
                    tracer.emit(rank, ("net.exchange", now, 0.0, dst,
                                       per_pair, origin))
        return result, t
