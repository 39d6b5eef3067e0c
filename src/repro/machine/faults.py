"""Deterministic fault injection for the simulated machine.

A :class:`FaultPlan` perturbs a run without breaking its semantics:

* **delay jitter** — a fraction of messages arrive later (extra virtual
  latency on ``available_at``);
* **drops with retransmit** — a transmission attempt may be lost; the
  (modeled) reliable transport retransmits after an exponentially
  backed-off virtual timeout, so the message still arrives, just later;
* **per-rank slowdowns** — a rank's compute charges cost more virtual
  time (load imbalance / a slow node);
* **crash-at-clock** — a rank dies with a :class:`SimulationError` the
  first time its virtual clock reaches the given time at a
  communication point.

Everything is a pure function of the plan's seed and the *identity* of
the event (message ``(src, dst, tag)`` plus its per-key sequence
number), never of thread scheduling or wall time.  Two runs of the same
program under the same plan therefore inject byte-for-byte the same
faults, and — because delays and retransmits only move virtual arrival
times — results and message/byte counts stay bit-identical to the
fault-free run.  Only virtual clocks (and crashes, which abort the run)
may differ.

A plan comes from the API (``Machine(faults=FaultPlan(...))``), the CLI
(``--faults SPEC --fault-seed N``) or the environment (``REPRO_FAULTS``
/ ``REPRO_FAULT_SEED``).  The spec grammar is comma-separated clauses::

    delay=P:MAXUS     jitter: probability P, up to MAXUS extra µs
    drop=P            per-transmission drop probability
    retry=US          base retransmit timeout in virtual µs (default 200)
    slow=RANK:F       rank RANK computes F times slower
    crash=RANK@CLOCK  rank RANK crashes at virtual clock CLOCK µs

e.g. ``REPRO_FAULTS="delay=0.5:80,drop=0.1,slow=1:2.0"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..settings import Settings, number

_MASK = (1 << 64) - 1


def _u01(seed: int, *vals: int) -> float:
    """Deterministic uniform [0, 1) from a seed and integer event
    identity (splitmix64-style finalizer; no global RNG state)."""
    x = (seed * 0x9E3779B97F4A7C15) & _MASK
    for v in vals:
        x = ((x ^ (v & _MASK)) * 0x100000001B3) & _MASK
        x ^= x >> 33
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of injected faults."""

    seed: int = 0
    #: probability that a message gets extra latency, and its maximum
    delay_prob: float = 0.0
    delay_max_us: float = 0.0
    #: per-transmission-attempt drop probability (retransmitted)
    drop_prob: float = 0.0
    #: base virtual retransmit timeout; attempt k backs off by 2**k
    retry_timeout_us: float = 200.0
    #: hard cap on retransmissions of one message
    max_retries: int = 8
    #: rank -> compute slowdown factor (>= 1.0 slows the rank down)
    slowdown: dict[int, float] = field(default_factory=dict)
    #: rank -> virtual clock (µs) at which the rank crashes
    crash_at: dict[int, float] = field(default_factory=dict)

    # -- queries -----------------------------------------------------------

    @property
    def affects_messages(self) -> bool:
        return self.delay_prob > 0.0 or self.drop_prob > 0.0

    def message_faults(
        self, src: int, dst: int, tag: int, seq: int
    ) -> tuple[float, int]:
        """Extra virtual latency and retransmit count for the *seq*-th
        message on the ``(src, dst, tag)`` stream."""
        extra = 0.0
        retries = 0
        if self.delay_prob > 0.0:
            if _u01(self.seed, 1, src, dst, tag, seq) < self.delay_prob:
                extra += _u01(self.seed, 2, src, dst, tag, seq) \
                    * self.delay_max_us
        if self.drop_prob > 0.0:
            while retries < self.max_retries and _u01(
                self.seed, 3, src, dst, tag, seq, retries
            ) < self.drop_prob:
                extra += self.retry_timeout_us * (2 ** retries)
                retries += 1
        return extra, retries

    def rank_slowdown(self, rank: int) -> float:
        return self.slowdown.get(rank, 1.0)

    def crash_clock(self, rank: int):
        return self.crash_at.get(rank)

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the clause grammar documented above."""
        kw: dict = {"seed": seed, "slowdown": {}, "crash_at": {}}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            try:
                key, _, val = clause.partition("=")
                key = key.strip()
                if key == "delay":
                    p, _, m = val.partition(":")
                    kw["delay_prob"] = float(p)
                    kw["delay_max_us"] = float(m) if m else 100.0
                elif key == "drop":
                    kw["drop_prob"] = float(val)
                elif key == "retry":
                    kw["retry_timeout_us"] = float(val)
                elif key == "slow":
                    r, _, f = val.partition(":")
                    kw["slowdown"][int(r)] = float(f)
                elif key == "crash":
                    r, _, t = val.partition("@")
                    kw["crash_at"][int(r)] = float(t)
                else:
                    raise ValueError(f"unknown fault clause {key!r}")
            except (ValueError, TypeError) as e:
                raise ValueError(
                    f"bad fault spec clause {clause!r}: {e}"
                ) from None
        return cls(**kw)

    @classmethod
    def from_settings(cls, s: Settings) -> "FaultPlan | None":
        """Plan described by ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED``
        (None when unset/empty)."""
        if not s.faults:
            return None
        seed = number(s.fault_seed or "0", int)
        if seed is None:
            raise ValueError(f"bad REPRO_FAULT_SEED {s.fault_seed!r}: "
                             "not an integer")
        return cls.parse(s.faults, seed)
