"""Incremental service compiler.

``ServiceCompiler.compile`` is :func:`repro.core.driver.sweep` and
:func:`~repro.core.driver.assemble` — the same pass and assembly
:func:`~repro.core.driver.compile_program` runs, so its output is the
cold compile's byte for byte (docs/compiler.md § Recompilation) — with
the three things a service adds (``ServiceCompiler.sweep`` stops short
of the assembly: the daemon ships the pieces and its client assembles):

* a :class:`~repro.core.recompile.SummaryStore`, so only procedures
  whose §8 recompilation test fires are actually compiled;
* the worker pool: a wave's dirty procedures are mutually independent,
  so they compile in parallel on the pool; any pool failure falls back
  to compiling the wave in-process (results are identical either way);
* a cooperative deadline: checked on entry, between waves and between
  local procedure compiles, and worker reads time out; an expiry raises
  :class:`~repro.service.protocol.ServiceError` with kind ``deadline``
  (retryable).
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.driver import CompiledProgram, Swept, assemble, sweep
from ..core.options import Options
from ..core.recompile import SummaryStore
from .protocol import ServiceError


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ServiceError("deadline", "compile deadline expired",
                           retryable=True)


class ServiceCompiler:
    """Incremental compiler over a summary store and a worker pool.

    *store* defaults to a fresh in-memory :class:`SummaryStore`; *pool*
    is an optional :class:`~repro.service.pool.WorkerPool` — without
    one (or whenever the pool reports itself unusable) dirty procedures
    compile in-process, preserving results at the cost of parallelism.
    """

    def __init__(self, store: Optional[SummaryStore] = None,
                 pool=None, tracer=None) -> None:
        self.store = store if store is not None else SummaryStore()
        self.pool = pool
        self.tracer = tracer

    def compile(self, source: str, opts: Optional[Options] = None,
                deadline: Optional[float] = None,
                tracer=None) -> tuple[CompiledProgram, dict]:
        """Compile *source*, reusing stored summaries.  Returns the
        compiled program plus a per-request stats dict (procedures
        reused vs compiled, store counters)."""
        opts = opts or Options()
        swept, stats = self.sweep(source, opts, deadline, tracer)
        return assemble(swept, opts, shared=True), stats

    def sweep(self, source: str, opts: Options,
              deadline: Optional[float] = None,
              tracer=None) -> tuple[Swept, dict]:
        """:meth:`compile` without the assembly: the pieces a daemon
        ships per procedure, plus the stats dict."""
        tracer = tracer if tracer is not None else self.tracer

        def on_pool(wave):
            if self.pool is None:
                return None
            try:
                results = self.pool.compile_procs(opts, wave,
                                                  deadline=deadline)
            except ServiceError as e:
                if e.kind == "deadline":
                    raise
                if tracer is not None:
                    tracer.decision("service.pool-fallback",
                                    cause=str(e))
                return None
            return {s.name: s for s in results}

        swept = sweep(
            source, opts, store=self.store, tracer=tracer,
            compile_wave=on_pool,
            checkpoint=lambda: _check_deadline(deadline),
        )
        stats = {
            "procs": len(swept.order),
            "reused": len(swept.reused),
            "compiled": len(swept.recompiled),
            "store": self.store.stats(),
        }
        if self.pool is not None:
            stats["pool"] = self.pool.stats()
        return swept, stats
