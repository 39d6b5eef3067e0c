"""Compile service: a supervised, incremental compiler daemon.

The paper's §8 recompilation analysis exists to preserve separate
compilation; this package turns it into a long-lived *service*.  A
daemon (`fdc serve`) listens on a unix socket, keeps a content-addressed
per-procedure summary store (procedure ASTs, exports, report fragments
keyed by source + interprocedural-input fingerprints) and dispatches
procedures whose recompilation tests fire to a supervised worker-process
pool.  Clients (`fdc --server`) fall back to in-process compilation on
any infrastructure failure — the service accelerates compilation, it
never changes its results: it runs the same
:func:`repro.core.driver.sweep` as ``compile_program``.

Layers::

    protocol.py   length-prefixed JSON frames + wire (de)serialization,
                  including the per-procedure compile reply
    compiler.py   ServiceCompiler: sweep + summary store (the §8 one,
                  core/recompile.py), pool and deadline
    worker.py     per-procedure compile worker (python -m ...)
    pool.py       supervised worker pool (restart, backoff, deadlines)
    daemon.py     the socket server (queueing, backpressure, shedding)
    client.py     CompileClient + its procedure blob cache + graceful
                  in-process fallback

See ``docs/service.md`` for the protocol, the store layout, and the
failure/degradation matrix.
"""

from ..core.recompile import SummaryStore
from .client import (
    CompileClient,
    client_stats,
    compile_with_fallback,
    resolve_server,
)
from .compiler import ServiceCompiler
from .daemon import CompileDaemon
from .pool import WorkerPool
from .protocol import ServiceError

__all__ = [
    "CompileClient",
    "CompileDaemon",
    "ServiceCompiler",
    "ServiceError",
    "SummaryStore",
    "WorkerPool",
    "client_stats",
    "compile_with_fallback",
    "resolve_server",
]
