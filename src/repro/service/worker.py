"""Compile worker: one procedure-compiling subprocess.

Run as ``python -m repro.service.worker``.  Speaks length-prefixed
pickle frames over stdin/stdout (see :mod:`.protocol`); the pool is the
only intended peer, and pool and worker are always the same build.

Jobs::

    {"op": "ping"}
    {"op": "exit"}
    {"op": "compile", "source": str, "opts": Options, "names": [str],
     "exports": {name: ProcExports}, "main_name": str,
     "crash_flag": path|None, "hang_flag": path|None}
    {"op": "evaluate", "source": str,
     "plans": [{"idx": int, "opts": Options}],
     "machine": {evaluate_plan keyword: value}, "store_dir": path|None,
     "crash_flag": path|None, "hang_flag": path|None}

A compile job re-runs the deterministic front end from source (reaching
results are keyed by statement identity, so they cannot travel between
processes) and compiles each requested procedure with a private tag
allocator via the same :func:`~repro.core.driver.compile_one` the
sweep itself uses — results are byte-identical either way.  The worker
keeps no cache of its own: the front end is incremental (the parser
memoises per program unit, :mod:`repro.lang.parser`), so a job that
follows a one-procedure edit lexes and parses that one procedure.

``crash_flag`` and ``hang_flag`` are the chaos hooks: if the named
file exists when a compile job arrives, the worker consumes it and
SIGKILLs itself (crash) or sleeps forever (hang) — deterministic
mid-compile failures for the supervisor tests.

Any per-job exception is reported as ``{"ok": False, "error": ...}``;
the worker itself keeps running.  Stray prints cannot corrupt framing:
stdout is duplicated for frames and ``sys.stdout`` is rebound to
stderr before any compilation runs.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from ..core.driver import compile_one, front_end
from .protocol import read_pipe_frame, write_pipe_frame


def _consume_chaos_flags(job: dict) -> None:
    flag = job.get("crash_flag")
    if flag and os.path.exists(flag):
        # chaos hook: die abruptly mid-request, exactly once per flag
        try:
            os.unlink(flag)
        finally:
            os.kill(os.getpid(), signal.SIGKILL)
    flag = job.get("hang_flag")
    if flag and os.path.exists(flag):
        # chaos hook: wedge mid-request so the supervisor's deadline
        # reads and SIGKILL-restart path get exercised
        os.unlink(flag)
        time.sleep(3600)


def _handle_compile(job: dict) -> dict:
    _consume_chaos_flags(job)
    opts = job["opts"]
    # fresh trees per job: compilation rewrites a procedure in place and
    # reaching results are keyed by the original statement identities
    prog, acg, reaching, _report = front_end(job["source"], opts)
    return {"ok": True, "results": [
        compile_one(prog, name, acg, reaching, opts, job["exports"],
                    job["main_name"])
        for name in job["names"]
    ]}


#: per-process evaluation compilers, one per summary-store directory —
#: persistent so every plan a worker evaluates reuses the summaries of
#: the plans before it (the disk tier shares them *across* workers)
_EVAL_COMPILERS: dict[str, object] = {}


def _handle_evaluate(job: dict) -> dict:
    """Evaluate a chunk of candidate distribution plans: compile each
    plan's :class:`Options` through a persistent incremental
    :class:`~repro.service.compiler.ServiceCompiler` and run it on the
    simulated machine.  Per-plan failures (e.g. a plan outside the
    compilable subset) are reported in-band so sibling plans in the
    chunk still produce metrics."""
    from ..tune.evaluate import evaluate_plan, make_eval_compiler

    _consume_chaos_flags(job)
    store_dir = job.get("store_dir")
    sc = _EVAL_COMPILERS.get(store_dir or "")
    if sc is None:
        sc = make_eval_compiler(store_dir)
        _EVAL_COMPILERS[store_dir or ""] = sc
    results = []
    for plan in job["plans"]:
        try:
            metrics = evaluate_plan(sc, job["source"], plan["opts"],
                                    **job["machine"])
        except Exception as e:
            metrics = {"error": f"{type(e).__name__}: {e}"}
        metrics["idx"] = plan["idx"]
        results.append(metrics)
    return {"ok": True, "results": results}


def main() -> int:
    # claim the frame channel before anything can print to it
    out = os.fdopen(os.dup(1), "wb")
    inp = os.fdopen(os.dup(0), "rb")
    sys.stdout = sys.stderr
    while True:
        job = read_pipe_frame(inp)
        if job is None or job.get("op") == "exit":
            return 0
        if job.get("op") == "ping":
            write_pipe_frame(out, {"ok": True, "pong": True,
                                   "pid": os.getpid()})
            continue
        if job.get("op") not in ("compile", "evaluate"):
            write_pipe_frame(
                out, {"ok": False, "error": f"unknown op {job.get('op')!r}"}
            )
            continue
        try:
            if job["op"] == "evaluate":
                reply = _handle_evaluate(job)
            else:
                reply = _handle_compile(job)
        except Exception as e:  # report, stay alive
            reply = {"ok": False,
                     "error": f"{type(e).__name__}: {e}",
                     "names": job.get("names")}
        write_pipe_frame(out, reply)


if __name__ == "__main__":
    sys.exit(main())
