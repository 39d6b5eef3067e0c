"""Supervised worker-process pool.

The pool owns N compile-worker subprocesses (:mod:`.worker`) and the
supervision logic the service's robustness rests on:

* **crash detection** — a worker that exits or breaks framing mid-job
  is killed and replaced; the job retries on a fresh worker (bounded by
  ``max_retries``).
* **hang detection** — replies are read with ``select`` under the
  request deadline and a per-job timeout; expiry SIGKILLs the worker.
* **restart backoff** — consecutive worker failures back off
  exponentially (``backoff_base * 2**n`` capped at ``backoff_cap``)
  with deterministic jitter from a seeded RNG, so supervision behavior
  is reproducible in tests.
* **degraded mode** — when retries are exhausted the pool raises a
  retryable :class:`~repro.service.protocol.ServiceError`; the
  :class:`~repro.service.compiler.ServiceCompiler` then compiles the
  affected procedures in-process, trading parallelism for progress.

All failures are counted in :meth:`stats` (spawns, crashes, hangs,
retries, backoff waits) for the daemon's ``stats`` op and the chaos
tests.
"""

from __future__ import annotations

import os
import random
import select
import struct
import subprocess
import sys
import threading
import time
from typing import Optional

from ..core.recompile import ProcSummary
from .protocol import MAX_FRAME, FrameError, ServiceError, \
    write_pipe_frame

_LEN = struct.Struct(">I")


def _src_root() -> str:
    """Directory to put on the worker's PYTHONPATH (the parent of the
    ``repro`` package), so workers import the same build."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))


class _Worker:
    """One live worker subprocess."""

    def __init__(self) -> None:
        env = dict(os.environ)
        root = _src_root()
        pp = env.get("PYTHONPATH", "")
        if root not in pp.split(os.pathsep):
            env["PYTHONPATH"] = root + (os.pathsep + pp if pp else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self.jobs_done = 0

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except Exception:
            pass
        for fh in (self.proc.stdin, self.proc.stdout):
            try:
                fh.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        """Polite exit, then :meth:`kill` — a no-op signal once the
        process is reaped, and the close of its pipes."""
        try:
            write_pipe_frame(self.proc.stdin, {"op": "exit"})
            self.proc.wait(timeout=2)
        except Exception:
            pass
        self.kill()

    # -- deadline-bounded frame read ---------------------------------------

    def read_reply(self, deadline: float):
        """Read one pickle frame from the worker's stdout, bounded by
        the absolute monotonic *deadline*.  Raises TimeoutError on
        expiry (hang) and FrameError on EOF/corruption (crash)."""
        fd = self.proc.stdout.fileno()
        buf = bytearray()
        need = _LEN.size
        total = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("worker reply deadline expired")
            ready, _, _ = select.select([fd], [], [],
                                        min(remaining, 0.5))
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise FrameError("worker closed pipe mid-reply")
            buf.extend(chunk)
            if total is None and len(buf) >= _LEN.size:
                (n,) = _LEN.unpack(buf[:_LEN.size])
                if n > MAX_FRAME:
                    raise FrameError(f"worker frame length {n}")
                total = _LEN.size + n
                need = total
            if total is not None and len(buf) >= total:
                import pickle

                return pickle.loads(bytes(buf[_LEN.size:total]))


class WorkerPool:
    """Supervised pool of compile workers (see module docstring)."""

    def __init__(self, size: int = 2, max_retries: int = 2,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 seed: int = 0, job_timeout_s: float = 60.0,
                 crash_flag: Optional[str] = None,
                 hang_flag: Optional[str] = None,
                 tracer=None, metrics=None) -> None:
        self.size = max(1, size)
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.job_timeout_s = job_timeout_s
        self.crash_flag = crash_flag
        self.hang_flag = hang_flag
        self.tracer = tracer
        #: optional MetricsRegistry (the daemon attaches its own)
        self.metrics = metrics
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._live = 0
        self._consec_failures = 0
        self._closed = False
        self.counters = {
            "spawns": 0, "crashes": 0, "hangs": 0, "retries": 0,
            "jobs_ok": 0, "jobs_failed": 0, "backoff_waits": 0,
        }

    # -- public API ---------------------------------------------------------

    def compile_procs(self, opts, procs,
                      deadline: Optional[float] = None
                      ) -> list[ProcSummary]:
        """Compile *procs* — one wave, mutually independent, as
        :func:`~repro.core.driver.compile_one` arguments ``(pristine
        tree, ProcInputs, is_main)`` — across the pool.  Returns their
        summaries in no particular order; raises :class:`ServiceError`
        when a chunk cannot be completed."""
        nchunks = min(self.size, len(procs))
        chunks = [procs[i::nchunks] for i in range(nchunks)]
        jobs = [{
            "op": "compile", "opts": opts, "procs": chunk,
            "crash_flag": self.crash_flag, "hang_flag": self.hang_flag,
        } for chunk in chunks]
        replies = self._run_jobs(jobs, deadline)
        out: list[ProcSummary] = []
        for rep in replies:
            out.extend(rep["results"])
        return out

    def evaluate_plans(self, source, plan_opts,
                       store_dir: Optional[str] = None,
                       deadline: Optional[float] = None,
                       **machine) -> list[dict]:
        """Evaluate candidate distribution plans (fully-formed
        :class:`~repro.core.options.Options`, one per plan) across the
        pool: compile each through the workers' persistent incremental
        compilers (sharing *store_dir* summaries across processes) and
        run it on the simulated *machine* (``evaluate_plan`` keywords).
        Returns one metrics dict per plan, in input order; an infeasible
        plan yields ``{"error": ...}`` instead of metrics."""
        if not plan_opts:
            return []
        indexed = [{"idx": i, "opts": o} for i, o in enumerate(plan_opts)]
        nchunks = min(self.size, len(indexed))
        chunks = [indexed[i::nchunks] for i in range(nchunks)]
        jobs = [{
            "op": "evaluate", "source": source, "plans": chunk,
            "machine": machine, "store_dir": store_dir,
            "crash_flag": self.crash_flag, "hang_flag": self.hang_flag,
        } for chunk in chunks]
        replies = self._run_jobs(jobs, deadline)
        out: list[Optional[dict]] = [None] * len(indexed)
        for rep in replies:
            for m in rep["results"]:
                out[m.pop("idx")] = m
        return out

    def _run_jobs(self, jobs: list[dict],
                  deadline: Optional[float]) -> list[dict]:
        """Run the jobs concurrently (one thread per job, each blocking
        on its own worker subprocess); raise the first failure."""
        if len(jobs) == 1:
            return [self._run_job(jobs[0], deadline)]
        replies: list[Optional[dict]] = [None] * len(jobs)
        errors: list[Exception] = []

        def run(i):
            try:
                replies[i] = self._run_job(jobs[i], deadline)
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return replies

    def stats(self) -> dict:
        with self._lock:
            d = dict(self.counters)
            d["live"] = self._live
            d["consec_failures"] = self._consec_failures
            return d

    def close(self) -> None:
        with self._lock:
            self._closed = True
            workers, self._idle = self._idle, []
            self._live = 0
        for w in workers:
            w.shutdown()

    # -- supervision --------------------------------------------------------

    def _run_job(self, job: dict, deadline: Optional[float]) -> dict:
        last_err = "no attempt made"
        for attempt in range(self.max_retries + 1):
            job_deadline = time.monotonic() + self.job_timeout_s
            if deadline is not None:
                job_deadline = min(job_deadline, deadline)
            if job_deadline <= time.monotonic():
                raise ServiceError("deadline",
                                   "compile deadline expired",
                                   retryable=True)
            if attempt:
                with self._lock:
                    self.counters["retries"] += 1
            w = self._acquire()
            try:
                write_pipe_frame(w.proc.stdin, job)
                reply = w.read_reply(job_deadline)
            except TimeoutError:
                self._discard(w, "hangs")
                last_err = "worker hang (deadline expired)"
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    raise ServiceError("deadline",
                                       "compile deadline expired",
                                       retryable=True)
                continue
            except (FrameError, OSError, EOFError,
                    BrokenPipeError) as e:
                self._discard(w, "crashes")
                last_err = f"worker crash: {type(e).__name__}: {e}"
                continue
            except Exception as e:  # unpickling trouble etc.
                self._discard(w, "crashes")
                last_err = f"worker reply corrupt: {e}"
                continue
            if not isinstance(reply, dict):
                self._discard(w, "crashes")
                last_err = "worker reply not a dict"
                continue
            if reply.get("ok"):
                self._release(w)
                with self._lock:
                    self.counters["jobs_ok"] += 1
                    self._consec_failures = 0
                return reply
            # the worker survived but the job raised: not a worker
            # fault — retrying would re-raise identically
            self._release(w)
            with self._lock:
                self.counters["jobs_failed"] += 1
            raise ServiceError(
                "internal",
                f"worker job failed: {reply.get('error')}",
                retryable=False,
            )
        with self._lock:
            self.counters["jobs_failed"] += 1
        raise ServiceError(
            "internal",
            f"worker retries exhausted ({last_err})",
            retryable=True,
        )

    def _acquire(self) -> _Worker:
        dead = []
        got = None
        with self._lock:
            if self._closed:
                raise ServiceError("shutdown", "pool is closed",
                                   retryable=True)
            while self._idle:
                w = self._idle.pop()
                if w.alive():
                    got = w
                    break
                # died while idle
                self._live -= 1
                self.counters["crashes"] += 1
                self._consec_failures += 1
                dead.append((w, self._consec_failures,
                             dict(self.counters)))
                w.kill()
            backoff = 0.0 if got is not None else self._backoff_locked()
        for w, consec, counters in dead:
            self._record_restart(w, "crashes", consec, counters)
        if got is not None:
            return got
        if backoff > 0:
            with self._lock:
                self.counters["backoff_waits"] += 1
            time.sleep(backoff)
        w = _Worker()
        with self._lock:
            self.counters["spawns"] += 1
            self._live += 1
        if self.tracer is not None:
            self.tracer.decision("service.worker-spawn",
                                 pid=w.proc.pid)
        return w

    def _release(self, w: _Worker) -> None:
        w.jobs_done += 1
        with self._lock:
            if self._closed or not w.alive() \
                    or len(self._idle) >= self.size:
                self._live -= 1
                kill = True
            else:
                self._idle.append(w)
                kill = False
        if kill:
            w.kill()

    def _discard(self, w: _Worker, kind: str) -> None:
        """A worker failed mid-job: kill it, record the failure, and
        leave a postmortem bundle (when ``REPRO_POSTMORTEM_DIR`` is
        configured) so the dead worker's cause survives the restart."""
        w.kill()
        with self._lock:
            self._live -= 1
            self.counters[kind] += 1
            self._consec_failures += 1
            consec = self._consec_failures
            counters = dict(self.counters)
        self._record_restart(w, kind, consec, counters)

    def _record_restart(self, w: _Worker, kind: str, consec: int,
                        counters: dict) -> None:
        """Record one worker replacement — metric, trace decision, and
        postmortem bundle — regardless of whether the death was noticed
        mid-job (:meth:`_discard`) or while idle (:meth:`_acquire`)."""
        if self.metrics is not None:
            self.metrics.counter(
                "fdc_worker_restarts_total",
                "workers killed and replaced by cause",
                labels=("cause",),
            ).inc(1.0, cause=kind)
        if self.tracer is not None:
            self.tracer.decision("service.worker-restart", cause=kind)
        from ..obs.flightrec import dump_postmortem

        dump_postmortem(
            "worker-crash",
            recorder=self.tracer,
            metrics=self.metrics,
            extra={
                "cause": kind,
                "worker_pid": w.proc.pid,
                "jobs_done": w.jobs_done,
                "consec_failures": consec,
                "counters": counters,
            },
        )

    def _backoff_locked(self) -> float:
        """Exponential backoff with deterministic jitter before
        replacing a failed worker (0 when the pool is healthy).  Called
        with the lock held; returns the seconds to sleep unlocked."""
        n = self._consec_failures
        if n <= 0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * (2 ** (n - 1)))
        return raw * (0.5 + self._rng.random() / 2)
