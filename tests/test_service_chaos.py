"""Chaos suite for the compile service.

Under every induced failure — worker SIGKILL mid-compile, worker hang,
truncated/corrupt summary-store entries, a flooded request queue,
malformed client frames, a daemon dying mid-request — each compile
request must either complete **byte-identical to a cold in-process
compile** or return a structured retryable error.  No hangs (all reads
are deadline-bounded), no partial caches (atomic store writes), no
silent wrong answers.
"""

import os
import socket
import threading
import time

import pytest

from repro.core import Options, compile_program
from repro.core.driver import front_end
from repro.core.recompile import proc_inputs
from repro.machine import FREE
from repro.service import (
    CompileClient,
    CompileDaemon,
    ServiceCompiler,
    ServiceError,
    SummaryStore,
    WorkerPool,
    compile_with_fallback,
)
from repro.service.protocol import recv_frame, send_frame

from .test_service import BASE, EDIT_LEAF, sock_path


# ---------------------------------------------------------------------------
# worker crash / hang supervision
# ---------------------------------------------------------------------------


class TestWorkerCrash:
    def test_sigkill_mid_compile_recovers(self, tmp_path):
        """The crash flag makes exactly one worker SIGKILL itself on
        job receipt; the supervisor restarts and the result is still
        byte-identical."""
        flag = tmp_path / "die"
        flag.write_text("")
        pool = WorkerPool(size=1, seed=0, crash_flag=str(flag),
                          backoff_base=0.01)
        try:
            opts = Options(nprocs=4)
            got, _ = ServiceCompiler(pool=pool).compile(BASE, opts)
            assert got.text() == compile_program(BASE, opts).text()
            st = pool.stats()
            assert st["crashes"] >= 1
            assert st["retries"] >= 1
            assert st["jobs_ok"] >= 1
        finally:
            pool.close()
        assert not flag.exists()

    def test_externally_killed_worker_recovers(self):
        """kill -9 on a live worker between jobs: the pool discards the
        corpse and spawns a replacement."""
        pool = WorkerPool(size=1, seed=0, backoff_base=0.01)
        try:
            opts = Options(nprocs=4)
            sc = ServiceCompiler(pool=pool)
            sc.compile(BASE, opts)
            # murder every idle worker
            for w in list(pool._idle):
                os.kill(w.proc.pid, 9)
                w.proc.wait(timeout=5)
            got, _ = sc.compile(EDIT_LEAF, opts)
            assert got.text() == compile_program(EDIT_LEAF, opts).text()
            assert pool.stats()["spawns"] >= 2
        finally:
            pool.close()

    def test_hang_detected_and_killed(self, tmp_path):
        """The hang flag wedges one worker mid-job; the deadline read
        SIGKILLs it and the retry succeeds."""
        flag = tmp_path / "hang"
        flag.write_text("")
        pool = WorkerPool(size=1, seed=0, hang_flag=str(flag),
                          job_timeout_s=1.0, backoff_base=0.01)
        try:
            opts = Options(nprocs=4)
            t0 = time.monotonic()
            got, _ = ServiceCompiler(pool=pool).compile(BASE, opts)
            assert got.text() == compile_program(BASE, opts).text()
            assert time.monotonic() - t0 < 30  # bounded, not wedged
            assert pool.stats()["hangs"] >= 1
        finally:
            pool.close()

    def test_backoff_is_deterministic(self):
        p1 = WorkerPool(seed=7)
        p2 = WorkerPool(seed=7)
        p3 = WorkerPool(seed=8)
        for p in (p1, p2, p3):
            p._consec_failures = 3
        a = p1._backoff_locked()
        assert a == p2._backoff_locked()
        assert a != p3._backoff_locked()
        assert 0 < a <= p1.backoff_cap

    def test_backoff_grows_exponentially(self):
        p = WorkerPool(seed=0, backoff_base=0.1, backoff_cap=100.0)
        raw = []
        for n in (1, 2, 3, 4):
            p._consec_failures = n
            # strip jitter by sampling many times is overkill: raw
            # pre-jitter value is base * 2**(n-1), jitter in [0.5, 1.0]
            b = p._backoff_locked()
            lo = 0.1 * 2 ** (n - 1) * 0.5
            hi = 0.1 * 2 ** (n - 1)
            assert lo <= b <= hi
            raw.append(b)

    def test_retries_exhausted_is_structured(self, tmp_path):
        """A flag re-armed before every job defeats all retries: the
        pool must give up with a retryable error, not loop forever."""
        flag = tmp_path / "die"

        class AlwaysCrashPool(WorkerPool):
            # re-arm per *attempt*: the flag is consumed per job, and
            # retries all happen inside one _run_job call
            def _acquire(self):
                flag.write_text("")
                return super()._acquire()

        pool = AlwaysCrashPool(size=1, seed=0, max_retries=1,
                               crash_flag=str(flag), backoff_base=0.01)
        opts = Options(nprocs=4)
        prog, acg, reaching, _ = front_end(BASE, opts)
        wave = [(prog.unit("p"), proc_inputs("p", acg, reaching, {}), True)]
        try:
            with pytest.raises(ServiceError) as ei:
                pool.compile_procs(opts, wave)
            assert ei.value.retryable
        finally:
            pool.close()

    def test_compiler_falls_back_in_process_when_pool_dead(
            self, tmp_path):
        """Retries exhausted → the ServiceCompiler compiles locally;
        the request still succeeds byte-identically."""
        flag = tmp_path / "die"

        class AlwaysCrashPool(WorkerPool):
            def _acquire(self):
                flag.write_text("")
                return super()._acquire()

        pool = AlwaysCrashPool(size=1, seed=0, max_retries=0,
                               crash_flag=str(flag), backoff_base=0.01)
        try:
            opts = Options(nprocs=4)
            got, stats = ServiceCompiler(pool=pool).compile(BASE, opts)
            assert got.text() == compile_program(BASE, opts).text()
            assert stats["compiled"] == stats["procs"]
        finally:
            pool.close()


class TestDaemonWorkerCrash:
    def test_daemon_crash_recovery_end_to_end(self, tmp_path):
        """Full stack: daemon + pool + crash flag.  The client sees a
        normal, correct reply; the daemon's stats show the crash."""
        flag = tmp_path / "die"
        flag.write_text("")
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=1, seed=0,
                          crash_flag=str(flag))
        d.pool.backoff_base = 0.01
        t = d.serve_in_thread()
        try:
            opts = Options(nprocs=4)
            got = CompileClient(path).compile(BASE, opts)
            assert got.text() == compile_program(BASE, opts).text()
            st = CompileClient(path).stats()
            assert st["pool"]["crashes"] >= 1
        finally:
            d.stop()
            t.join(timeout=5)


# ---------------------------------------------------------------------------
# store corruption
# ---------------------------------------------------------------------------


class TestStoreCorruption:
    def test_truncated_entries_regenerate_identically(self, tmp_path):
        d = str(tmp_path / "store")
        opts = Options(nprocs=4)
        ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        for name in os.listdir(d):
            with open(os.path.join(d, name), "r+b") as fh:
                fh.truncate(7)
        store = SummaryStore(d)
        got, stats = ServiceCompiler(store).compile(BASE, opts)
        assert got.text() == compile_program(BASE, opts).text()
        assert stats["compiled"] == stats["procs"]
        assert store.counters["corrupt"] == stats["procs"]
        # and the regenerated entries are served on the next pass
        _, stats2 = ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        assert stats2["reused"] == stats2["procs"]

    def test_garbage_entries_regenerate_identically(self, tmp_path):
        d = str(tmp_path / "store")
        opts = Options(nprocs=4)
        ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        for name in os.listdir(d):
            with open(os.path.join(d, name), "wb") as fh:
                fh.write(os.urandom(200))
        got, _ = ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        assert got.text() == compile_program(BASE, opts).text()

    def test_no_partial_entries_on_crash(self, tmp_path):
        """Store writes are tempfile+rename: after any number of
        compiles, every published entry must load cleanly (no torn
        writes visible under the final name)."""
        d = str(tmp_path / "store")
        opts = Options(nprocs=4)
        ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        ServiceCompiler(SummaryStore(d)).compile(EDIT_LEAF, opts)
        store = SummaryStore(d)
        entries = [n for n in os.listdir(d) if n.startswith("proc-")]
        assert entries
        for name in entries:
            key = name[len("proc-"):-len(".pkl")]
            assert store.load(key) is not None
        assert store.counters["corrupt"] == 0


# ---------------------------------------------------------------------------
# queue flood and shedding
# ---------------------------------------------------------------------------


class TestFlood:
    def _slow_daemon(self, tmp_path, monkeypatch, delay=0.3,
                     queue_limit=2):
        """A daemon whose front end is artificially slow, so the queue
        actually fills."""
        import repro.core.driver as svc_compiler

        real = svc_compiler.front_end

        def slow_front_end(*a, **kw):
            time.sleep(delay)
            return real(*a, **kw)

        monkeypatch.setattr(svc_compiler, "front_end", slow_front_end)
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0, handlers=1,
                          queue_limit=queue_limit)
        t = d.serve_in_thread()
        return d, t, path

    def test_flood_yields_complete_or_retryable(self, tmp_path,
                                                monkeypatch):
        """Every flooded request either completes byte-identically or
        gets a structured retryable overloaded/deadline error."""
        d, t, path = self._slow_daemon(tmp_path, monkeypatch)
        cold_text = compile_program(BASE, Options(nprocs=4)).text()
        results = []

        def one(i):
            try:
                cp = CompileClient(path).compile(BASE, Options(nprocs=4))
                results.append(("ok", cp.text()))
            except ServiceError as e:
                results.append(("err", e))

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(8)]
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert len(results) == 8
            oks = [r for r in results if r[0] == "ok"]
            errs = [r for r in results if r[0] == "err"]
            assert oks, "nothing completed under flood"
            assert errs, "queue_limit=2/handlers=1 must refuse some of " \
                         "8 concurrent requests"
            for _, text in oks:
                assert text == cold_text
            for _, e in errs:
                assert e.retryable
                assert e.kind in ("overloaded", "deadline", "shutdown")
                if e.kind == "overloaded":
                    assert e.retry_after_s and e.retry_after_s > 0
            assert d.counters["overloaded"] >= 1
        finally:
            d.stop()
            t.join(timeout=5)

    def test_speculative_shed_for_non_speculative(self, tmp_path,
                                                  monkeypatch):
        """With the queue full of speculation, a non-speculative
        arrival sheds the oldest speculative request."""
        d, t, path = self._slow_daemon(tmp_path, monkeypatch,
                                       delay=0.8, queue_limit=1)
        spec_result = {}
        try:
            # occupy the single handler
            occupier = threading.Thread(
                target=lambda: CompileClient(path).compile(
                    BASE, Options(nprocs=4)))
            occupier.start()
            time.sleep(0.3)

            # fill the queue with one speculative request
            def spec():
                try:
                    CompileClient(path).compile(
                        EDIT_LEAF, Options(nprocs=4), speculative=True)
                    spec_result["outcome"] = "ok"
                except ServiceError as e:
                    spec_result["outcome"] = e.kind
                    spec_result["err"] = e

            sp = threading.Thread(target=spec)
            sp.start()
            time.sleep(0.3)

            # the non-speculative newcomer must be accepted
            cp = CompileClient(path).compile(BASE, Options(nprocs=4))
            assert cp.text() == compile_program(
                BASE, Options(nprocs=4)).text()
            sp.join(timeout=30)
            occupier.join(timeout=30)
            assert spec_result["outcome"] == "overloaded"
            assert spec_result["err"].retryable
            assert d.counters["shed"] == 1
        finally:
            d.stop()
            t.join(timeout=5)

    def test_full_queue_refuses_speculative(self, tmp_path, monkeypatch):
        d, t, path = self._slow_daemon(tmp_path, monkeypatch,
                                       delay=0.8, queue_limit=1)
        try:
            occupier = threading.Thread(
                target=lambda: CompileClient(path).compile(
                    BASE, Options(nprocs=4)))
            occupier.start()
            time.sleep(0.3)
            filler = threading.Thread(
                target=lambda: CompileClient(path).compile(
                    EDIT_LEAF, Options(nprocs=4)))
            filler.start()
            time.sleep(0.3)
            with pytest.raises(ServiceError) as ei:
                CompileClient(path).compile(
                    BASE, Options(nprocs=8), speculative=True)
            assert ei.value.kind == "overloaded"
            assert ei.value.retryable
            occupier.join(timeout=30)
            filler.join(timeout=30)
        finally:
            d.stop()
            t.join(timeout=5)


# ---------------------------------------------------------------------------
# protocol abuse
# ---------------------------------------------------------------------------


class TestProtocolAbuse:
    def test_garbage_bytes_do_not_kill_daemon(self, tmp_path):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0,
                          request_read_timeout_s=0.5)
        t = d.serve_in_thread()
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(path)
            s.sendall(b"\xde\xad\xbe\xef" * 100)
            s.close()
            # slow-loris: connect and send nothing
            s2 = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s2.connect(path)
            time.sleep(0.8)
            s2.close()
            # daemon still alive and serving
            assert CompileClient(path).ping()["pong"]
        finally:
            d.stop()
            t.join(timeout=5)

    def test_daemon_died_between_requests_falls_back(self, tmp_path):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0)
        t = d.serve_in_thread()
        CompileClient(path).shutdown()
        t.join(timeout=5)
        opts = Options(nprocs=4)
        got, info = compile_with_fallback(BASE, opts, server=path)
        assert info["used"] == "local"
        assert got.text() == compile_program(BASE, opts).text()


# ---------------------------------------------------------------------------
# end-to-end: chaos never changes results
# ---------------------------------------------------------------------------


class TestChaosDifferential:
    def test_crashy_service_run_equals_cold_run(self, tmp_path):
        """Compile through a daemon whose only worker crashes once,
        then *run* both programs: gathered arrays, virtual clocks and
        message counts must match exactly."""
        import numpy as np

        flag = tmp_path / "die"
        flag.write_text("")
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=1, seed=0,
                          crash_flag=str(flag),
                          store_dir=str(tmp_path / "store"))
        d.pool.backoff_base = 0.01
        t = d.serve_in_thread()
        try:
            opts = Options(nprocs=4)
            cold = compile_program(BASE, opts)
            got = CompileClient(path).compile(BASE, opts)
            r1, r2 = cold.run(cost=FREE), got.run(cost=FREE)
            assert np.array_equal(r1.gathered("x"), r2.gathered("x"))
            assert r1.stats.time_us == r2.stats.time_us
            assert r1.stats.messages == r2.stats.messages
            assert r1.stats.bytes == r2.stats.bytes
        finally:
            d.stop()
            t.join(timeout=5)
