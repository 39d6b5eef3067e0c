"""Compile-service tests: protocol framing, the summary store, the
incremental service compiler's byte-identity with the whole-program
driver, daemon/client round trips, and the CLI surface.

The load-bearing invariant everywhere: the service is an *accelerator*,
never a semantic layer — its output is byte-identical to a cold
in-process ``compile_program`` (program text, compile report, and run
results), whether procedures came from the store, a worker, or the
in-daemon fallback.
"""

import os
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.apps import (
    adi_source,
    cg_source,
    dgefa_dgesl_source,
    stencil2d_source,
    wave_source,
)
from repro.cli import main as cli_main
from repro.core import Mode, Options, compile_program
from repro.core.recompile import RecompilationManager
from repro.interp import run_sequential
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import FREE
from repro.obs import Tracer
from repro.service import (
    CompileClient,
    CompileDaemon,
    ServiceCompiler,
    ServiceError,
    SummaryStore,
    WorkerPool,
    compile_with_fallback,
    resolve_server,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    options_from_wire,
    options_to_wire,
    pack_blob,
    recv_frame,
    send_frame,
    unpack_blob,
)
from repro.service.store import ProcSummary, opts_fingerprint

from .conftest import pipeline_source


BASE = """
program p
real x(100)
distribute x(block)
call init(x)
call smooth(x)
end

subroutine init(x)
real x(100)
do i = 1, 100
  x(i) = i * 1.0
enddo
end

subroutine smooth(x)
real x(100)
do i = 1, 95
  x(i) = f(x(i + 5))
enddo
end
"""

#: internal leaf edit: init's exports unchanged, callers keep their code
EDIT_LEAF = BASE.replace("x(i) = i * 1.0", "x(i) = i * 2.0")

#: smooth's shift distance changed: its exports change, main recompiles
EDIT_SHIFT = BASE.replace("x(i) = f(x(i + 5))", "x(i) = f(x(i + 3))")


def sock_path(tmp_path, name="d.sock"):
    """A socket path short enough for AF_UNIX's ~108-byte limit."""
    p = tmp_path / name
    if len(str(p)) < 90:
        return str(p)
    import tempfile

    return os.path.join(tempfile.mkdtemp(prefix="fdc"), name)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping", "n": 3})
            assert recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_oversized_length_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 30).to_bytes(4, "big") + b"xx")
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_garbage_payload_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall((4).to_bytes(4, "big") + b"\xff\xfe\x00\x01")
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame(self):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "big") + b"short")
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_deadline_expires(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(TimeoutError):
                recv_frame(b, deadline=time.monotonic() + 0.1)
        finally:
            a.close()
            b.close()

    def test_options_wire_roundtrip(self):
        opts = Options(nprocs=8, mode=Mode.INTRA, strict=True,
                       delay_communication=False)
        back = options_from_wire(options_to_wire(opts))
        assert back == opts

    def test_blob_roundtrip(self):
        obj = {"arr": [1, 2, 3], "opts": Options()}
        assert unpack_blob(pack_blob(obj)) == obj


# ---------------------------------------------------------------------------
# summary store
# ---------------------------------------------------------------------------


def _dummy_summary(name="f"):
    proc = parse(f"subroutine {name}(x)\nreal x(10)\nend").units[0]
    from repro.core.options import CompileReport

    return ProcSummary(name=name, proc=proc, exports=None, tag_count=2,
                       fragment=CompileReport())


class TestSummaryStore:
    def test_memory_roundtrip(self):
        s = SummaryStore()
        key = SummaryStore.key("o", "s", "i")
        assert s.load(key) is None
        s.store(key, _dummy_summary())
        assert s.load(key).name == "f"
        assert s.counters["hits"] == 1
        assert s.counters["misses"] == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        d = str(tmp_path / "store")
        key = SummaryStore.key("o", "s", "i")
        SummaryStore(d).store(key, _dummy_summary("g"))
        fresh = SummaryStore(d)
        assert fresh.load(key).name == "g"
        assert fresh.counters["disk_hits"] == 1

    def test_truncated_entry_is_silent_miss(self, tmp_path):
        d = str(tmp_path / "store")
        key = SummaryStore.key("o", "s", "i")
        SummaryStore(d).store(key, _dummy_summary())
        (path,) = [p for p in os.listdir(d)]
        with open(os.path.join(d, path), "r+b") as fh:
            fh.truncate(10)
        fresh = SummaryStore(d)
        assert fresh.load(key) is None
        assert fresh.counters["corrupt"] == 1
        # the corrupt entry was dropped; a re-store works
        fresh.store(key, _dummy_summary())
        assert SummaryStore(d).load(key) is not None

    def test_foreign_header_is_silent_miss(self, tmp_path):
        d = str(tmp_path / "store")
        os.makedirs(d)
        key = SummaryStore.key("o", "s", "i")
        with open(os.path.join(d, f"proc-{key}.pkl"), "wb") as fh:
            fh.write(b"# some other format entirely\n" + b"x" * 50)
        s = SummaryStore(d)
        assert s.load(key) is None
        assert s.counters["corrupt"] == 1

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        # a path *beneath an existing file* cannot be created — the
        # same failure mode as a read-only dir, but works under root
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        s = SummaryStore(str(blocker / "sub"))
        key = SummaryStore.key("o", "s", "i")
        s.store(key, _dummy_summary())
        assert s.degraded
        assert s.counters["degraded"] == 1
        assert s.load(key).name == "f"  # memory tier still serves

    def test_key_sensitivity(self):
        k1 = SummaryStore.key("o", "s", "i")
        assert SummaryStore.key("o2", "s", "i") != k1
        assert SummaryStore.key("o", "s2", "i") != k1
        assert SummaryStore.key("o", "s", "i2") != k1

    def test_opts_fingerprint_covers_all_fields(self):
        base = opts_fingerprint(Options())
        assert opts_fingerprint(Options(nprocs=8)) != base
        assert opts_fingerprint(Options(strict=True)) != base
        assert opts_fingerprint(
            Options(clone_growth_limit=9.0)) != base


# ---------------------------------------------------------------------------
# service compiler: byte-identity and incrementality
# ---------------------------------------------------------------------------


APPS = [
    ("dgefa_dgesl", dgefa_dgesl_source),
    ("stencil2d", stencil2d_source),
    ("adi", adi_source),
    ("cg", cg_source),
    ("wave", wave_source),
]


def session(driver, opts):
    """One incremental session of either caller of the sweep:
    ``compile(src) -> (compiled, procedures compiled, procedures)``."""
    if driver == "service":
        sc = ServiceCompiler()

        def compile(src):
            cp, st = sc.compile(src, opts)
            return cp, st["compiled"], st["procs"]
    else:
        m = RecompilationManager(opts=opts)

        def compile(src):
            cp = m.compile(src)
            return (cp, len(m.last_recompiled),
                    len(m.last_recompiled) + len(m.last_reused))
    return compile


def assert_same_program(got, cold):
    def tags(cp):
        return [(u.name, type(st).__name__, st.tag)
                for u in cp.program.units for st in A.walk_stmts(u.body)
                if hasattr(st, "tag")]

    assert got.text() == cold.text()
    assert got.report == cold.report
    assert tags(got) == tags(cold)
    assert got.initial_dists == cold.initial_dists
    # the generated-module cache key
    assert repr(got.program) == repr(cold.program)


def check_equals_cold_compile(driver, src):
    """Cold, warm and after a one-procedure edit, an incremental
    driver's output is the cold ``compile_program``'s."""
    opts = Options(nprocs=4)
    compile = session(driver, opts)
    cold = compile_program(src, opts)
    got, compiled, procs = compile(src)
    assert_same_program(got, cold)
    assert compiled == procs
    got, compiled, _ = compile(src)
    assert_same_program(got, cold)
    assert compiled == 0
    last = list(re.finditer(r"\d+\.\d+", src))[-1]
    edited = src[:last.end()] + "5" + src[last.end():]
    got, compiled, _ = compile(edited)
    assert_same_program(got, compile_program(edited, opts))
    assert 0 < compiled < procs


class TestServiceCompilerIdentity:
    @pytest.mark.parametrize("name,srcfn", APPS)
    def test_byte_identical_to_cold_compile(self, name, srcfn):
        check_equals_cold_compile("service", srcfn())

    @pytest.mark.parametrize("name,srcfn", APPS)
    def test_manager_identical_to_cold_compile(self, name, srcfn):
        check_equals_cold_compile("manager", srcfn())

    @pytest.mark.parametrize("driver", ["service", "manager"])
    def test_sweep_phases_traced(self, driver):
        """Every caller of the sweep emits the cold compile's phases; a
        warm build decides one reuse per procedure and compiles none."""
        def names(tracer, kind):
            return [e["name"] for e in tracer.host_events
                    if e["kind"] == kind]

        cold, warm = Tracer(), Tracer()
        opts = Options(nprocs=4)
        if driver == "service":
            sc = ServiceCompiler()
            sc.compile(BASE, opts, tracer=cold)
            sc.compile(BASE, opts, tracer=warm)
        else:
            # the manager takes no tracer: make its one call with one
            from repro.core.driver import sweep

            m = RecompilationManager(opts=opts)
            sweep(BASE, opts, store=m.summaries, tracer=cold)
            sweep(BASE, opts, store=m.summaries, tracer=warm)
        for tracer in (cold, warm):
            assert set(names(tracer, "compile.phase")) >= {
                "interprocedural-analysis", "alias-analysis",
                "initial-distributions", "codegen"}
        assert names(cold, "compile.phase").count("procedure") == 3
        assert "summary-reuse" not in names(cold, "compile.decision")
        assert "procedure" not in names(warm, "compile.phase")
        assert names(warm, "compile.decision").count("summary-reuse") == 3

    def test_warm_compile_reuses_everything(self):
        sc = ServiceCompiler()
        sc.compile(BASE, Options(nprocs=4))
        _, stats = sc.compile(BASE, Options(nprocs=4))
        assert stats["reused"] == stats["procs"]
        assert stats["compiled"] == 0

    def test_warm_output_still_identical(self):
        opts = Options(nprocs=4)
        cold = compile_program(BASE, opts)
        sc = ServiceCompiler()
        sc.compile(BASE, opts)
        got, _ = sc.compile(BASE, opts)
        assert got.text() == cold.text()
        res = got.run(cost=FREE)
        seq = run_sequential(parse(BASE)).arrays["x"].data
        assert np.allclose(res.gathered("x"), seq)

    def test_leaf_edit_recompiles_only_leaf(self):
        sc = ServiceCompiler()
        sc.compile(BASE, Options(nprocs=4))
        got, stats = sc.compile(EDIT_LEAF, Options(nprocs=4))
        assert stats["compiled"] == 1
        assert stats["reused"] == stats["procs"] - 1
        assert got.text() == compile_program(
            EDIT_LEAF, Options(nprocs=4)).text()

    def test_interface_edit_recompiles_callers(self):
        sc = ServiceCompiler()
        sc.compile(BASE, Options(nprocs=4))
        got, stats = sc.compile(EDIT_SHIFT, Options(nprocs=4))
        # smooth changed; its exports (overlap/pending comm) changed,
        # so main recompiles too — init must be reused
        assert stats["compiled"] == 2
        assert stats["reused"] == 1
        assert got.text() == compile_program(
            EDIT_SHIFT, Options(nprocs=4)).text()

    def test_option_change_is_a_different_key(self):
        sc = ServiceCompiler()
        sc.compile(BASE, Options(nprocs=4))
        _, stats = sc.compile(BASE, Options(nprocs=8))
        assert stats["compiled"] == stats["procs"]

    def test_persistent_store_shared_across_compilers(self, tmp_path):
        d = str(tmp_path / "store")
        opts = Options(nprocs=4)
        ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        got, stats = ServiceCompiler(SummaryStore(d)).compile(BASE, opts)
        assert stats["reused"] == stats["procs"]
        assert got.text() == compile_program(BASE, opts).text()

    def test_deadline_raises_retryable(self):
        sc = ServiceCompiler()
        with pytest.raises(ServiceError) as ei:
            sc.compile(BASE, Options(nprocs=4),
                       deadline=time.monotonic() - 1)
        assert ei.value.kind == "deadline"
        assert ei.value.retryable

    def test_rtr_demotion_preserved(self):
        """Graceful degradation must survive the service path: a
        procedure the analyzer rejects demotes identically."""
        src = BASE.replace("x(i) = f(x(i + 5))",
                           "x(i) = f(x(i * i))")
        opts = Options(nprocs=4)
        cold = compile_program(src, opts)
        got, _ = ServiceCompiler().compile(src, opts)
        assert got.text() == cold.text()
        assert got.report.rtr_demotions == cold.report.rtr_demotions


class TestServiceCompilerWithPool:
    def test_pool_output_identical(self):
        pool = WorkerPool(size=2, seed=0)
        try:
            opts = Options(nprocs=4)
            src = dgefa_dgesl_source()
            cold = compile_program(src, opts)
            got, stats = ServiceCompiler(pool=pool).compile(src, opts)
            assert got.text() == cold.text()
            assert got.report == cold.report
            assert pool.stats()["jobs_ok"] > 0
        finally:
            pool.close()

    def test_pool_run_results_identical(self):
        pool = WorkerPool(size=2, seed=0)
        try:
            opts = Options(nprocs=4)
            cold = compile_program(BASE, opts)
            got, _ = ServiceCompiler(pool=pool).compile(BASE, opts)
            r1 = cold.run(cost=FREE)
            r2 = got.run(cost=FREE)
            assert np.array_equal(r1.gathered("x"), r2.gathered("x"))
            assert r1.stats.time_us == r2.stats.time_us
            assert r1.stats.messages == r2.stats.messages
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# daemon + client
# ---------------------------------------------------------------------------


@pytest.fixture
def daemon(tmp_path):
    path = sock_path(tmp_path)
    d = CompileDaemon(path, store_dir=str(tmp_path / "store"),
                      pool_size=0)
    t = d.serve_in_thread()
    yield d, path
    d.stop()
    t.join(timeout=5)


class TestDaemon:
    def test_ping(self, daemon):
        _, path = daemon
        rep = CompileClient(path).ping()
        assert rep["pong"] and rep["pid"] == os.getpid()

    def test_compile_identical_and_runs(self, daemon):
        _, path = daemon
        opts = Options(nprocs=4)
        cold = compile_program(BASE, opts)
        got = CompileClient(path).compile(BASE, opts)
        assert got.text() == cold.text()
        r1, r2 = cold.run(cost=FREE), got.run(cost=FREE)
        assert np.array_equal(r1.gathered("x"), r2.gathered("x"))
        assert r1.stats.time_us == r2.stats.time_us

    def test_second_compile_hits_store(self, daemon):
        _, path = daemon
        c = CompileClient(path)
        c.compile(BASE, Options(nprocs=4))
        c.compile(BASE, Options(nprocs=4))
        st = c.stats()
        assert st["completed"] == 2
        assert st["store"]["hits"] >= 3  # all of p/init/smooth reused

    def test_parse_counters_in_stats_and_metrics(self, daemon,
                                                 cold_unit_memo):
        """The daemon's front end parses a unit once per text: base,
        one one-stage edit, one exact repeat of an 8-stage pipeline."""
        _, path = daemon
        c = CompileClient(path)
        consts = [f"{100 + j}.25" for j in range(8)]
        base = pipeline_source(8, consts)
        consts[5] = "900.75"
        edit = pipeline_source(8, consts)
        for src in (base, edit, edit):
            c.compile(src, Options(nprocs=4))
        want = {"units_parsed": 10, "units_reused": 17}
        assert c.stats()["parse"] == want
        got = c.metrics()
        assert {v["labels"]["event"]: v["value"] for v in
                got["metrics"]["fdc_parse_events_total"]["values"]} == want
        assert 'fdc_parse_events_total{event="units_parsed"} 10' \
            in got["prometheus"]

    def test_compile_error_is_structured_not_retryable(self, daemon):
        _, path = daemon
        with pytest.raises(ServiceError) as ei:
            CompileClient(path).compile("program p\nthis is not fortran")
        assert ei.value.kind == "compile-error"
        assert not ei.value.retryable

    def test_zero_deadline_expires_retryable(self, daemon):
        _, path = daemon
        with pytest.raises(ServiceError) as ei:
            CompileClient(path).compile(BASE, Options(nprocs=4),
                                        deadline_s=0.0)
        assert ei.value.kind == "deadline"
        assert ei.value.retryable

    def test_unknown_op_refused(self, daemon):
        _, path = daemon
        with pytest.raises(ServiceError) as ei:
            CompileClient(path).request({"op": "frobnicate"})
        assert ei.value.kind == "bad-request"

    def test_retired_option_field_refused(self, daemon):
        """A client of an older build still sends an Options field this
        build deleted: a structured bad-request, not a crash."""
        _, path = daemon
        wire = dict(options_to_wire(Options()), verbose_notes=True)
        with pytest.raises(ServiceError) as ei:
            CompileClient(path).request(
                {"op": "compile", "source": BASE, "opts": wire})
        assert ei.value.kind == "bad-request"

    def test_version_mismatch_refused(self, daemon):
        _, path = daemon
        with pytest.raises(ServiceError) as ei:
            CompileClient(path).request(
                {"op": "ping", "v": PROTOCOL_VERSION + 1})
        assert ei.value.kind == "bad-request"

    def test_shutdown_op(self, tmp_path):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0)
        t = d.serve_in_thread()
        assert CompileClient(path).shutdown()["stopping"]
        t.join(timeout=5)
        assert not t.is_alive()
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# client fallback
# ---------------------------------------------------------------------------


class TestFallback:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        assert resolve_server(None) is None
        assert resolve_server("off") is None
        assert resolve_server("/x/y.sock") == "/x/y.sock"
        assert resolve_server("auto") is not None
        monkeypatch.setenv("REPRO_SERVER", "/env/path.sock")
        assert resolve_server(None) == "/env/path.sock"
        assert resolve_server("/arg/wins.sock") == "/arg/wins.sock"
        assert resolve_server("off") is None

    def test_unreachable_daemon_falls_back(self):
        opts = Options(nprocs=4)
        tracer = Tracer()
        got, info = compile_with_fallback(
            BASE, opts, server="/nonexistent/fdc.sock", trace=tracer)
        assert info["used"] == "local"
        assert got.text() == compile_program(BASE, opts).text()
        falls = [e for e in tracer.host_events
                 if e.get("name") == "service.fallback"]
        assert len(falls) == 1

    def test_mid_request_death_falls_back(self, tmp_path):
        """A server that accepts, reads the request, then slams the
        connection mid-reply must not break the client."""
        path = sock_path(tmp_path, "evil.sock")
        lst = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        lst.bind(path)
        lst.listen(1)

        def evil():
            conn, _ = lst.accept()
            recv_frame(conn)
            conn.sendall((500).to_bytes(4, "big") + b"partial")
            conn.close()

        t = threading.Thread(target=evil, daemon=True)
        t.start()
        try:
            opts = Options(nprocs=4)
            got, info = compile_with_fallback(BASE, opts, server=path,
                                              retries=0)
            assert info["used"] == "local"
            assert got.text() == compile_program(BASE, opts).text()
        finally:
            lst.close()

    def test_malformed_blob_falls_back(self, tmp_path):
        """An ok-reply whose pickled payload is garbage is an
        infrastructure failure, not a result."""
        path = sock_path(tmp_path, "garbage.sock")
        lst = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        lst.bind(path)
        lst.listen(1)

        def garbage():
            conn, _ = lst.accept()
            recv_frame(conn)
            send_frame(conn, {"ok": True, "v": PROTOCOL_VERSION,
                              "blob": pack_blob({"not": "a program"})})
            conn.close()

        t = threading.Thread(target=garbage, daemon=True)
        t.start()
        try:
            opts = Options(nprocs=4)
            got, info = compile_with_fallback(BASE, opts, server=path,
                                              retries=0)
            assert info["used"] == "local"
            assert got.text() == compile_program(BASE, opts).text()
        finally:
            lst.close()

    def test_healthy_daemon_used(self, tmp_path):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0)
        t = d.serve_in_thread()
        try:
            got, info = compile_with_fallback(BASE, Options(nprocs=4),
                                              server=path)
            assert info["used"] == "server"
            assert got.text() == compile_program(
                BASE, Options(nprocs=4)).text()
        finally:
            d.stop()
            t.join(timeout=5)

    def test_no_server_compiles_locally(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        got, info = compile_with_fallback(BASE, Options(nprocs=4))
        assert info["used"] == "local"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCLI:
    def test_ping_and_shutdown_subcommands(self, tmp_path, capsys):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0)
        t = d.serve_in_thread()
        try:
            assert cli_main(["ping", "--socket", path]) == 0
            assert "pong" in capsys.readouterr().out
            assert cli_main(["shutdown", "--socket", path]) == 0
        finally:
            d.stop()
            t.join(timeout=5)

    def test_ping_unreachable_fails(self, tmp_path, capsys):
        assert cli_main(["ping", "--socket",
                         str(tmp_path / "none.sock")]) == 1

    def test_compile_via_server_flag(self, tmp_path, capsys):
        path = sock_path(tmp_path)
        d = CompileDaemon(path, pool_size=0)
        t = d.serve_in_thread()
        src_file = tmp_path / "p.fd"
        src_file.write_text(BASE)
        try:
            assert cli_main([str(src_file), "--server", path]) == 0
            out = capsys.readouterr().out
            cold = compile_program(BASE, Options(nprocs=4))
            assert cold.text() in out
        finally:
            d.stop()
            t.join(timeout=5)

    def test_server_flag_fallback_still_compiles(self, tmp_path,
                                                 capsys):
        src_file = tmp_path / "p.fd"
        src_file.write_text(BASE)
        assert cli_main([str(src_file), "--server",
                         str(tmp_path / "gone.sock")]) == 0
        assert "x(" in capsys.readouterr().out
