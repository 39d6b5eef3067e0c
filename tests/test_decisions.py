"""One record per compile decision: the ``compile.decision`` events a
compile report backs are read from the report (``core/driver
.trace_decisions``), so a procedure's decisions are traced the same
whether it was compiled here, reused from a store, compiled by a worker
or shipped by the daemon."""

from collections import Counter

import pytest

from repro.apps import FIG4, dgefa_source
from repro.core import Mode, Options, compile_program
from repro.obs import Tracer
from repro.service import (
    CompileDaemon,
    ServiceCompiler,
    WorkerPool,
    compile_with_fallback,
)

from .test_rtr_demotion import SRC as DEMOTED
from .test_service import sock_path

#: the decisions a compile report backs (the rest — phase spans,
#: ``summary-reuse``, ``codegen-demotion``, ``service.*`` — describe how
#: one compile ran, not what it decided)
REPORT_BACKED = {"dist-override", "clone", "note", "distribution",
                 "comm-placement", "rtr-fallback", "rtr-demotion"}

PROGRAMS = [("dgefa16", dgefa_source(16)), ("fig4", FIG4),
            ("demoted", DEMOTED)]


def decisions(tracer):
    """The multiset of (name, proc) over report-backed decisions."""
    return Counter((e["name"], e.get("proc")) for e in tracer.host_events
                   if e["kind"] == "compile.decision"
                   and e["name"] in REPORT_BACKED)


def traced(compile):
    tracer = Tracer()
    compile(tracer)
    return decisions(tracer)


@pytest.fixture(scope="module")
def pool():
    p = WorkerPool(size=1, seed=0)
    yield p
    p.close()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = sock_path(tmp_path_factory.mktemp("decisions"))
    d = CompileDaemon(path, pool_size=0)
    t = d.serve_in_thread()
    yield path
    d.stop()
    t.join(timeout=5)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name,src", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_decisions_are_path_independent(name, src, mode, pool, daemon):
    opts = Options(nprocs=4, mode=mode)
    cold = traced(lambda t: compile_program(src, opts, trace=t))
    assert "distribution" in {n for n, _ in cold}

    sc = ServiceCompiler()
    sc.compile(src, opts)
    warm = traced(lambda t: sc.compile(src, opts, tracer=t))

    jobs = pool.stats()["jobs_ok"]
    pooled = traced(
        lambda t: ServiceCompiler(pool=pool).compile(src, opts, tracer=t))
    assert pool.stats()["jobs_ok"] > jobs

    def serve(t):
        _, info = compile_with_fallback(src, opts, server=daemon, trace=t)
        assert info["used"] == "server"

    served = traced(serve)
    assert warm == cold
    assert pooled == cold
    assert served == cold


def test_demotion_and_clone_decisions_are_traced():
    """The decisions carry the report's facts, fields included."""
    tracer = Tracer()
    cp = compile_program(DEMOTED, Options(nprocs=4), trace=tracer)
    got = [e for e in tracer.host_events if e["kind"] == "compile.decision"]
    (demotion,) = [e for e in got if e["name"] == "rtr-demotion"]
    assert demotion["proc"] == "shade"
    assert demotion["line"] == cp.report.rtr_demotions[0]

    tracer = Tracer()
    opts = Options(nprocs=4, clone_growth_limit=1.0)
    compile_program(FIG4, opts, trace=tracer)
    notes = [e["text"] for e in tracer.host_events
             if e.get("name") == "note"]
    assert notes == ["cloning disabled: growth threshold exceeded"]

    tracer = Tracer()
    cp = compile_program(FIG4, Options(nprocs=4), trace=tracer)
    got = [e for e in tracer.host_events if e["kind"] == "compile.decision"]
    assert [(e["base"], e["clones"]) for e in got if e["name"] == "clone"] \
        == [("f1", "f1$1"), ("f2", "f2$1")]
    (comm,) = [e for e in got if e["name"] == "comm-placement"]
    assert (comm["proc"], comm["array"], comm["comm_kind"]) \
        == cp.report.comm_sites[0]
    assert comm["line"] == cp.report.comm_placements[0]
