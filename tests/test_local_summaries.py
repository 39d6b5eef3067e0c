"""Local summaries per procedure (paper §1 item 1, §3: "local summary
collection after edits only").

Each unit's summary — its call-resolved tree, reaching solves and §8
source fingerprint — is a pure function of its text
and is memoised beside the parser's unit memo.  A stale entry would show
up here as a wrong answer: every result is compared with a compile made
after resetting every memo."""

import sys
import threading

import pytest

from repro import codegen
from repro.apps import stencil1d_source
from repro.core import Mode, Options, compile_program, parse_distribute_args
from repro.core.driver import assemble, front_end, sweep
from repro.core.recompile import (
    RecompilationManager,
    source_fingerprint,
    unit_fingerprint,
)
from repro.lang import ast as A
from repro.lang import parser as parser_mod
from repro.lang import reset_unit_memo
from repro.service import ServiceCompiler
from repro.service.pool import WorkerPool

from .conftest import clonefan_source, pipeline_source
from .test_recompilation import PURE_APPS
from .test_service import assert_same_program


def reset_all_memos():
    reset_unit_memo()
    codegen.reset_memory()


def summarised(acg):
    return {n for n, node in acg.nodes.items() if node.summary is not None}


# -- §8 fingerprints come from the memo ----------------------------------

FINGERPRINT_CASES = [
    (f"{name}-{mode.value}", src, mode, ())
    for name, src in PURE_APPS for mode in Mode
] + [
    ("stencil1d-x=cyclic", stencil1d_source(64, 2), Mode.INTER,
     ("x=cyclic",)),
    ("clonefan-intra", clonefan_source(2), Mode.INTRA, ()),
    ("clonefan-inter", clonefan_source(2), Mode.INTER, ()),
]


@pytest.mark.usefixtures("cold_unit_memo")
@pytest.mark.parametrize("src,mode,overrides",
                         [c[1:] for c in FINGERPRINT_CASES],
                         ids=[c[0] for c in FINGERPRINT_CASES])
def test_memoised_fingerprint_is_the_printed_one(src, mode, overrides):
    """The store keys the sweep builds are the parent's byte for byte:
    a unit's memoised fingerprint is the one printing it gives, cold and
    warm, and units the front end rewrote are printed afresh."""
    opts = Options(nprocs=4, mode=mode,
                   distribute=parse_distribute_args(list(overrides)))
    for _ in ("cold", "warm"):
        prog, acg, _, _ = front_end(src, opts)
        for n in prog.names():
            assert unit_fingerprint(acg, n) == \
                source_fingerprint(prog.unit(n)), n


@pytest.mark.usefixtures("cold_unit_memo")
def test_rewritten_units_have_no_summary():
    """Clones, callers whose calls cloning redirected, units an override
    rewrote and programs with duplicate unit names are analysed as they
    are, not from the memo."""
    _, acg, _, report = front_end(clonefan_source(2), Options(nprocs=4))
    assert report.cloned                    # g<j>, h<j> each cloned once
    clones = {c for cs in report.cloned.values() for c in cs}
    # main's calls to g<j> and g<j>$1's calls to h<j> were redirected
    assert summarised(acg) == set(acg.nodes) - clones - {"p"}
    opts = Options(nprocs=4,
                   distribute=parse_distribute_args(["x=cyclic"]))
    _, acg, _, _ = front_end(stencil1d_source(64, 2), opts)
    assert summarised(acg) == {"smooth", "copyback"}
    # an override that leaves the text as it was rewrites nothing
    opts = Options(nprocs=4,
                   distribute=parse_distribute_args(["x=block"]))
    _, acg, _, _ = front_end(stencil1d_source(64, 2), opts)
    assert summarised(acg) == set(acg.nodes)
    # two units of one name: a name no longer identifies one summary
    unit = "subroutine f(a)\nreal a(8)\na({}) = 1\nend\n"
    twice = ("program p\nreal x(8)\ndistribute x(block)\ncall f(x)\nend\n"
             + unit.format(1) + unit.format(2))
    _, acg, _, _ = front_end(twice, Options(nprocs=2))
    assert summarised(acg) == set()


# -- edit -> revert -> edit, replayed in one process ----------------------


def replay_sources():
    consts = [f"{100 + j}.25" for j in range(4)]
    base = pipeline_source(4, consts)
    edit = pipeline_source(4, consts[:2] + ["900.75"] + consts[3:])
    edit2 = pipeline_source(4, [consts[0], "7.5", "900.75", consts[3]])
    cyclic = edit2.replace("distribute x(block)", "distribute x(cyclic)")
    fan = clonefan_source(2)
    fan_edit = fan.replace("+ 0.75", "+ 0.5")
    # h0 stops touching z: g0's text is unchanged, but z no longer
    # appears below it, so g0 must not be cloned any more
    fan_quiet = fan.replace("z(k, i) = f(z(k + 1, i)) + 0.75", "w = k")
    # f's text and entry facts stay; only the constant n changes
    sym = ("program p\nreal x(64)\ndistribute x(block)\ncall f(x, 64)\n"
           "end\nsubroutine f(a, n)\ninteger n\nreal a(n)\n"
           "distribute a(block)\ndo i = 1, n\n  a(i) = i * 0.5\nenddo\n"
           "end\n")
    sym32 = sym.replace("call f(x, 64)", "call f(x, 32)")
    assert len({fan, fan_edit, fan_quiet}) == 3 and sym32 != sym
    return [base, edit, base, edit2, cyclic, edit2, base,
            fan, fan_edit, fan, fan_quiet, fan, sym, sym32, sym]


def session(driver, opts):
    """``(compile(src) -> CompiledProgram, close or None)`` for one
    caller of the sweep."""
    if driver == "compile_program":
        return (lambda src: compile_program(src, opts)), None
    if driver == "manager":
        return RecompilationManager(opts=opts).compile, None
    pool = WorkerPool(size=1, seed=0) if driver == "service-pool1" else None
    sc = ServiceCompiler(pool=pool)
    return (lambda src: sc.compile(src, opts)[0]), \
        (pool.close if pool is not None else None)


@pytest.mark.parametrize("mode", [Mode.INTER, Mode.INTRA, Mode.RTR])
def test_replayed_edits_equal_a_compile_with_cold_memos(mode):
    """Every build of an edit / revert / edit session, through each
    caller of the sweep in one process, is the compile a process with
    empty memos makes."""
    opts = Options(nprocs=4, mode=mode)
    sources = replay_sources()
    want = {}
    for src in sources:
        reset_all_memos()
        want[src] = compile_program(src, opts)
    reset_all_memos()
    for driver in ("compile_program", "manager", "service",
                   "service-pool1"):
        compile, close = session(driver, opts)
        try:
            for step, src in enumerate(sources):
                got = compile(src)
                assert repr(got.report) == repr(want[src].report), \
                    (driver, step)
                assert_same_program(got, want[src])
        finally:
            if close is not None:
                close()


def test_two_threads_compiling_interleaved_edits(monkeypatch):
    """Two threads compile 200 edits each in opposite interleavings, with
    memo bounds small enough to evict (units, summaries and solves), a
    thread switch every 100 µs and every result checked."""
    monkeypatch.setattr(parser_mod, "_UNIT_MEMO_CAP", 16)
    monkeypatch.setattr(parser_mod, "_DERIVED_CAP", 2)
    layouts = ["block", "cyclic", "block_cyclic(2)"]
    edits = [
        pipeline_source(3, [f"{j % 11}.5", "2.5", f"{j % 7}.25"], n=16)
        .replace("x(block)", f"x({layouts[j % 3]})")
        for j in range(200)
    ]
    opts = Options(nprocs=4)

    def digest(src):
        cp = assemble(sweep(src, opts), opts, shared=False)
        tags = [st.tag for u in cp.program.units
                for st in A.walk_stmts(u.body) if hasattr(st, "tag")]
        return (cp.text(), repr(cp.report), tags,
                sorted((k, repr(v)) for k, v in cp.initial_dists.items()))

    want = {}
    for src in edits:
        if src not in want:
            reset_unit_memo()
            want[src] = digest(src)
    reset_unit_memo()
    errors, done = [], {0: 0, 1: 0}

    def work(tid):
        try:
            for src in edits[tid::2] + edits[1 - tid::2]:
                assert digest(src) == want[src]
                done[tid] += 1
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert done == {0: 200, 1: 200}
    assert len(parser_mod._unit_memo) <= 16
