"""Tests for recompilation analysis (§4, §8): separate compilation is
preserved — only procedures whose source or interprocedural inputs
changed are rebuilt."""

import os
import re

import numpy as np
import pytest

import repro
from repro.analysis.aliasing import AliasedRedistributionError
from repro.apps import (
    FIG1,
    FIG4,
    FIG15,
    adi_source,
    cg_source,
    dgefa_dgesl_source,
    dgefa_pivot_source,
    dgefa_source,
    stencil1d_source,
    stencil2d_source,
    wave_source,
)
from repro.core import (
    CompileError,
    Mode,
    Options,
    compile_program,
    parse_distribute_args,
)
from repro.core.recompile import RecompilationManager
from repro.interp import run_sequential
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import FREE

from .test_rtr_demotion import SRC as DEMOTED
from .test_service import assert_same_program


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

#: same program, init's loop body changed (internal edit, same exports)
EDIT_LEAF = BASE.replace("x(i) = i * 1.0", "x(i) = i * 2.0")

#: main's distribution changed: everything downstream is affected
EDIT_DIST = BASE.replace("distribute x(block)", "distribute x(cyclic)")

#: smooth's shift distance changed: its exports (pending comm, overlap)
#: change, so main must recompile too — but init must not
EDIT_SHIFT = BASE.replace("x(i) = f(x(i + 5))", "x(i) = f(x(i + 3))")


def manager():
    return RecompilationManager(opts=Options(nprocs=4, mode=Mode.INTER))


class TestInitialCompilation:
    def test_everything_compiled_once(self):
        m = manager()
        m.compile(BASE)
        assert sorted(m.last_recompiled) == ["init", "p", "smooth"]
        assert m.last_reused == []

    def test_results_correct(self):
        m = manager()
        cp = m.compile(BASE)
        seq = run_sequential(parse(BASE)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)


class TestNoEdit:
    def test_recompile_nothing(self):
        m = manager()
        m.compile(BASE)
        m.compile(BASE)
        assert m.last_recompiled == []
        assert sorted(m.last_reused) == ["init", "p", "smooth"]

    def test_reused_build_still_runs(self):
        m = manager()
        m.compile(BASE)
        cp = m.compile(BASE)
        seq = run_sequential(parse(BASE)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)


class TestLeafInternalEdit:
    def test_only_leaf_recompiled(self):
        """init's body changed but its interface summary (exports) did
        not — callers keep their node code (§8's payoff)."""
        m = manager()
        m.compile(BASE)
        m.compile(EDIT_LEAF)
        assert m.last_recompiled == ["init"]
        assert sorted(m.last_reused) == ["p", "smooth"]

    def test_edited_build_correct(self):
        m = manager()
        m.compile(BASE)
        cp = m.compile(EDIT_LEAF)
        seq = run_sequential(parse(EDIT_LEAF)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)


class TestInterfaceChangingEdits:
    def test_distribution_change_recompiles_users(self):
        m = manager()
        m.compile(BASE)
        m.compile(EDIT_DIST)
        # main's source changed; init/smooth see a different reaching
        # decomposition -> all recompile
        assert sorted(m.last_recompiled) == ["init", "p", "smooth"]

    def test_export_change_propagates_to_callers(self):
        m = manager()
        m.compile(BASE)
        m.compile(EDIT_SHIFT)
        assert "smooth" in m.last_recompiled      # edited
        assert "p" in m.last_recompiled           # consumes its exports
        assert m.last_reused == ["init"]          # untouched

    def test_interface_edit_correct(self):
        m = manager()
        m.compile(BASE)
        cp = m.compile(EDIT_SHIFT)
        seq = run_sequential(parse(EDIT_SHIFT)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)


class TestAcrossManyEdits:
    def test_alternating_edits_stay_consistent(self):
        m = manager()
        for src in (BASE, EDIT_LEAF, BASE, EDIT_SHIFT, EDIT_LEAF):
            cp = m.compile(src)
            seq = run_sequential(parse(src)).arrays["x"].data
            res = cp.run(cost=FREE)
            assert np.allclose(res.gathered("x"), seq)

    def test_recompile_counts_bounded(self):
        """Across a session of leaf edits, total recompilations stay far
        below whole-program rebuilds."""
        m = manager()
        m.compile(BASE)
        total = 0
        for k in (3.0, 4.0, 5.0):
            edited = BASE.replace("x(i) = i * 1.0", f"x(i) = i * {k}")
            m.compile(edited)
            total += len(m.last_recompiled)
        assert total == 3  # one procedure per edit, not 9


class TestFigurePrograms:
    def test_fig1_under_manager_matches_driver(self):
        from repro.core import compile_program

        m = manager()
        cp1 = m.compile(FIG1)
        cp2 = compile_program(FIG1, Options(nprocs=4, mode=Mode.INTER))
        r1, r2 = cp1.run(cost=FREE), cp2.run(cost=FREE)
        assert np.allclose(r1.gathered("x"), r2.gathered("x"))
        assert r1.stats.messages == r2.stats.messages

    def test_stencil_session(self):
        m = manager()
        src = stencil1d_source(64, 2)
        m.compile(src)
        m.compile(src)
        assert m.last_recompiled == []


class TestIsTheCompilerFdcRuns:
    """The manager is ``sweep`` + a store, so it cannot differ from
    ``compile_program``: each case failed while it was its own driver."""

    def test_unanalyzable_procedure_is_demoted_not_fatal(self):
        opts = Options(nprocs=4, mode=Mode.INTER)
        cp = RecompilationManager(opts=opts).compile(DEMOTED)
        cold = compile_program(DEMOTED, opts)
        assert cp.report.rtr_demotions == cold.report.rtr_demotions != []
        strict = Options(nprocs=4, mode=Mode.INTER, strict=True)
        with pytest.raises(CompileError):
            compile_program(DEMOTED, strict)
        with pytest.raises(CompileError):
            RecompilationManager(opts=strict).compile(DEMOTED)

    def test_aliased_redistribution_rejected(self):
        # the program of test_aliasing.TestSection64Restriction
        src = (
            "program p\nreal x(16)\ndistribute x(block)\n"
            "call f(x, x)\nend\n"
            "subroutine f(a, b)\nreal a(16), b(16)\n"
            "distribute a(cyclic)\n"
            "do i = 1, 16\na(i) = f(b(i))\nenddo\nend\n"
        )
        with pytest.raises(AliasedRedistributionError):
            manager().compile(src)

    def test_distribute_overrides_applied(self):
        opts = Options(nprocs=4, mode=Mode.INTER,
                       distribute=parse_distribute_args(["x=cyclic"]))
        cp = RecompilationManager(opts=opts).compile(BASE)
        cold = compile_program(BASE, opts)
        assert cp.text() == cold.text()
        assert cp.report.distributions == cold.report.distributions
        assert "cyclic" in cp.report.distributions["init"]["x"]

    def test_incremental_build_reports_reused_procedures(self):
        m = manager()
        m.compile(BASE)
        cp = m.compile(EDIT_LEAF)
        assert m.last_recompiled == ["init"]
        cold = compile_program(EDIT_LEAF, m.opts)
        assert_same_program(cp, cold)  # report and statement tags too
        assert cp.explain() == cold.explain()

    def test_reverted_edit_is_a_hit(self):
        """The store is content-addressed: it remembers every version
        compiled in the session, not only the last build's."""
        m = manager()
        for src in (BASE, EDIT_LEAF, BASE):
            m.compile(src)
        assert m.last_recompiled == []


PURE_APPS = [
    ("fig1", FIG1), ("fig4", FIG4), ("fig15", FIG15),
    ("dgefa", dgefa_source(16)), ("dgefa_pivot", dgefa_pivot_source(16)),
    ("dgefa_dgesl", dgefa_dgesl_source(16)), ("adi", adi_source(16, 2)),
    ("cg", cg_source(32, 4)), ("stencil1d", stencil1d_source(64, 2)),
    ("stencil2d", stencil2d_source(24, 2)), ("wave", wave_source(64, 4)),
]


@pytest.mark.parametrize("src", [s for _, s in PURE_APPS],
                         ids=[n for n, _ in PURE_APPS])
def test_compile_program_is_a_pure_function(src):
    """Two compiles of one source are equal and share nothing: reuse
    lives per procedure below ``compile_program``, so a caller that
    rewrites its result cannot change anyone else's."""
    for mode in (Mode.RTR, Mode.INTRA, Mode.INTER):
        opts = Options(nprocs=4, mode=mode)
        a, b = compile_program(src, opts), compile_program(src, opts)
        assert a is not b and a.program is not b.program
        assert_same_program(a, b)
        text = b.text()
        stmt = next(s for u in a.program.units for s in A.walk_stmts(u.body)
                    if isinstance(s, A.Assign))
        stmt.expr = A.Var("rewritten")
        assert a.text() != text
        assert b.text() == text, mode


def _sources(*subdirs):
    """Relative path -> text of every module under ``repro/<subdir>``
    (all of ``repro`` when no subdir is named)."""
    root = os.path.dirname(repro.__file__)
    texts = {}
    for sub in subdirs or ("",):
        for d, _, files in os.walk(os.path.join(root, sub)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(d, name)
                    with open(path, encoding="utf-8") as fh:
                        texts[os.path.relpath(path, root)] = fh.read()
    return texts


def test_the_sweep_has_one_home():
    """``core/driver.py`` is the only driver of the reverse-topological
    pass: nothing else constructs a ``ProcedureCompiler``, allocates
    tags, walks the ACG in compilation order or re-implements the front
    end, and the helpers of the deleted second and third copies stay
    deleted."""
    texts = _sources()
    driver = os.path.join("core", "driver.py")
    recompile = texts[os.path.join("core", "recompile.py")]
    assert [p for p, t in texts.items() if "ProcedureCompiler(" in t] \
        == [driver]
    assert sum(t.count("TagAllocator()") for t in texts.values()) == 1
    assert "TagAllocator()" in texts[driver]
    for path, text in texts.items():
        assert not re.search(
            r"def renumber_tags|def merge_fragment|class ProcRecord", text
        ), path
        if path.startswith("service" + os.sep):
            assert "reverse_topological_order(" not in text, path
    assert not re.search(
        r"reverse_topological_order\(|clone_program|compute_reaching"
        r"|^from \.driver import", recompile, re.M)


def test_lower_layers_do_not_import_the_compiler():
    """The simulator, telemetry, engines and front end sit below
    ``repro.core``: what they compute is a function of their inputs,
    never of compiler state."""
    up = re.compile(r"^\s*(?:from|import)\s+(?:repro\.core|\.\.core)\b",
                    re.M)
    texts = _sources("machine", "obs", "interp", "codegen", "lang")
    assert texts
    assert [p for p, t in texts.items() if up.search(t)] == []


def test_the_procedure_is_the_only_grain_of_reuse():
    """No whole-program memo in front of the per-procedure ones (the
    parser's unit memo, the summary store, codegen's unit memo): its
    switch, key, counters, trace decision and metric family stay
    deleted."""
    gone = ("REPRO_COMPILE_CACHE", "_compile_cache", "compile_cache_stats",
            "program_key", "compile.cache-hit",
            "fdc_compile_cache_events_total")
    assert [(p, name) for p, t in _sources().items()
            for name in gone if name in t] == []
