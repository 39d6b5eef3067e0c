"""Unit tests for the dynamic-data-decomposition machinery (§6):
DecompBefore/After/Use/Kill sets, liveness/coalescing over the event
model, hoisting legality, and array-kill detection."""

import numpy as np
import pytest

from repro.core import DynOpt, Mode, Options, compile_program
from repro.core.dynamic import (
    _first_access_is_full_kill,
    find_dynamic_distributes,
)
from repro.dist import Distribution
from repro.interp import FArray, run_sequential
from repro.lang import ast as A
from repro.lang import parse
from repro.machine import FREE, Machine
from repro.runtime import remap as remap_mod


def check(src, arr="x", dynopt=DynOpt.KILLS, P=4):
    seq = run_sequential(parse(src)).arrays[arr].data
    cp = compile_program(src, Options(nprocs=P, mode=Mode.INTER,
                                      dynopt=dynopt))
    res = cp.run(cost=FREE)
    assert np.allclose(res.gathered(arr), seq)
    return cp, res


class TestFindDynamicDistributes:
    def test_prologue_is_static(self):
        prog = parse(
            "program p\nreal x(10)\ndistribute x(block)\nx(1) = 0\nend\n"
        )
        assert find_dynamic_distributes(prog.main, is_main=True) == []

    def test_post_prologue_is_dynamic(self):
        prog = parse(
            "program p\nreal x(10)\ndistribute x(block)\nx(1) = 0\n"
            "distribute x(cyclic)\nend\n"
        )
        dyn = find_dynamic_distributes(prog.main, is_main=True)
        assert len(dyn) == 1
        assert dyn[0].specs == [A.DistSpec("cyclic")]

    def test_subprogram_distributes_always_dynamic(self):
        prog = parse(
            "subroutine f(x)\nreal x(10)\ndistribute x(cyclic)\n"
            "x(1) = 0\nend\n"
        )
        dyn = find_dynamic_distributes(prog.units[0], is_main=False)
        assert len(dyn) == 1


class TestDecompSets:
    def make(self, src, proc="f1"):
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        return cp

    def test_fig15_sets(self):
        """DecompKill(F1) = {X}, DecompBefore = cyclic, DecompAfter =
        restore; DecompUse(F2) = {X} (the §6.1 example)."""
        src = (
            "program p\nreal x(100)\ndistribute x(block)\n"
            "call f1(x)\ncall f2(x)\nend\n"
            "subroutine f1(x)\nreal x(100)\ndistribute x(cyclic)\n"
            "do i = 1, 100\nx(i) = f(x(i))\nenddo\nend\n"
            "subroutine f2(x)\nreal x(100)\ns = x(1)\nend\n"
        )
        from repro.callgraph.acg import ACG
        from repro.core.cloning import clone_program
        from repro.core.driver import ProcedureCompiler, TagAllocator
        from repro.core.options import CompileReport
        from repro.core.recompile import proc_inputs

        opts = Options(nprocs=4, mode=Mode.INTER)
        outcome = clone_program(parse(src), opts)
        report = CompileReport()
        tags = TagAllocator()
        exports = {}
        for name in outcome.acg.reverse_topological_order():
            pc = ProcedureCompiler(
                outcome.program.unit(name),
                proc_inputs(name, outcome.acg, outcome.reaching, exports),
                opts, report, tags, is_main=(name == "p"),
            )
            exports[name] = pc.compile()
        f1 = exports["f1"].decomp
        assert f1.kill == {"x"}
        assert str(f1.before["x"]) == "(cyclic)"
        assert f1.after["x"] is None  # restore inherited
        f2 = exports["f2"].decomp
        assert "x" in f2.use
        assert f2.kill == set()

    def test_callee_remap_not_delayable_when_used_first(self):
        """A procedure that reads the inherited layout before
        redistributing must remap in place."""
        src = (
            "program p\nreal x(32)\ndistribute x(block)\ncall f1(x)\nend\n"
            "subroutine f1(x)\nreal x(32)\n"
            "s = x(1)\n"                      # uses inherited first
            "distribute x(cyclic)\n"
            "do i = 1, 32\nx(i) = f(x(i))\nenddo\nend\n"
        )
        cp, res = check(src)
        f1 = cp.program.unit("f1")
        assert any(isinstance(s, A.Remap) for s in A.walk_stmts(f1.body))
        assert res.stats.remaps >= 1


class TestArrayKillDetection:
    def probe(self, body, decls="real x(10)"):
        src = f"subroutine f(x)\n{decls}\n{body}\nend\n"
        proc = parse(src).units[0]
        return _first_access_is_full_kill(proc, "x", {})

    def test_full_overwrite_detected(self):
        assert self.probe("do i = 1, 10\nx(i) = i\nenddo")

    def test_partial_overwrite_rejected(self):
        assert not self.probe("do i = 1, 5\nx(i) = i\nenddo")

    def test_read_before_write_rejected(self):
        assert not self.probe("s = x(1)\ndo i = 1, 10\nx(i) = i\nenddo")

    def test_self_referencing_write_rejected(self):
        assert not self.probe("do i = 1, 10\nx(i) = x(i) + 1\nenddo")

    def test_strided_overwrite_rejected(self):
        assert not self.probe("do i = 1, 10, 2\nx(i) = i\nenddo")

    def test_2d_full_overwrite(self):
        assert self.probe(
            "do j = 1, 4\ndo i = 1, 4\nx(i, j) = i\nenddo\nenddo",
            decls="real x(4, 4)",
        )

    def test_2d_wrong_bounds_rejected(self):
        assert not self.probe(
            "do j = 1, 3\ndo i = 1, 4\nx(i, j) = i\nenddo\nenddo",
            decls="real x(4, 4)",
        )


class TestMainLocalRedistribution:
    def test_midstream_redistribute_compiles_to_remap(self):
        src = (
            "program p\nreal x(32)\ndistribute x(block)\n"
            "call phase1(x)\n"
            "distribute x(cyclic)\n"
            "call phase2(x)\nend\n"
            "subroutine phase1(x)\nreal x(32)\n"
            "do i = 1, 32\nx(i) = i * 1.0\nenddo\nend\n"
            "subroutine phase2(x)\nreal x(32)\n"
            "do i = 1, 32\nx(i) = x(i) + 1\nenddo\nend\n"
        )
        cp, res = check(src)
        main = cp.program.main
        remaps = [s for s in A.walk_stmts(main.body)
                  if isinstance(s, (A.Remap, A.MarkDist))]
        assert len(remaps) == 1

    def test_redistribute_of_dead_array_marks(self):
        """phase2 fully overwrites x: the remap becomes a MarkDist."""
        src = (
            "program p\nreal x(32)\ndistribute x(block)\n"
            "call phase1(x)\n"
            "distribute x(cyclic)\n"
            "call killer(x)\nend\n"
            "subroutine phase1(x)\nreal x(32)\n"
            "do i = 1, 32\nx(i) = i * 1.0\nenddo\nend\n"
            "subroutine killer(x)\nreal x(32)\n"
            "do i = 1, 32\nx(i) = i * 3.0\nenddo\nend\n"
        )
        cp, res = check(src)
        main = cp.program.main
        assert any(isinstance(s, A.MarkDist)
                   for s in A.walk_stmts(main.body))
        assert res.stats.remaps == 0  # nothing physically moved


class TestOptimizationLevels:
    SRC = (
        "program p\nreal x(64)\nparameter (t = 6)\ndistribute x(block)\n"
        "do k = 1, t\n"
        "call cycphase(x)\n"
        "call blkphase(x)\n"
        "enddo\nend\n"
        "subroutine cycphase(x)\nreal x(64)\ndistribute x(cyclic)\n"
        "do i = 1, 64\nx(i) = f(x(i))\nenddo\nend\n"
        "subroutine blkphase(x)\nreal x(64)\n"
        "do i = 1, 64\nx(i) = x(i) + 1.0\nenddo\nend\n"
    )

    def test_levels_correct_and_monotone(self):
        remaps = []
        for dyn in (DynOpt.NONE, DynOpt.LIVE, DynOpt.HOIST, DynOpt.KILLS):
            _cp, res = check(self.SRC, dynopt=dyn)
            remaps.append(res.stats.remaps)
        assert remaps[0] >= remaps[1] >= remaps[2] >= remaps[3]
        # with a block-using phase inside the loop, both remaps stay per
        # iteration under LIVE: 2 per iteration
        assert remaps[1] == 2 * 6

    def test_none_places_full_pattern(self):
        _cp, res = check(self.SRC, dynopt=DynOpt.NONE)
        # before+after around the redistributing call, per iteration;
        # one no-op elided by the runtime on the first entry
        assert res.stats.remaps >= 2 * 6


class TestSendPlanMemo:
    """A remap's send plans are computed once per (old, new) value, for
    every rank at once: the phase computations remap between the same
    two distributions every step."""

    N, P = 12, 4

    def remap_once(self):
        n, P = self.N, self.P
        bounds = [(1, n), (1, n)]
        rows = [A.DistSpec("block"), A.DistSpec("none")]
        cols = [A.DistSpec("none"), A.DistSpec("block")]
        want = np.arange(n * n, dtype=float).reshape(n, n)

        def node(ctx):
            # fresh, equal distributions each run: the memo is by value
            arr = FArray("a", bounds,
                         dist=Distribution.from_specs(rows, bounds, P))
            arr.data[...] = 0.0
            own = slice(ctx.rank * (n // P), (ctx.rank + 1) * (n // P))
            arr.data[own, :] = want[own, :]
            yield from remap_mod.remap_array_y(
                ctx, arr, Distribution.from_specs(cols, bounds, P))
            assert np.array_equal(arr.data[:, own], want[:, own])
            return arr.data.copy()

        return Machine(P, FREE).run(node)

    def test_second_identical_remap_computes_no_section(self, monkeypatch):
        calls = []
        real = Distribution.local_index_sets

        def counted(dist, rank):
            calls.append(rank)
            return real(dist, rank)

        monkeypatch.setattr(Distribution, "local_index_sets", counted)
        remap_mod.send_plans.cache_clear()
        first = self.remap_once()
        # each distribution's sets once per rank, not once per peer
        assert len(calls) == 2 * self.P
        calls.clear()
        second = self.remap_once()
        assert calls == []
        # one entry for the pair, shared by all ranks
        assert remap_mod.send_plans.cache_info().currsize == 1
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

