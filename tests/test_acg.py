"""Tests for the augmented call graph (§5.1, Figure 5) and GMOD/GREF."""

import pytest

from repro.analysis.sideeffects import appear, compute_side_effects
from repro.callgraph.acg import ACG, CallGraphError
from repro.lang import ast as A
from repro.lang import parse

FIG4 = """
program p1
real x(100,100), y(100,100)
parameter (n$proc = 4)
align y(i, j) with x(j, i)
distribute x(block, :)
do i = 1, 100
s1: call f1(x, i)
enddo
do j = 1, 100
s2: call f1(y, j)
enddo
end

subroutine f1(z, i)
real z(100,100)
s3: call f2(z, i)
end

subroutine f2(z, i)
real z(100,100)
do k = 1, 100
  z(k, i) = f(z(k+5, i))
enddo
end
"""


class TestACGStructure:
    def test_fig5_shape(self):
        acg = ACG(parse(FIG4))
        assert set(acg.nodes) == {"p1", "f1", "f2"}
        assert acg.callees("p1") == {"f1"}
        assert acg.callees("f1") == {"f2"}
        assert acg.callees("f2") == set()

    def test_call_sites_carry_loops(self):
        acg = ACG(parse(FIG4))
        s1, s2 = acg.calls_from("p1")
        assert [l.var for l in s1.loops] == ["i"]
        assert [l.var for l in s2.loops] == ["j"]
        s3 = acg.calls_from("f1")[0]
        assert s3.loops == []

    def test_loop_nodes(self):
        acg = ACG(parse(FIG4))
        assert [l.var for l in acg.node("p1").loops] == ["i", "j"]
        assert [l.var for l in acg.node("f2").loops] == ["k"]

    def test_index_formal_annotation(self):
        """Formal i of F1 is bound to the index of P1's 1:100 loop."""
        acg = ACG(parse(FIG4))
        s1 = acg.calls_from("p1")[0]
        assert "i" in s1.index_formals
        li = s1.index_formals["i"]
        assert (li.lo, li.hi) == (A.Num(1), A.Num(100))

    def test_array_actual_binding(self):
        acg = ACG(parse(FIG4))
        s1, s2 = acg.calls_from("p1")
        assert s1.array_actuals == {"z": "x"}
        assert s2.array_actuals == {"z": "y"}
        assert not s1.reshaped

    def test_callers_indexed_in_call_order(self):
        acg = ACG(parse(FIG4))
        for name in acg.nodes:
            assert acg.calls_to(name) == \
                [c for c in acg.calls if c.callee == name]
        assert [c.caller for c in acg.calls_to("f1")] == ["p1", "p1"]
        assert acg.calls_to("p1") == []

    def test_topological_orders(self):
        acg = ACG(parse(FIG4))
        topo = acg.topological_order()
        assert topo.index("p1") < topo.index("f1") < topo.index("f2")
        rev = acg.reverse_topological_order()
        assert rev.index("f2") < rev.index("f1") < rev.index("p1")

    def test_translate_expr(self):
        acg = ACG(parse(FIG4))
        s3 = acg.calls_from("f1")[0]
        # f2's `i + 5` translated to f1 terms is still `i + 5` (i -> i)
        got = s3.translate_expr(A.BinOp("+", A.Var("i"), A.Num(5)))
        assert got == A.BinOp("+", A.Var("i"), A.Num(5))
        s1 = acg.calls_from("p1")[0]
        # f1's formal z -> actual x at S1 (expression-level rename)
        got = s1.translate_expr(A.Var("z"))
        assert got == A.Var("x")


class TestACGErrors:
    def test_undefined_callee(self):
        with pytest.raises(CallGraphError, match="undefined"):
            ACG(parse("program p\ncall nope(x)\nend\n"))

    def test_arity_mismatch(self):
        src = "program p\ncall f(1, 2)\nend\nsubroutine f(a)\na = 0\nend\n"
        with pytest.raises(CallGraphError, match="passes 2"):
            ACG(parse(src))

    def test_recursion_rejected(self):
        src = (
            "program p\ncall f(1)\nend\n"
            "subroutine f(a)\ncall g(a)\nend\n"
            "subroutine g(a)\ncall f(a)\nend\n"
        )
        with pytest.raises(CallGraphError, match="recursive"):
            ACG(parse(src))

    def test_array_formal_scalar_actual(self):
        src = (
            "program p\ninteger k\ncall f(k)\nend\n"
            "subroutine f(a)\nreal a(10)\na(1) = 0\nend\n"
        )
        with pytest.raises(CallGraphError, match="non-array"):
            ACG(parse(src))

    def test_reshape_flagged(self):
        src = (
            "program p\nreal x(10, 10)\ncall f(x)\nend\n"
            "subroutine f(a)\nreal a(100)\na(1) = 0\nend\n"
        )
        acg = ACG(parse(src))
        assert acg.calls_from("p")[0].reshaped


class TestSideEffects:
    def test_direct_mod_ref(self):
        src = (
            "program p\nreal x(10), y(10)\ncall f(x, y)\nend\n"
            "subroutine f(a, b)\nreal a(10), b(10)\na(1) = b(2)\nend\n"
        )
        acg = ACG(parse(src))
        eff = compute_side_effects(acg)
        assert "a" in eff["f"].mod
        assert "b" in eff["f"].ref
        assert "b" not in eff["f"].mod

    def test_transitive_effects(self):
        src = (
            "program p\nreal x(10)\ncall f(x)\nend\n"
            "subroutine f(a)\nreal a(10)\ncall g(a)\nend\n"
            "subroutine g(c)\nreal c(10)\nc(1) = 2\nend\n"
        )
        acg = ACG(parse(src))
        eff = compute_side_effects(acg)
        assert "a" in eff["f"].mod          # through g
        assert "x" in eff["p"].mod          # through f -> g

    def test_appear_fig4(self):
        """Appear(F1) = {z} — only the array flows into cloning decisions."""
        acg = ACG(parse(FIG4))
        eff = compute_side_effects(acg)
        assert "z" in appear(acg, eff, "f1")
        assert "z" in appear(acg, eff, "f2")

    def test_expression_actual_is_ref_only(self):
        src = (
            "program p\ninteger n\ncall f(n + 1)\nend\n"
            "subroutine f(m)\ninteger m\nm = m + 1\nend\n"
        )
        acg = ACG(parse(src))
        eff = compute_side_effects(acg)
        assert "n" in eff["p"].ref
        assert "n" not in eff["p"].mod
