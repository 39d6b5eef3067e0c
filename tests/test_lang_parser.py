"""Unit tests for the Fortran D parser."""

import sys
import threading

import pytest

from repro import apps
from repro.core import Options, compile_program
from repro.lang import (
    PARSE_COUNTS,
    SUMMARY_COUNTS,
    LexError,
    ParseError,
    Parser,
    parse,
    program_str,
    tokenize,
)
from repro.lang import ast as A
from repro.lang import parser as parser_mod
from repro.lang.parser import _resolve_calls

from .conftest import chain_source, clonefan_source, pipeline_source


def parse_unit(body, header="program t", decls="real x(100)\ninteger i"):
    src = f"{header}\n{decls}\n{body}\nend\n"
    return parse(src).units[0]


class TestUnits:
    def test_program_unit(self):
        p = parse("program main\nx = 1\nend\n")
        assert p.main.name == "main"
        assert p.main.kind == "program"

    def test_subroutine_with_formals(self):
        p = parse("subroutine f(a, b, n)\na = b + n\nend\n")
        u = p.unit("f")
        assert u.kind == "subroutine"
        assert u.formals == ["a", "b", "n"]

    def test_subroutine_no_formals(self):
        p = parse("subroutine f\nx = 1\nend\n")
        assert p.unit("f").formals == []

    def test_typed_function(self):
        p = parse("integer function idamax(n, dx)\nidamax = n\nend\n")
        u = p.unit("idamax")
        assert u.kind == "function"
        assert u.result_type == "integer"

    def test_multiple_units(self):
        src = "program p\ncall f(x)\nend\n\nsubroutine f(y)\ny = 1\nend\n"
        p = parse(src)
        assert p.names() == ["p", "f"]

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            parse("program p\nx = 1\n")


class TestDeclarations:
    def test_scalar_and_array_decls(self):
        u = parse_unit("x(1) = n", decls="real x(100)\ninteger n")
        assert u.decl("x").dims == [(A.ONE, A.Num(100))]
        assert u.decl("n").dims == []
        assert u.decl("n").type == "integer"

    def test_2d_array(self):
        u = parse_unit("x(1,2) = 0", decls="real x(100, 50)")
        assert u.decl("x").rank == 2

    def test_explicit_lower_bound(self):
        u = parse_unit("x(0) = 1", decls="real x(0:10)")
        assert u.decl("x").dims == [(A.Num(0), A.Num(10))]

    def test_symbolic_bounds(self):
        # parameterized overlaps, Figure 14
        src = "subroutine f(x, xlo, xhi)\nreal x(xlo:xhi)\nx(1) = 0\nend\n"
        u = parse(src).unit("f")
        assert u.decl("x").dims == [(A.Var("xlo"), A.Var("xhi"))]

    def test_parameter_statement(self):
        u = parse_unit("x(1) = n$proc", decls="real x(10)\nparameter (n$proc = 4)")
        assert u.param_value("n$proc") == A.Num(4)

    def test_double_precision(self):
        u = parse_unit("x(1) = 0", decls="double precision x(10)")
        assert u.decl("x").type == "real"

    def test_multiple_names_one_decl(self):
        u = parse_unit("a = b", decls="real a, b, c(5)")
        assert u.decl("a") and u.decl("b") and u.decl("c").rank == 1


class TestFortranD:
    def test_decomposition(self):
        u = parse_unit("continue", decls="real x(100)\ndecomposition d(100)")
        # decomposition is a body statement (executable context in our dialect)
        p = parse("program t\nreal x(100)\ndecomposition d(100, 50)\nend\n")
        d = p.main.body[0]
        assert isinstance(d, A.Decomposition)
        assert d.extents == [A.Num(100), A.Num(50)]

    def test_align(self):
        p = parse("program t\nreal y(4,4)\nalign y(i, j) with x(j, i)\nend\n")
        al = p.main.body[0]
        assert isinstance(al, A.Align)
        assert al.source_subs == ["i", "j"]
        assert al.target_subs == ["j", "i"]

    def test_distribute_block(self):
        p = parse("program t\nreal x(100)\ndistribute x(block)\nend\n")
        d = p.main.body[0]
        assert isinstance(d, A.Distribute)
        assert d.specs == [A.DistSpec("block")]

    def test_distribute_mixed(self):
        p = parse("program t\ndistribute d(block, :)\nend\n")
        assert p.main.body[0].specs == [A.DistSpec("block"), A.DistSpec("none")]

    def test_distribute_block_cyclic(self):
        p = parse("program t\ndistribute d(block_cyclic(8), :)\nend\n")
        assert p.main.body[0].specs[0] == A.DistSpec("block_cyclic", 8)

    def test_distribute_cyclic(self):
        p = parse("program t\ndistribute d(cyclic)\nend\n")
        assert p.main.body[0].specs == [A.DistSpec("cyclic")]


class TestStatements:
    def test_do_loop(self):
        u = parse_unit("do i = 1, 95\nx(i) = 0\nenddo")
        loop = u.body[0]
        assert isinstance(loop, A.Do)
        assert loop.var == "i"
        assert loop.lo == A.Num(1)
        assert loop.hi == A.Num(95)
        assert loop.step == A.ONE

    def test_do_loop_with_step(self):
        u = parse_unit("do i = 1, 100, 2\nx(i) = 0\nenddo")
        assert u.body[0].step == A.Num(2)

    def test_nested_do(self):
        u = parse_unit(
            "do i = 1, 10\ndo j = 1, 10\nx(i) = j\nenddo\nenddo"
        )
        outer = u.body[0]
        inner = outer.body[0]
        assert isinstance(inner, A.Do) and inner.var == "j"

    def test_block_if_else(self):
        u = parse_unit("if (i > 0) then\nx(1) = 1\nelse\nx(2) = 2\nendif")
        s = u.body[0]
        assert isinstance(s, A.If)
        assert len(s.then_body) == 1 and len(s.else_body) == 1

    def test_logical_if(self):
        u = parse_unit("if (i .gt. 0) x(1) = 1")
        s = u.body[0]
        assert isinstance(s, A.If) and not s.else_body

    def test_elseif_chains(self):
        u = parse_unit(
            "if (i > 0) then\nx(1) = 1\nelseif (i < 0) then\nx(2) = 2\n"
            "else\nx(3) = 3\nendif"
        )
        s = u.body[0]
        nested = s.else_body[0]
        assert isinstance(nested, A.If) and nested.else_body

    def test_call(self):
        u = parse_unit("call f1(x, i)")
        c = u.body[0]
        assert isinstance(c, A.Call)
        assert c.name == "f1" and len(c.args) == 2

    def test_statement_label(self):
        u = parse_unit("do i = 1, 9\ns1: x(i) = f(x(i+5))\nenddo")
        assert u.body[0].body[0].label == "s1"

    def test_return_stop_continue(self):
        u = parse_unit("continue\nreturn")
        assert isinstance(u.body[0], A.Continue)
        assert isinstance(u.body[1], A.Return)

    def test_do_while(self):
        u = parse_unit("do while (i < 10)\ni = i + 1\nenddo", decls="integer i")
        assert isinstance(u.body[0], A.DoWhile)

    def test_print(self):
        u = parse_unit("print *, 'v', x(1)")
        s = u.body[0]
        assert isinstance(s, A.Print) and len(s.items) == 2


class TestExpressions:
    def expr(self, text, decls="real x(100)\ninteger i, j"):
        u = parse_unit(f"i = {text}", decls=decls)
        return u.body[0].expr

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e == A.BinOp("+", A.Num(1), A.BinOp("*", A.Num(2), A.Num(3)))

    def test_power_right_assoc(self):
        e = self.expr("2 ** 3 ** 2")
        assert e == A.BinOp("**", A.Num(2), A.BinOp("**", A.Num(3), A.Num(2)))

    def test_unary_minus(self):
        assert self.expr("-i") == A.UnOp("-", A.Var("i"))

    def test_comparison_and_logic(self):
        e = self.expr("i > 0 .and. j < 5")
        assert isinstance(e, A.BinOp) and e.op == ".and."

    def test_array_ref_vs_function_call(self):
        e = self.expr("x(i) + f(j)")
        assert isinstance(e.left, A.ArrayRef)
        assert isinstance(e.right, A.CallExpr)

    def test_intrinsic_min(self):
        e = self.expr("min(i, 3)")
        assert e == A.CallExpr("min", (A.Var("i"), A.Num(3)))

    def test_parenthesized(self):
        e = self.expr("(1 + i) * 2")
        assert e == A.BinOp("*", A.BinOp("+", A.Num(1), A.Var("i")), A.Num(2))

    def test_user_function_resolved(self):
        src = (
            "program p\nreal x(10)\nx(1) = g2(x(2))\nend\n"
            "real function g2(v)\nreal v\ng2 = v * 2\nend\n"
        )
        p = parse(src)
        e = p.main.body[0].expr
        assert isinstance(e, A.CallExpr) and e.name == "g2"
        assert isinstance(e.args[0], A.ArrayRef)


class TestRoundTrip:
    """program -> text -> program must be stable (idempotent printing)."""

    SOURCES = [
        "program p\nreal x(100)\ndistribute x(block)\n"
        "do i = 1, 95\nx(i) = f(x(i + 5))\nenddo\nend\n",
        "subroutine f1(z, i)\nreal z(100, 100)\ncall f2(z, i)\nend\n",
        "program p\nif (a > 0) then\nb = 1\nelse\nb = 2\nendif\nend\n",
    ]

    @pytest.mark.parametrize("src", SOURCES)
    def test_roundtrip_stable(self, src):
        once = program_str(parse(src))
        twice = program_str(parse(once))
        assert once == twice


# ---------------------------------------------------------------------------
# the unit memo: the memoised parse *is* the parse
# ---------------------------------------------------------------------------


def plain_parse(src):
    """The whole-source path the unit memo replaced."""
    prog = Parser(tokenize(src)).parse_program()
    _resolve_calls(prog)
    return prog


def raised(fn, src):
    """``"<type>: <message>"`` of what ``fn(src)`` raises."""
    with pytest.raises((ParseError, LexError)) as ei:
        fn(src)
    return f"{type(ei.value).__name__}: {ei.value}"


SOURCES = {name: getattr(apps, name)() for name in apps.__all__
           if name.endswith("_source")}
SOURCES.update(FIG1=apps.FIG1, FIG4=apps.FIG4, FIG15=apps.FIG15,
               pipeline=pipeline_source(12), chain=chain_source(6),
               clonefan=clonefan_source(2))

TWO_UNITS = "program p\nx = 1\nend\nsubroutine f(a)\na = 2\nend\n"


@pytest.mark.usefixtures("cold_unit_memo")
class TestUnitMemo:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_cold_warm_and_plain_parse_agree(self, name):
        src = SOURCES[name]
        want = repr(plain_parse(src))
        assert repr(parse(src)) == want           # every unit a miss
        assert PARSE_COUNTS["units_reused"] == 0
        assert repr(parse(src)) == want           # every unit a hit
        assert PARSE_COUNTS["units_parsed"] == PARSE_COUNTS["units_reused"]
        assert program_str(parse(src)) == program_str(plain_parse(src))

    @pytest.mark.parametrize("bad", [
        "subroutine g(b)\nb = = 3\nend\n",        # ParseError, unit 3
        "subroutine g(b)\nb = 3 # 4\nend\n",      # LexError, unit 3
        "subroutine g(b)\nb = 'open\nend\n",
        "subroutine g(b)\ndo i = 1, 3\nb = i\nend\n",
    ], ids=["parse-error", "lex-error", "open-string", "open-do"])
    def test_error_position_same_on_hits_and_misses(self, bad):
        src = TWO_UNITS + "\n! third unit\n" + bad
        want = raised(plain_parse, src)
        assert raised(parse, src) == want         # units 1-2 missed
        assert PARSE_COUNTS["units_parsed"] == 2
        assert raised(parse, src) == want         # units 1-2 hit
        assert PARSE_COUNTS == {"units_parsed": 2, "units_reused": 2}

    @pytest.mark.parametrize("src", [
        "",
        "\n! only a comment\n\n",
        "program p\nx = 1\n",                     # no `end`
        TWO_UNITS + "x = 3\n",                    # text after the last end
        TWO_UNITS + "subroutine g\ny = 1\n",
        "program p\nx = 1\nend program\n",        # `end` + junk
        "program p\nx = 1\nend p\nsubroutine f\nend\n",
        "program p\nx = 1 + &\n",                 # dangling continuation
        "end\n",
    ], ids=["empty", "comment-only", "no-end", "text-after-last-end",
            "unit-after-last-end", "end-program", "end-name",
            "dangling-continuation", "bare-end"])
    def test_malformed_sources_raise_what_they_raised(self, src):
        assert raised(parse, src) == raised(plain_parse, src)
        assert raised(parse, src) == raised(plain_parse, src)

    @pytest.mark.parametrize("src", [
        "program p\nx = 1\nEND\nsubroutine f\ny = 2\nEnd\n",
        "program p\nx = 1\n   end   \n  subroutine f\ny = 2\n\tend\n",
        "program p\nx = 1\nend ! of p\nsubroutine f\ny = 2\nend ! of f\n",
        "program p\r\nx = 1\r\nend\r\nsubroutine f\r\ny = 2\r\nend\r\n",
        "program p\nx = 1\nend\nsubroutine f\ny = 2\nend",
        "program p\nx = 1\nend\n\n! between\n* units\n\nsubroutine f\n"
        "y = 2\nend\n",
        "program p\nprint *, 'end'\nend\nsubroutine f\nprint *, 'end'\n"
        "end\n",
        "program p\nx = 1\n&\nend\nsubroutine f\ny = 2\nend\n",
    ], ids=["upper-mixed-case", "indented", "end-comment", "crlf",
            "no-trailing-newline", "comments-between-units", "end-string",
            "continued-bare-end"])
    def test_splitter_edges_parse_as_the_plain_path(self, src):
        want = repr(plain_parse(src))
        assert repr(parse(src)) == want
        assert repr(parse(src)) == want
        assert len(parse(src).units) == 2

    def test_continuation_line_that_is_the_bare_word_end(self):
        # one logical line `x = end`: not a unit boundary, and an error
        # with the position the plain path reports
        src = "program p\nx = &\nend\nend\n"
        assert raised(parse, src) == raised(plain_parse, src)

    def test_identical_units_come_back_as_distinct_trees(self):
        unit = "subroutine f(a)\nreal a(10)\na(1) = 2\nend\n"
        prog = parse(unit + unit)
        assert PARSE_COUNTS == {"units_parsed": 1, "units_reused": 1}
        a, b = prog.units
        assert a == b and a is not b
        assert a.body[0] is not b.body[0] and a.decls[0] is not b.decls[0]

    def test_comment_and_blank_line_edits_are_hits(self):
        parse(TWO_UNITS)
        parse(TWO_UNITS.replace("x = 1\n", "\n! why\n* so\nx = 1  ! one\n"))
        assert PARSE_COUNTS == {"units_parsed": 2, "units_reused": 2}

    def test_adding_a_function_unit_reresolves_its_callers(self):
        """Call resolution consults the program's ``function`` names, so
        a unit's summary is keyed by its text *and* the names it
        consults: the same main resolves ``f(2)`` as an element of its
        array ``f`` alone and as a call once a ``function f`` exists."""
        main = "program p\nreal f(8), x\nx = f(2)\nend\n"
        func = "real function f(i)\ninteger i\nf = i * 2\nend\n"
        alone, with_f = parse(main), parse(main + func)
        assert isinstance(alone.main.body[0].expr, A.ArrayRef)
        assert isinstance(with_f.main.body[0].expr, A.CallExpr)
        assert SUMMARY_COUNTS == {"summaries_built": 3,
                                  "summaries_reused": 0}
        for src in (main, main + func):
            assert repr(parse(src)) == repr(plain_parse(src))
        assert PARSE_COUNTS == {"units_parsed": 2, "units_reused": 4}
        assert SUMMARY_COUNTS == {"summaries_built": 3,
                                  "summaries_reused": 3}
        # a unit without an array named f consults no name: adding the
        # function leaves its summary (and the function's) as they were
        sub = "subroutine s(y)\nreal y(8)\ny(1) = f(2)\nend\n"
        parse(sub)
        parse(sub + func)
        assert SUMMARY_COUNTS == {"summaries_built": 4,
                                  "summaries_reused": 5}

    def test_compilation_never_reaches_the_memoised_trees(self):
        src = SOURCES["stencil1d_source"]
        pristine = repr(plain_parse(src))
        cp = compile_program(src, Options(nprocs=4))
        assert repr(cp.program) != pristine       # rewritten in place
        assert repr(parse(src)) == pristine

    def test_two_parses_share_no_statement(self):
        def stmt_ids(prog):
            return {id(s) for u in prog.units
                    for s in A.walk_stmts(u.body)}

        src = SOURCES["pipeline"]
        a, b = parse(src), parse(src)
        assert stmt_ids(a) and not stmt_ids(a) & stmt_ids(b)
        assert not {id(u) for u in a.units} & {id(u) for u in b.units}

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parser_mod, "_UNIT_MEMO_CAP", 8)
        for j in range(40):
            parse(f"subroutine f{j}\nx = {j}\nend\n")
            assert len(parser_mod._unit_memo) <= 8
        # least recently used goes first: the newest 8 are hits
        for j in range(32, 40):
            parse(f"subroutine f{j}\nx = {j}\nend\n")
        assert PARSE_COUNTS == {"units_parsed": 40, "units_reused": 8}

    def test_two_threads_parsing_interleaved_edits(self, monkeypatch):
        monkeypatch.setattr(parser_mod, "_UNIT_MEMO_CAP", 64)
        edits = [pipeline_source(3, [f"{j}.5", "2.5", f"{j % 7}.25"])
                 for j in range(200)]
        want = [repr(plain_parse(s)) for s in edits]
        got = {0: [], 1: []}
        errors = []

        def work(tid):
            try:
                for s in edits[tid::2] + edits[1 - tid::2]:
                    got[tid].append((s, repr(parse(s))))
                    assert len(parser_mod._unit_memo) <= 64
            except Exception as e:  # surfaced by the assert below
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not errors and not any(t.is_alive() for t in threads)
        by_src = dict(zip(edits, want))
        for tid in (0, 1):
            assert len(got[tid]) == 200
            assert all(r == by_src[s] for s, r in got[tid])
        assert len(parser_mod._unit_memo) <= 64
        assert sum(PARSE_COUNTS.values()) == 2 * 200 * 4
