"""Error-handling tests: malformed input, out-of-subset programs, and
runtime failures must produce actionable diagnostics, never silence."""

import numpy as np
import pytest

from repro.callgraph.acg import CallGraphError
from repro.core import Mode, Options, compile_program
from repro.core.reaching import ReachingError
from repro.interp import InterpError, run_sequential, run_spmd
from repro.lang import ParseError, parse
from repro.machine import FREE, SimulationError


class TestParserDiagnostics:
    def test_position_in_message(self):
        with pytest.raises(ParseError, match="2:"):
            parse("program p\nx = = 1\nend\n")

    def test_unbalanced_do(self):
        with pytest.raises(ParseError):
            parse("program p\ndo i = 1, 3\nx = 1\nend\n")

    def test_missing_then_block_end(self):
        with pytest.raises(ParseError):
            parse("program p\nif (x > 0) then\na = 1\nend\n")

    def test_bad_distribute_spec(self):
        with pytest.raises(ParseError, match="unknown distribution"):
            parse("program p\ndistribute x(diagonal)\nend\n")

    def test_empty_source(self):
        with pytest.raises(ParseError, match="empty"):
            parse("")


class TestCompileDiagnostics:
    def test_recursion_rejected(self):
        src = (
            "program p\ncall a1(1)\nend\n"
            "subroutine a1(k)\ninteger k\ncall a1(k)\nend\n"
        )
        with pytest.raises(CallGraphError, match="recursive"):
            compile_program(src, Options(nprocs=4))

    def test_unknown_procedure(self):
        with pytest.raises(CallGraphError, match="undefined"):
            compile_program("program p\ncall ghost(1)\nend\n",
                            Options(nprocs=4))

    def test_decomposition_extent_not_constant(self):
        src = (
            "program p\nreal x(10)\ninteger n\nn = 10\n"
            "decomposition d(n)\nalign x(i) with d(i)\n"
            "distribute d(block)\nx(1) = 0\nend\n"
        )
        with pytest.raises((ReachingError, ValueError)):
            compile_program(src, Options(nprocs=4))

    def test_multi_dim_grid_falls_back_not_crashes(self):
        src = (
            "program p\nreal x(8, 8)\ndistribute x(block, block)\n"
            "do j = 1, 8\ndo i = 1, 8\nx(i, j) = i + j\nenddo\nenddo\nend\n"
        )
        cp = compile_program(src, Options(nprocs=4))
        assert any("more than one distributed dimension" in r
                   for r in cp.report.rtr_fallbacks)
        seq = run_sequential(parse(src)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)

    def test_unsupported_lhs_subscript_falls_back(self):
        src = (
            "program p\nreal x(16)\ndistribute x(block)\n"
            "do i = 1, 8\nx(2 * i) = i * 1.0\nenddo\nend\n"
        )
        cp = compile_program(src, Options(nprocs=4))
        assert any("unsupported lhs subscript" in r
                   for r in cp.report.rtr_fallbacks)
        seq = run_sequential(parse(src)).arrays["x"].data
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq)


class TestRuntimeDiagnostics:
    def test_out_of_bounds_names_array_and_dim(self):
        src = "program p\nreal x(10)\nx(11) = 1\nend\n"
        with pytest.raises(IndexError, match="x: index 11"):
            run_sequential(parse(src))

    def test_undefined_scalar_names_variable(self):
        src = "program p\na = ghost + 1\nend\n"
        with pytest.raises(InterpError, match="ghost"):
            run_sequential(parse(src))

    def test_node_error_reports_rank(self):
        src = (
            "program p\ninteger k\nk = myproc()\n"
            "if (k == 1) then\nx = 1 / (k - k)\nendif\nend\n"
        )
        prog = parse(src)
        with pytest.raises(SimulationError, match="node 1"):
            run_spmd(prog, 2, FREE)

    def test_zero_do_step(self):
        src = "program p\nn = 0\ndo i = 1, 3, n\nenddo\nend\n"
        with pytest.raises(InterpError, match="zero DO step"):
            run_sequential(parse(src))

    def test_parameter_must_be_constant(self):
        src = "program p\nparameter (n = m + 1)\nend\n"
        with pytest.raises(InterpError, match="not constant"):
            run_sequential(parse(src))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 12: generated element access checks only the upper "
    "bound, so x(0) wraps to x(10)"))
def test_generated_reference_checks_the_lower_bound(monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN", "1")
    src = "program p\nreal x(10)\ns = x(0)\nx(0) = 5\nend\n"
    with pytest.raises(IndexError, match="x: index 0 outside"):
        run_sequential(parse(src))


class TestReportTransparency:
    def test_rtr_reasons_are_sentences(self):
        src = (
            "program p\nreal x(16)\ndistribute x(block_cyclic(2))\n"
            "do i = 1, 15\nx(i) = f(x(i + 1))\nenddo\nend\n"
        )
        cp = compile_program(src, Options(nprocs=4))
        assert cp.report.rtr_fallbacks
        for reason in cp.report.rtr_fallbacks:
            assert len(reason) > 10  # readable, not a code

    def test_comm_placements_list_levels(self):
        from repro.apps import FIG4

        cp = compile_program(FIG4, Options(nprocs=4))
        assert all("level" in line for line in cp.report.comm_placements)
