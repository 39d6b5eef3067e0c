"""Tests for the fdc command-line driver."""

import numpy as np
import pytest

from repro.cli import main

FIG1 = """
program p1
real x(100)
distribute x(block)
do i = 1, 95
  x(i) = f(x(i + 5))
enddo
call f1(x)
end

subroutine f1(x)
real x(100)
do i = 1, 95
  x(i) = f(x(i + 5))
enddo
end
"""


@pytest.fixture
def src_file(tmp_path):
    p = tmp_path / "fig1.fd"
    p.write_text(FIG1)
    return str(p)


class TestCompileOnly:
    def test_prints_node_program(self, src_file, capsys):
        assert main([src_file]) == 0
        out = capsys.readouterr().out
        assert "my$p = myproc()" in out
        assert "send x(" in out

    def test_report(self, src_file, capsys):
        assert main([src_file, "--report", "--no-text"]) == 0
        out = capsys.readouterr().out
        assert "! dist p1.x: (block)" in out
        assert "! comm" in out

    def test_mode_rtr(self, src_file, capsys):
        assert main([src_file, "--mode", "rtr"]) == 0
        out = capsys.readouterr().out
        assert "owner(x(" in out

    def test_nprocs(self, src_file, capsys):
        assert main([src_file, "--nprocs", "8", "--report",
                     "--no-text"]) == 0
        assert "nprocs=8" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/path.fd"]) == 2

    def test_compile_error_reported(self, tmp_path, capsys):
        p = tmp_path / "bad.fd"
        p.write_text("program p\ncall missing(x)\nend\n")
        assert main([str(p)]) == 1
        assert "compilation failed" in capsys.readouterr().err


class TestRun:
    def test_run_and_verify(self, src_file, capsys):
        assert main([src_file, "--run", "--verify", "--no-text"]) == 0
        out = capsys.readouterr().out
        assert "! verify x: OK" in out
        assert "msgs=6" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_accepts_the_same_nans(self, tmp_path, capsys):
        """dgefa under the default initializer overflows to NaN; the
        SPMD result holds the reference's NaNs in the same places."""
        from repro.apps.dgefa import dgefa_source

        p = tmp_path / "dgefa.fd"
        p.write_text(dgefa_source(24))
        assert main([str(p), "--run", "--verify", "--no-text"]) == 0
        assert "! verify a: OK" in capsys.readouterr().out

    def test_gather_prints_array(self, src_file, capsys):
        assert main([src_file, "--run", "--gather", "x",
                     "--no-text"]) == 0
        assert "x = [" in capsys.readouterr().out

    def test_gather_unknown_array(self, src_file, capsys):
        assert main([src_file, "--run", "--gather", "zz",
                     "--no-text"]) == 2

    def test_cost_models(self, src_file, capsys):
        for cost in ("ipsc860", "fast", "free"):
            assert main([src_file, "--run", "--cost", cost,
                         "--no-text"]) == 0


OOB = "program p\nreal x(10)\nx(11) = 1\nend\n"


class TestSequential:
    def test_sequential_summary(self, src_file, capsys):
        assert main([src_file, "--sequential"]) == 0
        out = capsys.readouterr().out
        assert "x: shape=(100,)" in out

    def test_failing_reference_is_one_line(self, tmp_path, capsys):
        p = tmp_path / "oob.fd"
        p.write_text(OOB)
        assert main([str(p), "--sequential"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fdc: sequential reference failed: ")
        assert "x: index 11" in line

    def test_verify_reports_a_failing_reference(self, src_file, capsys,
                                                monkeypatch):
        """The run succeeds; the reference it is checked against does
        not."""
        import repro.cli as cli

        def fail(program):
            raise IndexError("x: index 11 outside [1:10] in dim 1")

        monkeypatch.setattr(cli, "run_sequential", fail)
        assert main([src_file, "--run", "--verify", "--no-text"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("fdc: sequential reference failed: ")
        assert "x: index 11" in line


class TestLocalize:
    def test_localized_view(self, src_file, capsys):
        assert main([src_file, "--localize", "f1", "--no-text"]) == 0
        out = capsys.readouterr().out
        assert "real x(30)" in out  # 25-block + 5 overlap (Figure 2)

    def test_unknown_procedure(self, src_file):
        assert main([src_file, "--localize", "nope", "--no-text"]) == 2


class TestExplain:
    """``explain()`` and ``fdc --report`` are one renderer of the report."""

    def test_explain_narrative(self):
        from repro.apps import FIG4
        from repro.core import Options, compile_program

        lines = compile_program(FIG4, Options(nprocs=4)).explain() \
            .splitlines()
        assert lines[0] == "! mode=inter nprocs=4"
        assert "! dist p1.x: (block, :)" in lines
        assert "! cloned f1 -> f1$1" in lines
        assert any(ln.startswith("! comm p1: level 0 shift(5) x[")
                   for ln in lines)
        assert "! overlap p1.x: [(0, 5), (0, 0)]" in lines

    def test_report_is_explain(self, tmp_path, capsys):
        from repro.apps import FIG4
        from repro.core import Options, compile_program

        p = tmp_path / "fig4.fd"
        p.write_text(FIG4)
        assert main([str(p), "--report", "--no-text"]) == 0
        assert capsys.readouterr().out == \
            compile_program(FIG4, Options(nprocs=4)).explain() + "\n"

    def test_notes_are_shown(self, tmp_path, capsys, monkeypatch):
        """The front end's growth-cap note reaches both views."""
        import repro.cli as cli
        from repro.apps import FIG4
        from repro.core import Options, compile_program

        note = "! note cloning disabled: growth threshold exceeded"
        opts = Options(nprocs=4, clone_growth_limit=1.0)
        assert note in compile_program(FIG4, opts).explain().splitlines()
        # fdc has no growth-limit flag: give its options the same limit
        monkeypatch.setattr(cli, "Options", lambda **kw: Options(
            clone_growth_limit=1.0, **kw))
        p = tmp_path / "fig4.fd"
        p.write_text(FIG4)
        assert main([str(p), "--report", "--no-text"]) == 0
        assert note in capsys.readouterr().out.splitlines()
