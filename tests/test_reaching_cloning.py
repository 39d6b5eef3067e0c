"""Tests for reaching decompositions (§5.2, Fig. 6-7) and procedure
cloning (Fig. 8)."""

import pytest

from repro.apps import FIG4
from repro.callgraph.acg import ACG
from repro.core import Mode, compile_program
from repro.core import cloning as cloning_mod
from repro.core import driver as driver_mod
from repro.core import reaching as reaching_mod
from repro.core.cloning import clone_program
from repro.core.driver import front_end
from repro.core.options import Options
from repro.core.reaching import ReachingError, analyze_procedure, compute_reaching
from repro.dist import TOP, Distribution
from repro.lang import PARSE_COUNTS, SUMMARY_COUNTS, parse
from repro.lang import ast as A
from repro.lang.ast import DistSpec

from .conftest import clonefan_source, pipeline_source
from .test_recompilation import PURE_APPS


def opts(P=4):
    return Options(nprocs=P)


def dists_str(pr, array):
    return sorted(str(d) for d in pr.reaching_dists(array))


class TestLocalReaching:
    def test_distribute_generates_fact(self):
        src = "program p\nreal x(100)\ndistribute x(block)\nx(1) = 0\nend\n"
        prog = parse(src)
        pr = analyze_procedure(prog.main, opts())
        assign = prog.main.body[1]
        dists = pr.dists_of("x", assign)
        assert len(dists) == 1
        d = next(iter(dists))
        assert isinstance(d, Distribution)
        assert str(d) == "(block)"

    def test_redistribute_kills_previous(self):
        src = (
            "program p\nreal x(100)\ndistribute x(block)\nx(1) = 0\n"
            "distribute x(cyclic)\nx(2) = 0\nend\n"
        )
        prog = parse(src)
        pr = analyze_procedure(prog.main, opts())
        first, second = prog.main.body[1], prog.main.body[3]
        assert dists_str_of(pr, "x", first) == ["(block)"]
        assert dists_str_of(pr, "x", second) == ["(cyclic)"]

    def test_branch_join_unions(self):
        src = (
            "program p\nreal x(100)\ninteger c\nc = 1\n"
            "if (c > 0) then\ndistribute x(block)\nelse\n"
            "distribute x(cyclic)\nendif\nx(1) = 0\nend\n"
        )
        prog = parse(src)
        pr = analyze_procedure(prog.main, opts())
        use = prog.main.body[-1]
        assert dists_str_of(pr, "x", use) == ["(block)", "(cyclic)"]

    def test_formal_array_starts_top(self):
        src = "subroutine f(x)\nreal x(100)\nx(1) = 0\nend\n"
        prog = parse(src)
        pr = analyze_procedure(prog.units[0], opts())
        use = prog.units[0].body[0]
        assert pr.dists_of("x", use) == {TOP}

    def test_loop_body_sees_distribution(self):
        src = (
            "program p\nreal x(100)\ndistribute x(block)\n"
            "do i = 1, 10\nx(i) = 0\nenddo\nend\n"
        )
        prog = parse(src)
        pr = analyze_procedure(prog.main, opts())
        inner = prog.main.body[1].body[0]
        assert dists_str_of(pr, "x", inner) == ["(block)"]


def dists_str_of(pr, array, stmt):
    return sorted(str(d) for d in pr.dists_of(array, stmt))


class TestInterprocedural:
    def test_fig7_reaching_sets(self):
        """Reaching(F1) = row ∪ col decompositions for Z (Fig. 7)."""
        prog = parse(FIG4)
        acg = ACG(prog)
        result = compute_reaching(acg, opts())
        f1 = result.per_proc["f1"]
        assert dists_str(f1, "z") == ["(:, block)", "(block, :)"]
        f2 = result.per_proc["f2"]
        assert dists_str(f2, "z") == ["(:, block)", "(block, :)"]

    def test_callee_changes_undone_in_caller(self):
        """Fortran D scoping: F1's cyclic redistribution of X does not
        reach P1's references (§5.2)."""
        src = (
            "program p\nreal x(100)\ndistribute x(block)\n"
            "call f1(x)\nx(1) = 0\nend\n"
            "subroutine f1(x)\nreal x(100)\ndistribute x(cyclic)\n"
            "x(2) = 0\nend\n"
        )
        prog = parse(src)
        result = compute_reaching(ACG(prog), opts())
        p = result.per_proc["p"]
        use = prog.main.body[-1]
        assert dists_str_of(p, "x", use) == ["(block)"]
        f1 = result.per_proc["f1"]
        use_f1 = prog.unit("f1").body[-1]
        assert dists_str_of(f1, "x", use_f1) == ["(cyclic)"]

    def test_top_resolved_through_chain(self):
        src = (
            "program p\nreal x(100)\ndistribute x(cyclic)\ncall f1(x)\nend\n"
            "subroutine f1(a)\nreal a(100)\ncall f2(a)\nend\n"
            "subroutine f2(b)\nreal b(100)\nb(1) = 0\nend\n"
        )
        result = compute_reaching(ACG(parse(src)), opts())
        assert dists_str(result.per_proc["f2"], "b") == ["(cyclic)"]

    def test_symbolic_bounds_resolved_by_constants(self):
        """Interprocedural constant propagation lets a(n, n) resolve."""
        src = (
            "program p\nreal x(64, 64)\ndistribute x(block, :)\n"
            "call f(x, 64)\nend\n"
            "subroutine f(a, n)\nreal a(n, n)\ninteger n\n"
            "a(1, 1) = 0\nend\n"
        )
        result = compute_reaching(ACG(parse(src)), opts())
        assert dists_str(result.per_proc["f"], "a") == ["(block, :)"]

    def test_symbolic_distribute_without_constants_raises(self):
        src = (
            "subroutine f(a, n)\nreal a(n, n)\ninteger n\n"
            "distribute a(block, :)\na(1, 1) = 0\nend\n"
        )
        prog = parse(src)
        with pytest.raises(ReachingError, match="symbolic"):
            analyze_procedure(prog.units[0], opts())


class TestCloning:
    def test_fig8_clones_f1_f2(self):
        out = clone_program(parse(FIG4), opts())
        names = out.program.names()
        assert "f1$1" in names and "f2$1" in names
        assert out.clones == {"f1": ["f1$1"], "f2": ["f2$1"]}

    def test_clones_are_found_by_name(self):
        prog = parse(FIG4)
        assert prog.unit("f1") is prog.units[1]  # the name index is built
        out = clone_program(prog, opts())
        for name in ("f1$1", "f2$1", "F1$1"):
            clone = out.program.unit(name)
            assert clone.name == name.lower() and clone in out.program.units
        with pytest.raises(KeyError):
            out.program.unit("f3")

    def test_clone_reaching_unique(self):
        out = clone_program(parse(FIG4), opts())
        for name in ("f1", "f2", "f1$1", "f2$1"):
            pr = out.reaching.per_proc[name]
            assert len(pr.reaching_dists("z")) == 1, name

    def test_call_sites_redirected(self):
        out = clone_program(parse(FIG4), opts())
        acg = out.acg
        callees = {c.callee for c in acg.calls_from("p1")}
        assert callees == {"f1", "f1$1"}

    def test_same_decomposition_shares_clone(self):
        src = (
            "program p\nreal x(100), y(100)\n"
            "align y(i) with x(i)\ndistribute x(block)\n"
            "call f(x)\ncall f(y)\nend\n"
            "subroutine f(a)\nreal a(100)\na(1) = 0\nend\n"
        )
        out = clone_program(parse(src), opts())
        assert out.clones == {}
        assert out.program.names() == ["p", "f"]

    def test_cloning_disabled_by_option(self):
        o = opts()
        o.enable_cloning = False
        out = clone_program(parse(FIG4), o)
        assert out.clones == {}

    def test_growth_cap(self):
        o = opts()
        o.clone_growth_limit = 1.0  # any growth exceeds the cap
        out = clone_program(parse(FIG4), o)
        assert out.growth_capped
        assert out.program.names() == ["p1", "f1", "f2"]

    def test_filter_avoids_cloning_unreferenced_arrays(self):
        """Filter/Appear (§5.2): differing decompositions of an array the
        callee never touches do not force a clone."""
        src = (
            "program p\nreal x(100), y(100, 100)\n"
            "distribute x(block)\ndistribute y(:, block)\n"
            "call f(x, y)\n"
            "distribute x(cyclic)\n"
            "call f(x, y)\nend\n"
            "subroutine f(a, b)\nreal a(100), b(100, 100)\n"
            "b(1, 1) = 2\nend\n"   # uses only b; a's decomposition differs
        )
        out = clone_program(parse(src), opts())
        assert out.clones == {}


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``compute_reaching`` runs and of data-flow solves
    (``analyze_procedure`` runs) from here on."""
    n = {"compute_reaching": 0, "solves": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            n[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    reach = counted("compute_reaching", reaching_mod.compute_reaching)
    monkeypatch.setattr(reaching_mod, "analyze_procedure",
                        counted("solves", reaching_mod.analyze_procedure))
    for mod in (reaching_mod, cloning_mod, driver_mod):
        monkeypatch.setattr(mod, "compute_reaching", reach)
    return n


@pytest.fixture
def effects_runs(monkeypatch):
    """How often cloning runs ``compute_side_effects`` from here on."""
    n = [0]
    real = cloning_mod.compute_side_effects

    def counted(acg):
        n[0] += 1
        return real(acg)

    monkeypatch.setattr(cloning_mod, "compute_side_effects", counted)
    return n


#: ``report.cloned`` per app, identical to what cloning reported when it
#: computed side effects on every analysis (apps not listed clone nothing)
CLONED = {"fig4": {"f1": ["f1$1"], "f2": ["f2$1"]}}


@pytest.mark.usefixtures("cold_unit_memo")
class TestTheUnitIsTheGrain:
    """Exact counts, not timings: a unit is lexed and parsed once per
    text, its local summary built once per text, and its data flow
    solved once per text and entry facts."""

    K = 8

    def parsed_reused(self, src):
        before = dict(PARSE_COUNTS)
        compile_program(src, opts(4))
        return (PARSE_COUNTS["units_parsed"] - before["units_parsed"],
                PARSE_COUNTS["units_reused"] - before["units_reused"])

    def test_units_parsed_per_compile(self):
        consts = [f"{100 + j}.25" for j in range(self.K)]
        base = pipeline_source(self.K, consts)
        assert self.parsed_reused(base) == (9, 0)       # cold
        consts[3] = "900.75"
        edit = pipeline_source(self.K, consts)
        assert self.parsed_reused(edit) == (1, 8)       # one stage edited
        assert self.parsed_reused(edit) == (0, 9)       # exact repeat
        for extra in ("! a full-line comment", "* another", ""):
            noted = pipeline_source(self.K, consts, body_extra=extra)
            assert noted != edit
            assert self.parsed_reused(noted) == (0, 9)

    def built_reused_solved(self, src, calls):
        before = dict(SUMMARY_COUNTS, solves=calls["solves"])
        compile_program(src, opts(4))
        after = dict(SUMMARY_COUNTS, solves=calls["solves"])
        return tuple(after[k] - before[k] for k in
                     ("summaries_built", "summaries_reused", "solves"))

    def test_summaries_built_per_compile(self, calls):
        consts = [f"{100 + j}.25" for j in range(self.K)]
        base = pipeline_source(self.K, consts)
        assert self.built_reused_solved(base, calls) == (9, 0, 9)  # cold
        consts[3] = "900.75"
        edit = pipeline_source(self.K, consts)
        # one stage edited: its summary is new and so is its solve; the
        # other stages keep their entry facts, so they reuse theirs
        assert self.built_reused_solved(edit, calls) == (1, 8, 1)
        assert self.built_reused_solved(edit, calls) == (0, 9, 0)  # repeat
        for extra in ("! a full-line comment", "* another", ""):
            noted = pipeline_source(self.K, consts, body_extra=extra)
            assert self.built_reused_solved(noted, calls) == (0, 9, 0)

    def test_redistribution_resolves_exactly_the_changed_entries(self, calls):
        src = pipeline_source(self.K)
        cyclic = src.replace("distribute x(block)", "distribute x(cyclic)")
        front_end(src, opts())
        front_end(cyclic, opts())         # every stage is passed x
        assert calls["solves"] == 2 * (self.K + 1)
        src = (
            "program p\nreal x(64), z(64)\ndistribute x(block)\n"
            "distribute z(block)\ncall a(x)\ncall b(z)\nend\n"
            "subroutine a(u)\nreal u(64)\nu(1) = 1\nend\n"
            "subroutine b(v)\nreal v(64)\nv(1) = 2\nend\n"
        )
        calls["solves"] = 0
        front_end(src, opts())
        front_end(src.replace("x(block)", "x(cyclic)"), opts())
        assert calls["solves"] == 3 + 2   # p (edited) and a; b reuses

    def test_side_effects_only_when_cloning_could_use_them(self,
                                                          effects_runs):
        front_end(pipeline_source(self.K), opts())
        assert effects_runs[0] == 0       # no callee with two groups
        front_end(clonefan_source(2), opts())
        assert effects_runs[0] >= 1

    @pytest.mark.parametrize("mode", [Mode.INTRA, Mode.INTER])
    @pytest.mark.parametrize("name,src", PURE_APPS,
                             ids=[n for n, _ in PURE_APPS])
    def test_lazy_side_effects_clone_the_same(self, name, src, mode):
        _, _, _, report = front_end(src, Options(nprocs=4, mode=mode))
        assert report.cloned == CLONED.get(name, {})

    @pytest.mark.parametrize("mode", list(Mode))
    def test_one_solve_per_unit_one_analysis_per_front_end(self, mode, calls):
        src = pipeline_source(self.K)
        front_end(src, Options(nprocs=4, mode=mode))
        assert calls == {"compute_reaching": 1, "solves": self.K + 1}

    @pytest.mark.parametrize("mode", [Mode.INTRA, Mode.INTER])
    def test_one_analysis_per_clone_step(self, mode, calls):
        fan = 2
        src = clonefan_source(fan)
        _, _, _, report = front_end(src, Options(nprocs=4, mode=mode))
        steps = len(report.cloned)
        assert steps == 2 * fan                 # g<j>, then h<j>
        # after the first analysis, step s re-solves main (its calls were
        # redirected), the s clones and the one procedure whose entry
        # facts that clone split; every other unit reuses its solve
        solves = 1 + 2 * fan + sum(s + 2 for s in range(1, steps + 1))
        assert solves == 23   # was 35: every unit solved per analysis
        assert calls == {"compute_reaching": 1 + steps, "solves": solves}

    def test_cloning_disabled_analyses_once(self, calls):
        prog = parse(clonefan_source(2))
        o = opts()
        o.enable_cloning = False
        out = clone_program(prog, o)
        assert calls == {"compute_reaching": 1, "solves": len(prog.units)}
        assert out.clones == {} and out.reaching.per_proc.keys() \
            == set(prog.names())

    def test_faulty_procedure_reports_the_same_error(self):
        # two calls pass different n, so it is no interprocedural constant
        src = (
            "program p\nreal x(8, 8)\ncall f(x, 8)\ncall f(x, 4)\nend\n"
            "subroutine f(a, n)\nreal a(n, n)\ninteger n\n"
            "distribute a(block, :)\na(1, 1) = 0\nend\n"
            "subroutine g(b)\nreal b(8)\nb(1) = 1\nend\n"
        )
        with pytest.raises(ReachingError) as ei:
            compute_reaching(ACG(parse(src)), opts())
        assert str(ei.value) == \
            "f: DISTRIBUTE of a with symbolic bounds is not supported"
