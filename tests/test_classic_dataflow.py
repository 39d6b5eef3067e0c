"""Reaching decompositions as reaching definitions (§5.2): a DISTRIBUTE
defines every array aligned with its target and kills what reached
them; STOP ends a path; loops carry definitions around to their own
bodies, nested loops included.  Checked on :func:`analyze_procedure`."""

from repro.core.options import Options
from repro.core.reaching import analyze_procedure
from repro.lang import parse

OPTS = Options(nprocs=4)
HEAD = "program p\nreal x(100), y(100)\ninteger c\nc = 1\n"


def solve(src):
    main = parse(src).main
    return main.body, analyze_procedure(main, OPTS)


def at(pr, array, stmt):
    return sorted(str(d) for d in pr.dists_of(array, stmt))


class TestReachingDefs:
    def test_straightline(self):
        body, pr = solve(
            "program p\nreal x(100), y(100), z(100), w(100)\n"
            "decomposition d(100)\nalign x(i) with d(i)\n"
            "align y(i) with x(i)\nalign z(i) with y(i)\n"
            "distribute d(cyclic)\nz(1) = w(1)\nend\n")
        use = body[-1]
        for array in ("x", "y", "z"):
            assert at(pr, array, use) == ["(cyclic)"]
        assert at(pr, "w", use) == ["(:)"]

    def test_redefinition_kills(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndo i = 1, 10\nx(i) = 0\n"
            "distribute x(cyclic)\nx(i) = 1\nenddo\nx(1) = 2\nend\n")
        loop = body[2]
        assert at(pr, "x", loop.body[0]) == ["(block)", "(cyclic)"]
        assert at(pr, "x", loop.body[2]) == ["(cyclic)"]
        assert at(pr, "x", body[3]) == ["(block)", "(cyclic)"]

    def test_branches_merge(self):
        body, pr = solve(
            HEAD + "distribute x(block)\nif (c > 0) then\n"
            "distribute x(cyclic)\nstop\nelse\n"
            "distribute x(block_cyclic(2))\nendif\nx(1) = 0\nend\n")
        assert at(pr, "x", body[2].then_body[1]) == ["(cyclic)"]
        assert at(pr, "x", body[3]) == ["(block_cyclic(2))"]

    def test_loop_header_def(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndo i = 1, 10\n"
            "distribute x(cyclic)\nx(i) = 0\nenddo\nx(1) = 0\nend\n")
        loop = body[2]
        assert at(pr, "x", loop) == ["(block)", "(cyclic)"]
        assert at(pr, "x", loop.body[1]) == ["(cyclic)"]
        # zero trips: the pre-loop fact gets past the loop
        assert at(pr, "x", body[3]) == ["(block)", "(cyclic)"]

    def test_loop_carried_definition(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndistribute y(block)\n"
            "do i = 1, 10\ndo j = 1, 10\nx(j) = y(j)\n"
            "distribute x(cyclic)\nenddo\ndistribute y(cyclic)\nenddo\n"
            "end\n")
        outer = body[3]
        inner = outer.body[0]
        use = inner.body[0]
        assert at(pr, "x", use) == ["(block)", "(cyclic)"]
        # y(cyclic) reaches the inner loop only round the outer back
        # edge: the outer fixpoint takes a second pass
        assert at(pr, "y", inner) == ["(block)", "(cyclic)"]
        assert at(pr, "y", use) == ["(block)", "(cyclic)"]
        assert at(pr, "y", outer.body[1]) == ["(block)", "(cyclic)"]
