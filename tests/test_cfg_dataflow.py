"""Control flow of the local reaching-decompositions solve (§5.2):
sequence, branches, RETURN and loop back edges, the entry seed and the
statement lookup, each checked on :func:`analyze_procedure`'s facts."""

from repro.core.options import Options
from repro.core.reaching import analyze_procedure, entry_facts
from repro.dist import TOP, Distribution
from repro.lang import parse
from repro.lang.ast import DistSpec

OPTS = Options(nprocs=4)
HEAD = "program p\nreal x(100), y(100)\ninteger c\nc = 1\n"


def solve(src):
    main = parse(src).main
    return main.body, analyze_procedure(main, OPTS)


def x_at(pr, stmt):
    return sorted(str(d) for d in pr.dists_of("x", stmt))


class TestCFGConstruction:
    """Sequence, branches, RETURN, a back edge and lookup by identity."""

    def test_straight_line(self):
        src = ("subroutine f(x)\nreal x(100), y(100)\nx(1) = 0\n"
               "y(1) = x(1)\nx(2) = y(1)\nend\n")
        proc = parse(src).units[0]
        pr = analyze_procedure(proc, OPTS)
        entry = entry_facts(proc, OPTS)
        assert ("x", TOP) in entry and len(entry) == 2
        assert pr.entry == entry
        assert pr.at_stmt == (entry,) * 3

    def test_if_diamond(self):
        body, pr = solve(
            HEAD + "distribute x(block)\nif (c > 0) then\n"
            "distribute x(cyclic)\nx(1) = 0\nelse\nx(2) = 0\nendif\n"
            "x(3) = 0\nend\n")
        branch = body[2]
        assert x_at(pr, branch) == ["(block)"]
        assert x_at(pr, branch.then_body[1]) == ["(cyclic)"]
        assert x_at(pr, branch.else_body[0]) == ["(block)"]
        assert x_at(pr, body[3]) == ["(block)", "(cyclic)"]

    def test_if_without_else_falls_through(self):
        body, pr = solve(
            HEAD + "distribute x(block)\nif (c > 0) then\n"
            "distribute x(cyclic)\nendif\nx(3) = 0\nend\n")
        assert body[2].else_body == []
        assert x_at(pr, body[2]) == ["(block)"]
        assert x_at(pr, body[3]) == ["(block)", "(cyclic)"]

    def test_loop_back_edge(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndo i = 1, 10\nx(i) = 0\n"
            "distribute x(cyclic)\nenddo\nend\n")
        loop = body[2]
        assert x_at(pr, loop) == ["(block)", "(cyclic)"]
        assert x_at(pr, loop.body[0]) == ["(block)", "(cyclic)"]
        assert x_at(pr, loop.body[1]) == ["(block)", "(cyclic)"]

    def test_return_reaches_exit(self):
        body, pr = solve(
            HEAD + "distribute x(block)\nif (c > 0) then\n"
            "distribute x(cyclic)\nreturn\nx(1) = 0\nendif\nx(2) = 0\n"
            "return\nx(3) = 0\nend\n")
        then = body[2].then_body
        assert x_at(pr, then[1]) == ["(cyclic)"]
        # statements after RETURN see nothing, not even the entry facts
        assert pr.facts_at(then[2]) == frozenset()
        assert pr.facts_at(body[5]) == frozenset()
        # the then branch does not reach the join: only the skip edge does
        assert x_at(pr, body[3]) == ["(block)"]
        assert x_at(pr, body[4]) == ["(block)"]

    def test_node_of_identity(self):
        src = (HEAD + "distribute x(block)\nx(1) = 0\n"
               "distribute x(cyclic)\nx(1) = 0\nend\n")
        body, pr = solve(src)
        first, second = body[2], body[4]
        assert first == second and first is not second
        assert x_at(pr, first) == ["(block)"]
        assert x_at(pr, second) == ["(cyclic)"]
        foreign = parse(src).main.body[2]
        assert foreign == first
        assert pr.facts_at(foreign) == frozenset()


class TestDataflowSolver:
    """Kills, loops around branches, zero trips and the entry seed."""

    def test_straightline_kill(self):
        body, pr = solve(
            HEAD + "distribute y(block)\ndistribute x(block)\n"
            "distribute x(cyclic)\nx(1) = y(1)\nend\n")
        use = body[4]
        assert x_at(pr, use) == ["(cyclic)"]
        assert sorted(str(d) for d in pr.dists_of("y", use)) == ["(block)"]

    def test_branch_union(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndo i = 1, 10\nx(i) = 0\n"
            "if (c > 0) then\ndistribute x(cyclic)\nendif\nx(i) = 1\n"
            "enddo\nx(1) = 2\nend\n")
        loop = body[2]
        assert x_at(pr, loop.body[0]) == ["(block)", "(cyclic)"]
        assert x_at(pr, loop.body[1].then_body[0]) == ["(block)",
                                                        "(cyclic)"]
        assert x_at(pr, loop.body[2]) == ["(block)", "(cyclic)"]
        assert x_at(pr, body[3]) == ["(block)", "(cyclic)"]

    def test_loop_defs_reach_own_body(self):
        body, pr = solve(
            HEAD + "distribute x(block)\ndo while (c > 0)\n"
            "distribute x(cyclic)\nx(1) = 0\nenddo\nx(2) = 0\nend\n")
        loop = body[2]
        assert x_at(pr, loop.body[1]) == ["(cyclic)"]
        # zero trips: the pre-loop fact gets past the loop
        assert x_at(pr, body[3]) == ["(block)", "(cyclic)"]

    def test_boundary_seed(self):
        proc = parse("subroutine f(x)\nreal x(100)\nx(1) = 0\n"
                     "x(2) = 0\nend\n").units[0]
        seed = frozenset(
            {("x", Distribution.from_specs([DistSpec("cyclic")],
                                           [(1, 100)], 4))})
        pr = analyze_procedure(proc, OPTS, entry=seed)
        assert pr.entry == seed
        assert pr.at_stmt == (seed, seed)
        assert TOP not in pr.dists_of("x", proc.body[0])
