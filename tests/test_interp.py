"""Tests for the Fortran/SPMD interpreter."""

import numpy as np
import pytest

from repro.apps import dgefa_source, make_dgefa_init, stencil1d_source
from repro.core import Options, compile_program
from repro.dist import Distribution
from repro.interp import FArray, InterpError, run_sequential, run_spmd
from repro.lang import ast as A
from repro.lang import parse
from repro.lang.ast import DistSpec
from repro.machine import FREE
from repro.runtime.node import Node
from repro.runtime.intrinsics import f_func


def run(src):
    return run_sequential(parse(src))


class TestFArray:
    def test_element_access(self):
        a = FArray("x", [(1, 10)])
        a.set([3], 7.5)
        assert a.get([3]) == 7.5

    def test_nonunit_lower_bound(self):
        a = FArray("x", [(0, 9), (5, 8)])
        a.set([0, 5], 1.0)
        assert a.data[0, 0] == 1.0

    def test_out_of_bounds_raises(self):
        a = FArray("x", [(1, 10)])
        with pytest.raises(IndexError, match="outside"):
            a.get([11])
        with pytest.raises(IndexError):
            a.set([0], 1.0)

    @staticmethod
    def write(a, subs, payload):
        """Write *payload* into section *subs* the way a receive does:
        through the section's view, or its element index."""
        slices = a._slices(subs)
        view = a.data[slices]
        Node.write_entry(a, view if isinstance(view, np.ndarray) else None,
                         slices, payload)

    def test_section_read_write(self):
        a = FArray("x", [(1, 10)])
        self.write(a, [(2, 5, 1)], np.array([1.0, 2.0, 3.0, 4.0]))
        got = a.data[a._slices([(2, 5, 1)])]
        assert got.tolist() == [1.0, 2.0, 3.0, 4.0]
        self.write(a, [7], 5.0)
        assert a.get([7]) == 5.0

    def test_strided_section(self):
        a = FArray("x", [(1, 10)])
        self.write(a, [(1, 9, 2)], np.array([9.0] * 5))
        assert a.data[::2].tolist() == [9.0] * 5
        assert a.data[1::2].tolist() == [0.0] * 5

    def test_2d_mixed_section(self):
        a = FArray("x", [(1, 4), (1, 4)])
        # a flat payload is reshaped to the section
        self.write(a, [(1, 4, 1), (2, 3, 1)], np.arange(8.0))
        assert a.data[:, 1:3].tolist() == [[0.0, 1.0], [2.0, 3.0],
                                           [4.0, 5.0], [6.0, 7.0]]
        self.write(a, [(1, 4, 1), 2], np.arange(4.0))
        assert a.data[:, 1].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_section_count_and_bytes(self):
        a = FArray("x", [(1, 10), (1, 10)])
        subs = [(2, 6, 2), 3]
        assert a.section_count(subs) == 3
        assert a.section_bytes(subs) == 24

    def test_integer_dtype(self):
        a = FArray("k", [(1, 5)], dtype="integer")
        a.set([1], 2.9)
        assert a.get([1]) == 2  # integral storage truncates


class TestSequentialBasics:
    def test_scalar_assign_and_arith(self):
        fr = run("program p\nx = 2.5 * 4\nend\n")
        assert fr.scalars["x"] == 10.0

    def test_implicit_integer_typing(self):
        fr = run("program p\ni = 7 / 2\nx = 7 / 2.0\nend\n")
        assert fr.scalars["i"] == 3
        assert fr.scalars["x"] == 3.5

    def test_do_loop_sum(self):
        fr = run("program p\ns = 0\ndo i = 1, 10\ns = s + i\nenddo\nend\n")
        assert fr.scalars["s"] == 55.0

    def test_do_loop_step_and_final_value(self):
        fr = run("program p\ndo i = 1, 10, 3\nenddo\nend\n")
        assert fr.scalars["i"] == 13  # Fortran leaves var past the bound

    def test_do_zero_trip(self):
        fr = run("program p\ns = 5\ndo i = 10, 1\ns = 0\nenddo\nend\n")
        assert fr.scalars["s"] == 5.0

    def test_if_else(self):
        fr = run(
            "program p\ni = 3\nif (i > 2) then\nx = 1\nelse\nx = 2\nendif\nend\n"
        )
        assert fr.scalars["x"] == 1.0

    def test_do_while(self):
        fr = run("program p\ni = 0\ndo while (i < 5)\ni = i + 1\nenddo\nend\n")
        assert fr.scalars["i"] == 5

    def test_array_roundtrip(self):
        fr = run(
            "program p\nreal x(10)\ndo i = 1, 10\nx(i) = i * 2\nenddo\n"
            "s = x(7)\nend\n"
        )
        assert fr.scalars["s"] == 14.0

    def test_intrinsics(self):
        fr = run("program p\na = min(3, 8)\nb = max(3, 8)\nc = mod(10, 3)\n"
                 "d = abs(-2.5)\ne = sqrt(16.0)\nend\n")
        s = fr.scalars
        assert (s["a"], s["b"], s["c"], s["d"], s["e"]) == (3, 8, 1, 2.5, 4.0)

    def test_f_intrinsic_matches_runtime(self):
        fr = run("program p\nx = f(10.0)\nend\n")
        assert fr.scalars["x"] == f_func(10.0)

    def test_parameter_constant(self):
        fr = run("program p\nparameter (n = 25)\ni = n * 4\nend\n")
        assert fr.scalars["i"] == 100

    def test_print_collected(self):
        prog = parse("program p\nprint *, 'v =', 42\nend\n")
        assert run_spmd(prog, 1).prints == ["[0] v = 42"]

    def test_undefined_scalar_read_raises(self):
        with pytest.raises(Exception, match="undefined scalar"):
            run("program p\nx = y + 1\nend\n")

    def test_stop_terminates(self):
        fr = run("program p\nx = 1\nstop\nx = 2\nend\n")
        assert fr.scalars["x"] == 1.0


class TestProceduresAndFunctions:
    def test_subroutine_array_by_reference(self):
        fr = run(
            "program p\nreal x(5)\ncall fill(x)\ns = x(3)\nend\n"
            "subroutine fill(a)\nreal a(5)\ndo i = 1, 5\na(i) = i\nenddo\nend\n"
        )
        assert fr.scalars["s"] == 3.0

    def test_scalar_copy_out(self):
        fr = run(
            "program p\nn = 1\ncall bump(n)\nend\n"
            "subroutine bump(m)\ninteger m\nm = m + 10\nend\n"
        )
        assert fr.scalars["n"] == 11

    def test_expression_actual_no_copy_out(self):
        fr = run(
            "program p\nn = 1\ncall bump(n + 0)\nend\n"
            "subroutine bump(m)\ninteger m\nm = m + 10\nend\n"
        )
        assert fr.scalars["n"] == 1

    def test_function_result(self):
        fr = run(
            "program p\nx = twice(21.0)\nend\n"
            "real function twice(v)\nreal v\ntwice = v * 2\nend\n"
        )
        assert fr.scalars["x"] == 42.0

    def test_integer_function(self):
        fr = run(
            "program p\nreal x(10)\ndo i = 1, 10\nx(i) = 11 - i\nenddo\n"
            "k = imax(x, 10)\nend\n"
            "integer function imax(dx, n)\nreal dx(n)\ninteger n\n"
            "imax = 1\ndo i = 2, n\nif (dx(i) > dx(imax)) imax = i\nenddo\nend\n"
        )
        assert fr.scalars["k"] == 1

    def test_symbolic_formal_array_bounds(self):
        fr = run(
            "program p\nreal x(6, 6)\nx(2, 3) = 5\ncall probe(x, 6)\nend\n"
            "subroutine probe(a, n)\nreal a(n, n)\ninteger n\ns = a(2, 3)\nend\n"
        )
        # no error: bounds a(n, n) resolved from the actual n

    def test_nested_calls(self):
        fr = run(
            "program p\nreal x(4)\ncall outer(x)\ns = x(1)\nend\n"
            "subroutine outer(a)\nreal a(4)\ncall inner(a)\na(1) = a(1) + 1\nend\n"
            "subroutine inner(b)\nreal b(4)\nb(1) = 40\nend\n"
        )
        assert fr.scalars["s"] == 41.0

    def test_return_statement(self):
        fr = run(
            "program p\nn = 0\ncall early(n)\nend\n"
            "subroutine early(m)\ninteger m\nm = 1\nreturn\nm = 2\nend\n"
        )
        assert fr.scalars["n"] == 1


class TestDirectivesAreNoOps:
    def test_sequential_ignores_placement(self):
        fr = run(
            "program p\nreal x(8)\ndistribute x(block)\n"
            "do i = 1, 8\nx(i) = i\nenddo\nend\n"
        )
        assert fr.arrays["x"].data.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]


class TestSPMDExecution:
    def make_shift_program(self):
        """Compiler-output-shaped program: block-distributed shift."""
        prog = parse(
            "program p1\nreal x(100)\ninteger my$p, lb$1, ub$1\n"
            "my$p = myproc()\n"
            "lb$1 = my$p * 25 + 1\n"
            "ub$1 = min((my$p + 1) * 25, 95)\n"
            "do i = lb$1, ub$1\nx(i) = f(x(i + 5))\nenddo\nend\n"
        )
        main = prog.main
        send = A.If(
            A.BinOp(">", A.var("my$p"), A.Num(0)),
            [A.Send("x", [A.Triplet(A.var("lb$1"),
                                    A.BinOp("+", A.var("lb$1"), A.Num(4)),
                                    None)],
                    A.BinOp("-", A.var("my$p"), A.Num(1)), tag=1)],
            [],
        )
        recv = A.If(
            A.BinOp("<", A.var("my$p"), A.Num(3)),
            [A.Recv("x", [A.Triplet(A.BinOp("+", A.var("ub$1"), A.Num(1)),
                                    A.BinOp("+", A.var("ub$1"), A.Num(5)),
                                    None)],
                    A.BinOp("+", A.var("my$p"), A.Num(1)), tag=1)],
            [],
        )
        main.body.insert(3, send)
        main.body.insert(4, recv)
        return prog

    def seq_reference(self):
        return run_sequential(parse(
            "program p1\nreal x(100)\ndo i = 1, 95\nx(i) = f(x(i + 5))\n"
            "enddo\nend\n"
        )).arrays["x"].data

    def test_shift_program_matches_sequential(self):
        dist = Distribution.from_specs([DistSpec("block")], [(1, 100)], 4)
        res = run_spmd(self.make_shift_program(), 4, FREE,
                       initial_dists={("p1", "x"): dist})
        assert np.allclose(res.gathered("x"), self.seq_reference())

    def test_shift_message_stats(self):
        dist = Distribution.from_specs([DistSpec("block")], [(1, 100)], 4)
        res = run_spmd(self.make_shift_program(), 4, FREE,
                       initial_dists={("p1", "x"): dist})
        assert res.stats.messages == 3          # one per neighbor pair
        assert res.stats.bytes == 3 * 5 * 8     # 5 doubles each

    def test_myproc_intrinsic(self):
        prog = parse("program p\ni = myproc()\nend\n")
        res = run_spmd(prog, 3, FREE)
        assert [fr.scalars["i"] for fr in res.frames] == [0, 1, 2]

    def test_owner_intrinsic_tracks_distribution(self):
        prog = parse("program p\nreal x(100)\nk = owner(x(26))\nend\n")
        dist = Distribution.from_specs([DistSpec("block")], [(1, 100)], 4)
        res = run_spmd(prog, 4, FREE, initial_dists={("p", "x"): dist})
        assert all(fr.scalars["k"] == 1 for fr in res.frames)

    def test_gathered_respects_ownership(self):
        """Each rank writes only its owned region; gathering assembles the
        correct global array even though non-owned regions are stale."""
        prog = parse(
            "program p\nreal x(8)\ninteger my$p\nmy$p = myproc()\n"
            "do i = my$p * 2 + 1, my$p * 2 + 2\nx(i) = my$p + 1\nenddo\nend\n"
        )
        dist = Distribution.from_specs([DistSpec("block")], [(1, 8)], 4)
        res = run_spmd(prog, 4, FREE, initial_dists={("p", "x"): dist})
        assert res.gathered("x").tolist() == [1, 1, 2, 2, 3, 3, 4, 4]


class TestRemapExecution:
    def test_physical_remap_preserves_values(self):
        prog = parse(
            "program p\nreal x(16)\ninteger my$p\nmy$p = myproc()\n"
            "do i = my$p * 4 + 1, my$p * 4 + 4\nx(i) = i * 1.0\nenddo\nend\n"
        )
        # append a Remap to cyclic, then have every proc rescale its
        # cyclic-owned elements
        main = prog.main
        main.body.append(A.Remap("x", [DistSpec("cyclic")]))
        main.body.append(
            A.Do("i", A.BinOp("+", A.var("my$p"), A.Num(1)), A.Num(16),
                 A.Num(4),
                 [A.Assign(A.ArrayRef("x", (A.var("i"),)),
                           A.BinOp("*", A.ArrayRef("x", (A.var("i"),)),
                                   A.Num(10)))])
        )
        dist = Distribution.from_specs([DistSpec("block")], [(1, 16)], 4)
        res = run_spmd(prog, 4, FREE, initial_dists={("p", "x"): dist})
        assert res.gathered("x").tolist() == [i * 10.0 for i in range(1, 17)]
        assert res.stats.remaps == 1
        assert res.stats.remap_bytes > 0

    def test_noop_remap_costs_nothing(self):
        prog = parse("program p\nreal x(16)\nend\n")
        prog.main.body.append(A.Remap("x", [DistSpec("block")]))
        dist = Distribution.from_specs([DistSpec("block")], [(1, 16)], 4)
        res = run_spmd(prog, 4, FREE, initial_dists={("p", "x"): dist})
        assert res.stats.remaps == 0

    def test_mark_dist_changes_owner_without_motion(self):
        prog = parse("program p\nreal x(8)\nk = owner(x(2))\nend\n")
        prog.main.body.insert(0, A.MarkDist("x", [DistSpec("cyclic")]))
        dist = Distribution.from_specs([DistSpec("block")], [(1, 8)], 4)
        res = run_spmd(prog, 4, FREE, initial_dists={("p", "x"): dist})
        assert all(fr.scalars["k"] == 1 for fr in res.frames)  # cyclic owner
        assert res.stats.remaps == 0
        assert res.stats.messages == 0


class TestBroadcastStmt:
    def test_bcast_section(self):
        prog = parse(
            "program p\nreal x(10)\ninteger my$p\nmy$p = myproc()\n"
            "if (my$p == 1) then\ndo i = 1, 10\nx(i) = i * 3.0\nenddo\nendif\n"
            "end\n"
        )
        prog.main.body.append(
            A.Bcast("x", [A.Triplet(A.Num(1), A.Num(10), None)], A.Num(1),
                    tag=9)
        )
        res = run_spmd(prog, 4, FREE,
                       initial_dists={("p", "x"):
                                      Distribution.replicated([(1, 10)], 4)})
        for fr in res.frames:
            assert fr.arrays["x"].data.tolist() == [i * 3.0 for i in range(1, 11)]
        assert res.stats.collectives == 1


class TestSharedInitialImages:
    """Ranks of one run share each array's initial image: arrays are
    global-size on every rank, so the first rank to fill one computes it
    and the others copy — same arrays, clocks and stats as P fills."""

    N = 6

    def counting_run(self, scheduler):
        calls = []

        def init(name, idx):
            calls.append((name, idx))
            return float(10 * idx[0] + (idx[1] if len(idx) > 1 else 0))

        prog = parse(f"program p\nreal a({self.N}, {self.N})\n"
                     f"integer k({self.N})\na(1, 1) = a(2, 2)\nend\n")
        res = run_spmd(prog, 4, FREE, init_fn=init, scheduler=scheduler)
        for fr in res.frames:
            a, k = fr.arrays["a"].data, fr.arrays["k"].data
            assert a[2, 3] == 34.0 and a[0, 0] == 22.0
            assert k.dtype == np.int64 and k.tolist() == \
                [10 * i for i in range(1, self.N + 1)]
        return calls

    def test_image_computed_once_per_run_on_event(self):
        calls = self.counting_run("event")
        assert len(calls) == self.N * self.N + self.N
        assert len(set(calls)) == len(calls)
        # per run, not per process: a second run asks again
        assert len(self.counting_run("event")) == len(calls)

    def test_image_computed_at_most_once_per_rank_on_threads(self):
        cells = self.N * self.N + self.N
        assert cells <= len(self.counting_run("threads")) <= 4 * cells

    def test_a_rank_cannot_write_through_to_the_image(self):
        # on `event` rank 0 has overwritten x(1) before rank 1 fills
        prog = parse("program p\nreal x(4)\nx(1) = x(1) + myproc() + 1\n"
                     "end\n")
        res = run_spmd(prog, 3, FREE, init_fn=lambda name, idx: 1.0)
        assert [fr.arrays["x"].data.tolist() for fr in res.frames] == [
            [2.0, 1.0, 1.0, 1.0], [3.0, 1.0, 1.0, 1.0], [4.0, 1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("codegen", [False, True],
                             ids=["interp", "codegen"])
    @pytest.mark.parametrize("scheduler", ["event", "threads"])
    @pytest.mark.parametrize("app", ["dgefa", "stencil1d"])
    def test_identical_to_per_rank_fills(self, app, scheduler, codegen,
                                         monkeypatch):
        src, init = (dgefa_source(16), make_dgefa_init(16)) \
            if app == "dgefa" else (stencil1d_source(64, 3), None)
        cp = compile_program(src, Options(nprocs=4))
        kw = {"init_fn": init} if init is not None else {}

        def run():
            return cp.run(scheduler=scheduler, codegen=codegen,
                          timeout_s=30.0, **kw)

        def facts(res):
            d = res.stats.as_dict()
            for key in ("wall_s", "host_cpus", "dispatches", "switches",
                        "metrics", "codegen_cache_hits",
                        "codegen_cache_misses"):
                d.pop(key)
            return d

        shared = run()
        # the reference: every rank computes its own image
        monkeypatch.setattr(Node, "_fill", Node._compute_fill)
        own = run()
        assert facts(shared) == facts(own)
        for fs, fo in zip(shared.frames, own.frames):
            assert fs.arrays.keys() == fo.arrays.keys()
            for name in fs.arrays:
                assert np.array_equal(fs.arrays[name].data,
                                      fo.arrays[name].data, equal_nan=True)
