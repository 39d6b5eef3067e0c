"""Tests for the run-time library: remap section math, the remap
collective, intrinsics, and shift subsumption (Livermore kernel 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Mode, Options, compile_program
from repro.dist import Distribution
from repro.interp import FArray, run_sequential, run_spmd
from repro.lang import parse
from repro.lang.ast import DistSpec
from repro.machine import FREE, Machine, SimulationError
from repro.runtime.intrinsics import PURE_INTRINSICS
from repro.runtime.remap import remap_array_y, transfer_sections


def dist(kind, n, P, param=None):
    return Distribution.from_specs([DistSpec(kind, param)], [(1, n)], P)


class TestTransferSections:
    def test_block_to_cyclic_partition(self):
        old, new = dist("block", 16, 4), dist("cyclic", 16, 4)
        # every element lands exactly once across all (src, dst) pairs
        seen = set()
        for src in range(4):
            for dst in range(4):
                for piece in transfer_sections(old, new, src, dst):
                    for g in piece.dims[0].iter():
                        assert g not in seen
                        seen.add(g)
        assert seen == set(range(1, 17))

    def test_identity_transfer_is_diagonal(self):
        old = dist("block", 16, 4)
        for src in range(4):
            for dst in range(4):
                pieces = transfer_sections(old, old, src, dst)
                if src == dst:
                    assert pieces
                else:
                    assert pieces == []

    @given(
        kinds=st.tuples(
            st.sampled_from(["block", "cyclic", "block_cyclic"]),
            st.sampled_from(["block", "cyclic", "block_cyclic"]),
        ),
        n=st.integers(min_value=4, max_value=48),
        P=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfer_covers_index_space(self, kinds, n, P):
        old = dist(kinds[0], n, P, param=3)
        new = dist(kinds[1], n, P, param=2)
        count = 0
        for src in range(P):
            for dst in range(P):
                for piece in transfer_sections(old, new, src, dst):
                    count += piece.count
        assert count == n  # disjoint cover


class TestRemapCollective:
    def run_remap(self, old_kind, new_kind, n=16, P=4):
        old = dist(old_kind, n, P, param=4 if old_kind == "block_cyclic" else None)
        new_specs = [DistSpec(new_kind, 2 if new_kind == "block_cyclic" else None)]

        def node(ctx):
            arr = FArray("x", [(1, n)], dist=old)
            # each proc knows only its owned values
            for piece in old.local_index_sets(ctx.rank):
                for g in piece.dims[0].iter():
                    arr.set([g], float(g * 10))
            new = Distribution.from_specs(new_specs, [(1, n)], P)
            yield from remap_array_y(ctx, arr, new)
            # verify this proc now holds its new owned values
            for piece in new.local_index_sets(ctx.rank):
                for g in piece.dims[0].iter():
                    assert arr.get([g]) == float(g * 10), (ctx.rank, g)
            return True

        m = Machine(P, FREE)
        assert all(m.run(node))
        return m.stats

    def test_bounds_differing_from_the_distribution_raise(self):
        """A remap moves the sections of a plan memoised against the
        distribution's bounds, so an array with other bounds is
        refused instead of being indexed with them."""
        def node(ctx):
            arr = FArray("x", [(0, 15)], dist=dist("block", 16, 2))
            yield from remap_array_y(ctx, arr, dist("cyclic", 16, 2))

        with pytest.raises(SimulationError) as info:
            Machine(2, FREE).run(node)
        assert isinstance(info.value.__cause__, IndexError)
        assert "x: bounds" in str(info.value.__cause__)

    @pytest.mark.parametrize("pair", [
        ("block", "cyclic"), ("cyclic", "block"),
        ("block", "block_cyclic"), ("cyclic", "cyclic"),
    ])
    def test_remap_pairs(self, pair):
        old, new = pair
        stats = self.run_remap(old, new)
        if old == new:
            assert stats.remaps == 0  # no-op elided
        else:
            assert stats.remaps == 1

    def test_remap_bytes_counted(self):
        stats = self.run_remap("block", "cyclic")
        # with block->cyclic over P=4, 3/4 of elements move
        assert stats.remap_bytes == 12 * 8


class TestIntrinsics:
    def test_pmod(self):
        pmod = PURE_INTRINSICS["pmod"]
        assert pmod(-1, 4) == 3
        assert pmod(5, 4) == 1
        assert pmod(0, 4) == 0
        assert pmod(-8, 4) == 0

    def test_fortran_mod_truncates(self):
        mod = PURE_INTRINSICS["mod"]
        assert mod(10, 3) == 1
        assert mod(-10, 3) == -1  # Fortran MOD takes the dividend's sign

    def test_sign(self):
        sign = PURE_INTRINSICS["sign"]
        assert sign(5, -1) == -5
        assert sign(-5, 1) == 5

    def test_f_g_deterministic(self):
        f, g = PURE_INTRINSICS["f"], PURE_INTRINSICS["g"]
        assert f(10.0) == f(10.0)
        assert g(10.0) != f(10.0)


class TestShiftSubsumption:
    LK1 = """
program lk1
real x(64), y(64), z(64)
align y(i) with x(i)
align z(i) with x(i)
distribute x(block)
do i = 1, 64
  y(i) = i * 0.25
  z(i) = 65.0 - i
enddo
call hydro(x, y, z, 64)
end

subroutine hydro(x, y, z, n)
real x(n), y(n), z(n)
integer n
do k = 1, n - 11
  x(k) = 3.5 + y(k) * (1.5 * z(k + 10) + 2.5 * z(k + 11))
enddo
end
"""

    def test_livermore_kernel1_single_message(self):
        """z(k+10) and z(k+11) strips subsume into one 11-element
        message per neighbour pair."""
        seq = run_sequential(parse(self.LK1))
        cp = compile_program(self.LK1, Options(nprocs=4, mode=Mode.INTER))
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq.arrays["x"].data)
        assert res.stats.messages == 3
        assert res.stats.bytes == 3 * 11 * 8

    def test_opposite_directions_not_subsumed(self):
        src = self.LK1.replace("z(k + 11)", "z(k - 1)").replace(
            "do k = 1, n - 11", "do k = 2, n - 10"
        )
        seq = run_sequential(parse(src))
        cp = compile_program(src, Options(nprocs=4, mode=Mode.INTER))
        res = cp.run(cost=FREE)
        assert np.allclose(res.gathered("x"), seq.arrays["x"].data)
        assert res.stats.messages == 6  # both directions needed
