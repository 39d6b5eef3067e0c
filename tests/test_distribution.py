"""Unit + property tests for distribution index math."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rsd import rsd
from repro.dist import (
    DecompValue,
    DimDistribution,
    DirectiveTable,
    Distribution,
    align_permutation,
    factor_grid,
    permute_specs,
)
from repro.lang import ast as A
from repro.lang.ast import DistSpec


def dist1d(kind, n, P, param=None):
    return Distribution.from_specs([DistSpec(kind, param)], [(1, n)], P)


class TestDimDistribution:
    def test_block_partition(self):
        d = DimDistribution.make("block", 1, 100, 4)
        assert d.block == 25
        assert [str(d.local_set(p)[0]) for p in range(4)] == [
            "1:25", "26:50", "51:75", "76:100",
        ]

    def test_block_uneven(self):
        d = DimDistribution.make("block", 1, 10, 4)  # blocks of 3
        assert d.block == 3
        sets = [d.local_set(p)[0] for p in range(4)]
        assert [s.count for s in sets] == [3, 3, 3, 1]
        assert d.owner_coord(10) == 3

    def test_block_last_proc_absorbs_tail(self):
        # n=9, P=4 -> blocks of 3: proc 3 owns nothing
        d = DimDistribution.make("block", 1, 9, 4)
        assert d.local_set(3)[0].empty

    def test_cyclic_partition(self):
        d = DimDistribution.make("cyclic", 1, 8, 4)
        assert str(d.local_set(1)[0]) == "2:8:4"
        assert d.owner_coord(5) == 0
        assert d.owner_coord(6) == 1

    def test_block_cyclic_partition(self):
        d = DimDistribution.make("block_cyclic", 1, 16, 2, param=4)
        assert [str(r) for r in d.local_set(0)] == ["1:4", "9:12"]
        assert [str(r) for r in d.local_set(1)] == ["5:8", "13:16"]
        assert d.owner_coord(9) == 0 and d.owner_coord(13) == 1

    def test_none_owns_all(self):
        d = DimDistribution.make("none", 1, 50, 1)
        assert str(d.local_set(0)[0]) == "1:50"

    def test_out_of_range_raises(self):
        d = DimDistribution.make("block", 1, 100, 4)
        with pytest.raises(IndexError):
            d.owner_coord(101)
        with pytest.raises(IndexError):
            d.local_set(4)

    def test_nonunit_lower_bound(self):
        d = DimDistribution.make("block", 0, 99, 4)
        assert str(d.local_set(0)[0]) == "0:24"
        assert d.owner_coord(0) == 0 and d.owner_coord(99) == 3


class TestDistribution:
    def test_paper_fig1_block(self):
        d = dist1d("block", 100, 4)
        assert str(d.local_index_set(0)) == "[1:25]"
        assert d.owner([26]) == 1

    def test_paper_fig4_row_and_col(self):
        row = Distribution.from_specs(
            [DistSpec("block"), DistSpec("none")], [(1, 100), (1, 100)], 4
        )
        col = Distribution.from_specs(
            [DistSpec("none"), DistSpec("block")], [(1, 100), (1, 100)], 4
        )
        assert str(row.local_index_set(0)) == "[1:25, 1:100]"
        assert str(col.local_index_set(0)) == "[1:100, 1:25]"

    def test_owner_coverage_block(self):
        d = dist1d("block", 100, 4)
        counts = {p: 0 for p in range(4)}
        for g in range(1, 101):
            counts[d.owner([g])] += 1
        assert all(v == 25 for v in counts.values())

    def test_owners_of_section(self):
        d = dist1d("block", 100, 4)
        assert d.owners_of(rsd((26, 30))) == {1}
        assert d.owners_of(rsd((20, 30))) == {0, 1}
        assert d.owners_of(rsd((1, 100))) == {0, 1, 2, 3}

    def test_owners_of_cyclic_column(self):
        d = Distribution.from_specs(
            [DistSpec("none"), DistSpec("cyclic")], [(1, 8), (1, 8)], 4
        )
        assert d.owners_of(rsd((1, 8), 5)) == {0}
        assert d.owners_of(rsd((1, 8), 6)) == {1}

    def test_replicated(self):
        d = Distribution.replicated([(1, 10)], 4)
        assert d.is_replicated
        for p in range(4):
            assert str(d.local_index_set(p)) == "[1:10]"
            assert d.owns(p, [7])

    def test_2d_grid(self):
        d = Distribution.from_specs(
            [DistSpec("block"), DistSpec("block")], [(1, 8), (1, 8)], 4
        )
        assert d.grid_shape() == (2, 2)
        owners = {d.owner([i, j]) for i in range(1, 9) for j in range(1, 9)}
        assert owners == {0, 1, 2, 3}

    def test_rank_coord_roundtrip(self):
        d = Distribution.from_specs(
            [DistSpec("block"), DistSpec("block")], [(1, 8), (1, 8)], 4
        )
        for r in range(4):
            assert d.rank_of_coords(d.coords_of_rank(r)) == r

    def test_local_index_sets_block_cyclic(self):
        d = dist1d("block_cyclic", 16, 2, param=4)
        sets = d.local_index_sets(0)
        assert [str(s) for s in sets] == ["[1:4]", "[9:12]"]

    def test_same_mapping(self):
        assert dist1d("block", 100, 4).same_mapping(dist1d("block", 100, 4))
        assert not dist1d("block", 100, 4).same_mapping(dist1d("cyclic", 100, 4))

    def test_pickles_the_same_after_a_run_used_it(self):
        """The compiler's memos share distributions between compiles and
        runs: one whose owner closure a run compiled still pickles, to
        the same bytes, and answers the same after the round trip."""
        d = dist1d("block", 100, 4)
        fresh = pickle.dumps(d)
        assert d.owner((30,)) == 1 and d.is_replicated is False
        assert pickle.dumps(d) == fresh
        back = pickle.loads(fresh)
        assert back == d and back.owner((30,)) == 1

    def test_specs_roundtrip(self):
        d = Distribution.from_specs(
            [DistSpec("block_cyclic", 8), DistSpec("none")],
            [(1, 64), (1, 64)],
            4,
        )
        assert d.specs == (DistSpec("block_cyclic", 8), DistSpec("none"))

    def test_spec_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            Distribution.from_specs([DistSpec("block")], [(1, 10), (1, 10)], 4)


@given(
    kind=st.sampled_from(["block", "cyclic", "block_cyclic"]),
    n=st.integers(min_value=1, max_value=200),
    P=st.integers(min_value=1, max_value=8),
    param=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=300)
def test_ownership_partitions_index_space(kind, n, P, param):
    """Every global index is owned by exactly one processor, and the
    local index sets tile the index space."""
    d = dist1d(kind, n, P, param=param)
    seen = {}
    for g in range(1, n + 1):
        seen[g] = d.owner([g])
    covered = set()
    for p in range(d.nprocs):
        for s in d.local_index_sets(p):
            dim = s.dims[0]
            if dim.empty:
                continue
            for g in dim.iter():
                assert g not in covered, f"{g} owned twice"
                covered.add(g)
                assert seen[g] == p, f"owner({g}) != local set of {p}"
    assert covered == set(range(1, n + 1))


class TestAlignment:
    def test_identity(self):
        assert align_permutation(["i", "j"], ["i", "j"]) == [0, 1]

    def test_transpose(self):
        assert align_permutation(["i", "j"], ["j", "i"]) == [1, 0]

    def test_permute_specs_fig4(self):
        # X distributed (block, :), Y(i,j) aligned with X(j,i) -> (:, block)
        specs = (DistSpec("block"), DistSpec("none"))
        perm = align_permutation(["i", "j"], ["j", "i"])
        assert permute_specs(specs, perm) == (DistSpec("none"), DistSpec("block"))

    def test_mismatched_indices_raise(self):
        with pytest.raises(ValueError):
            align_permutation(["i", "j"], ["i", "k"])

    def test_repeated_index_raises(self):
        with pytest.raises(ValueError):
            align_permutation(["i", "i"], ["i", "i"])


class TestDirectiveTable:
    def make_table(self):
        return DirectiveTable({"x": 2, "y": 2, "z": 1})

    def test_direct_array_distribute(self):
        t = self.make_table()
        out = t.resolve_distribute(
            A.Distribute("x", [DistSpec("block"), DistSpec("none")])
        )
        assert out["x"] == DecompValue((DistSpec("block"), DistSpec("none")))

    def test_align_then_distribute_fig4(self):
        t = self.make_table()
        t.add_align(A.Align("y", ["i", "j"], "x", ["j", "i"]))
        out = t.resolve_distribute(
            A.Distribute("x", [DistSpec("block"), DistSpec("none")])
        )
        assert out["y"] == DecompValue((DistSpec("none"), DistSpec("block")))

    def test_distribute_decomposition(self):
        t = self.make_table()
        t.add_decomposition(A.Decomposition("d", [A.Num(100)]))
        t.add_align(A.Align("z", ["i"], "d", ["i"]))
        out = t.resolve_distribute(A.Distribute("d", [DistSpec("cyclic")]))
        assert out["z"] == DecompValue((DistSpec("cyclic"),))

    def test_alignment_chain(self):
        t = self.make_table()
        t.add_align(A.Align("y", ["i", "j"], "x", ["j", "i"]))
        # x itself aligned with a decomposition
        t.add_decomposition(A.Decomposition("d", [A.Num(10), A.Num(10)]))
        t.add_align(A.Align("x", ["a", "b"], "d", ["a", "b"]))
        out = t.resolve_distribute(
            A.Distribute("d", [DistSpec("block"), DistSpec("none")])
        )
        assert out["x"] == DecompValue((DistSpec("block"), DistSpec("none")))
        assert out["y"] == DecompValue((DistSpec("none"), DistSpec("block")))

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError):
            self.make_table().resolve_distribute(
                A.Distribute("nope", [DistSpec("block")])
            )

    def test_nonconstant_extent_raises(self):
        t = self.make_table()
        with pytest.raises(ValueError):
            t.add_decomposition(A.Decomposition("d", [A.Var("n")]))


class TestFactorGrid:
    def test_single_axis(self):
        assert factor_grid(8, 1) == (8,)

    def test_two_axes_square(self):
        assert factor_grid(16, 2) == (4, 4)

    def test_two_axes_nonsquare(self):
        g = factor_grid(8, 2)
        assert g[0] * g[1] == 8

    def test_zero_axes(self):
        assert factor_grid(8, 0) == ()

    @given(st.integers(1, 64), st.integers(1, 3))
    def test_product_preserved(self, P, k):
        g = factor_grid(P, k)
        prod = 1
        for e in g:
            prod *= e
        assert prod == P and len(g) == k
