"""Topology abstraction and cost-model boundary cases.

Covers the satellite fixes and the new interconnect layer:

* ``tree_stages``/collective/barrier costs at the degenerate P=1 and
  zero-byte boundaries (a single rank communicates with nobody — its
  collectives must cost exactly 0);
* per-topology ``hops``/``link_path`` structure (hypercube e-cube
  routing, mesh/torus dimension order, fat-tree up-over-down);
* topology-aware collective trees and hop-charged transfer times;
* deterministic link-contention serialization (``LinkClock``) and its
  rejection on the nondeterministic thread backend;
* ``resolve_topology`` parsing: names, ``:contention`` flags,
  ``REPRO_TOPOLOGY``, instance pass-through, and error cases;
* end-to-end: runs under every topology produce the same arrays and
  message counts as uniform — only virtual time may differ — and
  the event backend repeats itself bit for bit under contention.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.stencil import stencil1d_source
from repro.core import Mode, Options, compile_program
from repro.machine import (
    FREE,
    IPSC860,
    CostModel,
    FatTreeTopology,
    HypercubeTopology,
    LinkClock,
    Machine,
    Mesh2DTopology,
    Topology,
    Torus2DTopology,
    UniformTopology,
    resolve_topology,
    tree_stages,
)

ALL_NAMES = ["uniform", "hypercube", "mesh2d", "torus2d", "fattree"]


class TestCostModelBoundaries:
    """Satellite fix: P=1 collectives and barriers must cost 0."""

    def test_tree_stages(self):
        assert tree_stages(1) == 0
        assert tree_stages(2) == 1
        assert tree_stages(4) == 2
        assert tree_stages(5) == 3
        assert tree_stages(8) == 3
        assert tree_stages(1024) == 10

    def test_single_rank_collective_free(self):
        for cost in (IPSC860, CostModel(alpha=7.0, beta=0.1)):
            assert cost.collective_cost(1, 0) == 0.0
            assert cost.collective_cost(1, 4096) == 0.0
            assert cost.barrier_cost(1) == 0.0

    def test_single_rank_free_on_every_topology(self):
        for name in ALL_NAMES:
            topo = resolve_topology(name, 1)
            assert topo.collective_cost(IPSC860, 1, 1024) == 0.0, name
            assert topo.barrier_cost(IPSC860, 1) == 0.0, name

    def test_zero_byte_collective_pays_latency_only(self):
        c = IPSC860
        assert c.collective_cost(4, 0) == tree_stages(4) * c.alpha
        assert c.barrier_cost(4) == tree_stages(4) * c.alpha

    def test_p2_collective_one_stage(self):
        c = CostModel(alpha=10.0, beta=0.5)
        assert c.collective_cost(2, 8) == 10.0 + 0.5 * 8


class TestHypercube:
    def test_hops_hamming(self):
        t = HypercubeTopology(8)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 1) == 1
        assert t.hops(0, 7) == 3
        assert t.hops(5, 6) == 2  # 101 ^ 110 = 011

    def test_ecube_path_flips_low_bits_first(self):
        t = HypercubeTopology(8)
        assert t.link_path(0, 7) == [(0, 1), (1, 3), (3, 7)]
        assert t.link_path(3, 3) == []

    def test_path_length_matches_hops(self):
        t = HypercubeTopology(16)
        for s in range(16):
            for d in range(16):
                assert len(t.link_path(s, d)) == t.hops(s, d)

    def test_collective_matches_flat_tree(self):
        # dimension exchange: nearest-neighbour stages, so the cost
        # equals the uniform binomial tree on power-of-two P
        t = HypercubeTopology(16)
        assert t.collective_cost(IPSC860, 16, 64) == \
            IPSC860.collective_cost(16, 64)


class TestMeshAndTorus:
    def test_mesh_hops_manhattan(self):
        t = Mesh2DTopology(16)  # 4x4
        assert (t.rows, t.cols) == (4, 4)
        assert t.hops(0, 15) == 6  # (0,0) -> (3,3)
        assert t.hops(0, 3) == 3
        assert t.hops(5, 5) == 0

    def test_torus_wraps_shortest_direction(self):
        t = Torus2DTopology(16)
        assert t.hops(0, 3) == 1   # wrap along the row
        assert t.hops(0, 12) == 1  # wrap along the column
        assert t.hops(0, 15) == 2

    def test_mesh_path_is_x_then_y(self):
        t = Mesh2DTopology(16)
        assert t.link_path(0, 5) == [(0, 1), (1, 5)]

    def test_path_endpoints_chain(self):
        for t in (Mesh2DTopology(12), Torus2DTopology(12)):
            for s in range(12):
                for d in range(12):
                    path = t.link_path(s, d)
                    assert len(path) == t.hops(s, d)
                    here = s
                    for a, b in path:
                        assert a == here
                        here = b
                    if path:
                        assert here == d

    def test_non_square_factorization(self):
        t = Mesh2DTopology(6)
        assert (t.rows, t.cols) == (2, 3)
        with pytest.raises(ValueError, match="does not tile"):
            Mesh2DTopology(6, shape=(4, 2))

    def test_mesh_collective_costs_more_than_torus(self):
        # wraparound shortens stage distances only when a stage's
        # partner is more than half the axis away, i.e. on
        # non-power-of-two axes (6x6 here); on power-of-two axes the
        # two agree exactly
        m, t = Mesh2DTopology(36), Torus2DTopology(36)
        assert m.collective_cost(IPSC860, 36, 8) > \
            t.collective_cost(IPSC860, 36, 8)
        m64, t64 = Mesh2DTopology(64), Torus2DTopology(64)
        assert m64.collective_cost(IPSC860, 64, 8) == \
            t64.collective_cost(IPSC860, 64, 8)
        assert m64.barrier_cost(IPSC860, 64) == \
            m64.collective_cost(IPSC860, 64, 0)


class TestFatTree:
    def test_hops_up_over_down(self):
        t = FatTreeTopology(16, radix=4)
        assert t.hops(0, 0) == 0
        assert t.hops(0, 1) == 2   # same leaf switch
        assert t.hops(0, 15) == 4  # through the root

    def test_path_through_switches(self):
        t = FatTreeTopology(16, radix=4)
        assert t.link_path(0, 1) == [(0, ("sw", 1, 0)), (("sw", 1, 0), 1)]
        path = t.link_path(0, 5)
        assert path[0] == (0, ("sw", 1, 0))
        assert path[-1] == (("sw", 1, 1), 5)
        assert len(path) == t.hops(0, 5)

    def test_bad_radix(self):
        with pytest.raises(ValueError, match="radix"):
            FatTreeTopology(8, radix=1)


class TestTransferTime:
    def test_uniform_bit_identical_to_costmodel(self):
        t = UniformTopology(8)
        for nbytes in (0, 8, 4096):
            assert t.transfer_time(IPSC860, nbytes, 0, 7) == \
                IPSC860.transfer_time(nbytes)

    def test_extra_hops_charged(self):
        t = HypercubeTopology(8)
        base = IPSC860.transfer_time(64)
        assert t.transfer_time(IPSC860, 64, 0, 1) == base
        assert t.transfer_time(IPSC860, 64, 0, 7) == \
            base + 2 * IPSC860.hop


class TestLinkClock:
    def test_no_contention_matches_estimate(self):
        lc = LinkClock()
        t = HypercubeTopology(8)
        # lone message over 3 hops: start + 2*hop + wire
        arr = lc.traverse(t.link_path(0, 7), 100.0, 50.0, hop_time=5.0)
        assert arr == 100.0 + 2 * 5.0 + 50.0

    def test_shared_link_serializes(self):
        lc = LinkClock()
        path = [(0, 1)]
        a = lc.traverse(path, 0.0, 10.0)
        b = lc.traverse(path, 0.0, 10.0)  # queues behind the first
        assert a == 10.0
        assert b == 20.0
        # a disjoint link is unaffected
        assert lc.traverse([(2, 3)], 0.0, 10.0) == 10.0

    def test_contention_is_deterministic(self):
        def run():
            lc = LinkClock()
            t = Mesh2DTopology(16)
            return [lc.traverse(t.link_path(s, (s + 5) % 16),
                                float(s), 25.0, hop_time=5.0)
                    for s in range(16)]
        assert run() == run()


class TestResolveTopology:
    def test_default_uniform(self, monkeypatch):
        monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        t = resolve_topology(None, 4)
        assert isinstance(t, UniformTopology)
        assert not t.contention
        assert t.describe() == "uniform"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TOPOLOGY", "torus2d:contention")
        t = resolve_topology(None, 16)
        assert isinstance(t, Torus2DTopology)
        assert t.contention
        assert t.describe() == "torus2d:contention"
        # explicit argument wins over the environment
        assert isinstance(resolve_topology("mesh2d", 16), Mesh2DTopology)

    def test_name_parsing(self):
        for name in ALL_NAMES:
            assert resolve_topology(name, 8).name == name
        t = resolve_topology("Hypercube:CONTENTION", 8)
        assert isinstance(t, HypercubeTopology) and t.contention

    def test_instance_passthrough(self):
        inst = HypercubeTopology(8)
        assert resolve_topology(inst, 8) is inst
        with pytest.raises(ValueError, match="built for P=8"):
            resolve_topology(inst, 16)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown topology"):
            resolve_topology("ring", 4)
        with pytest.raises(ValueError, match="unknown topology flag"):
            resolve_topology("mesh2d:adaptive", 4)

    def test_threads_rejects_contention(self):
        with pytest.raises(ValueError, match="deterministic scheduler"):
            Machine(4, scheduler="threads", topology="mesh2d:contention")
        # without contention, threads + topology is fine
        m = Machine(4, scheduler="threads", topology="mesh2d")
        assert m.topology.name == "mesh2d"


def _ping(ctx):
    """Rank 0 sends 64 B to the last rank; everyone barriers."""
    last = ctx.nprocs - 1
    if ctx.rank == 0:
        ctx.send(last, 0, b"x" * 64, 64)
    elif ctx.rank == last:
        yield from ctx.recv_y(0, 0)
    yield from ctx.barrier_y()
    return ctx.clock


class TestMachineIntegration:
    def test_hops_stretch_virtual_time(self):
        """The same program takes longer on a multi-hop network."""
        uni = Machine(8, IPSC860, topology="uniform")
        uni_clocks = uni.run(_ping)
        cube = Machine(8, IPSC860, topology="hypercube")
        cube_clocks = cube.run(_ping)
        # 0 -> 7 is 3 hops on the cube: 2 extra hops of latency, and
        # the stats must label the run with its topology
        assert cube_clocks[7] > uni_clocks[7]
        assert uni.stats.topology == "uniform"
        assert cube.stats.topology == "hypercube"
        assert uni.stats.messages == cube.stats.messages

    def test_free_costmodel_zero_time(self):
        m = Machine(4, FREE, topology="hypercube")
        clocks = m.run(_ping)
        assert clocks == [0.0] * 4

    @pytest.mark.parametrize("topology", ALL_NAMES)
    def test_apps_same_results_any_topology(self, topology):
        """Topology changes virtual time, never results or message
        counts."""
        cp = compile_program(stencil1d_source(64, 2),
                             Options(nprocs=4, mode=Mode.INTER))
        base = cp.run(timeout_s=30.0)
        res = cp.run(timeout_s=30.0, topology=topology)
        assert np.array_equal(res.gathered("x"), base.gathered("x"))
        assert res.stats.messages == base.stats.messages
        assert res.stats.bytes == base.stats.bytes
        assert res.stats.topology == topology

    @pytest.mark.parametrize("topology",
                             ["hypercube:contention",
                              "torus2d:contention"])
    def test_contention_bit_identical_coop_vs_event(self, topology):
        """Contention arrival times depend on send order; the event
        core's order is a pure function of (clock, rank), so two runs
        — under the legacy ``coop`` spelling (now the same core) and
        as ``event``, interpreter and generated code — produce
        identical virtual clocks."""
        cp = compile_program(stencil1d_source(64, 2),
                             Options(nprocs=4, mode=Mode.INTER))
        a = cp.run(timeout_s=30.0, scheduler="coop", topology=topology,
                   codegen=False)
        b = cp.run(timeout_s=30.0, scheduler="event", topology=topology,
                   codegen=True)
        assert a.stats.proc_times == b.stats.proc_times
        assert a.stats.messages == b.stats.messages
        assert np.array_equal(a.gathered("x"), b.gathered("x"))
