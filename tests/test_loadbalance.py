"""Tests for Morton-ordered cost-based load balancing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.block import FieldSpec
from repro.mesh.loadbalance import (
    balance,
    partition_contiguous,
    partition_round_robin,
)
from repro.mesh.mesh import Mesh, MeshGeometry


def make_mesh():
    geo = MeshGeometry(
        ndim=2, mesh_size=(32, 32, 1), block_size=(8, 8, 1), ng=2, num_levels=3
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)], allocate=False)


class TestPartition:
    def test_equal_costs_split_evenly(self):
        parts = partition_contiguous([1.0] * 16, 4)
        assert parts == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_single_rank_takes_all(self):
        assert partition_contiguous([1.0, 2.0, 3.0], 1) == [0, 0, 0]

    def test_more_ranks_than_blocks(self):
        parts = partition_contiguous([1.0, 1.0], 5)
        assert parts == [0, 1]

    def test_empty_costs(self):
        assert partition_contiguous([], 4) == []

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            partition_contiguous([1.0], 0)

    def test_heavy_block_split_minimizes_imbalance(self):
        parts = partition_contiguous([1.0, 100.0, 1.0, 1.0], 2)
        # Either split leaves rank 0 or rank 1 with the heavy block; the
        # closer-to-target choice groups it with its predecessor.
        assert parts == [0, 0, 1, 1]

    def test_remainder_spread_not_dumped_on_last_rank(self):
        # 120 equal blocks over 32 ranks: ranks must get 3 or 4 blocks, not
        # a 3-per-rank floor with a 27-block pile on the last rank.
        parts = partition_contiguous([1.0] * 120, 32)
        from collections import Counter
        sizes = Counter(parts).values()
        assert max(sizes) <= 4 and min(sizes) >= 3

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=60),
        st.integers(1, 12),
    )
    def test_partition_properties(self, costs, nranks):
        parts = partition_contiguous(costs, nranks)
        assert len(parts) == len(costs)
        # Contiguous and monotone rank ids.
        assert all(b - a in (0, 1) for a, b in zip(parts, parts[1:]))
        assert parts[0] == 0
        assert max(parts) < nranks
        # Every rank up to the maximum used gets at least one block.
        assert set(parts) == set(range(max(parts) + 1))
        # When there are enough blocks, no rank is starved.
        if len(costs) >= nranks:
            assert max(parts) == nranks - 1


class TestRoundRobin:
    def test_strided_assignment(self):
        assert partition_round_robin(6, 3) == [0, 1, 2, 0, 1, 2]

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            partition_round_robin(4, 0)

    def test_policy_selectable_in_balance(self):
        mesh = make_mesh()
        plan = balance(mesh, 4, policy="round_robin")
        assert plan.assignments[:4] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="unknown load-balance policy"):
            balance(mesh, 4, policy="random")

    def test_round_robin_destroys_locality(self):
        """The ablation's point: strided placement turns neighbor exchanges
        into remote messages."""
        from repro.comm.bvals import BoundaryExchange
        from repro.comm.mpi import SimMPI

        remote = {}
        for policy in ("contiguous", "round_robin"):
            mesh = make_mesh()
            balance(mesh, 4, policy=policy)
            bx = BoundaryExchange(mesh, SimMPI(4))
            bx.start_receive_bound_bufs()
            stats = bx.send_bound_bufs(["q"])
            remote[policy] = stats.messages_remote
        assert remote["round_robin"] > remote["contiguous"]


class TestBalance:
    def test_assigns_all_blocks(self):
        mesh = make_mesh()
        plan = balance(mesh, 4)
        assert len(plan.assignments) == mesh.num_blocks
        assert {b.rank for b in mesh.block_list} == {0, 1, 2, 3}

    def test_first_balance_moves_blocks(self):
        mesh = make_mesh()
        plan = balance(mesh, 4)
        # Initially all blocks sat on rank 0; 12 of 16 must move.
        assert plan.moved_blocks == 12

    def test_rebalance_is_stable(self):
        mesh = make_mesh()
        balance(mesh, 4)
        plan = balance(mesh, 4)
        assert plan.moved_blocks == 0

    def test_imbalance_metric(self):
        mesh = make_mesh()
        plan = balance(mesh, 4)
        assert plan.imbalance == pytest.approx(1.0)

    def test_refinement_triggers_moves(self):
        mesh = make_mesh()
        balance(mesh, 4)
        mesh.remesh(refine=[mesh.block_list[0].lloc], derefine=[])
        plan = balance(mesh, 4)
        assert plan.moved_blocks > 0
        assert plan.imbalance < 1.5

    def test_costs_respected(self):
        mesh = make_mesh()
        for blk in mesh.block_list:
            blk.cost = 1.0
        mesh.block_list[0].cost = 16.0
        plan = balance(mesh, 2)
        # The heavy first block should sit alone-ish: rank 0 gets few blocks.
        n0 = sum(1 for r in plan.assignments if r == 0)
        assert n0 < mesh.num_blocks / 2
