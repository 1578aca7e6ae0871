"""Property-based tests on ghost-exchange invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bvals import BoundaryExchange, message_spec
from repro.comm.mpi import SimMPI
from repro.comm.topology import NeighborInfo
from repro.mesh.block import FieldSpec
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.tree import neighbor_offsets


def make_mesh(levels=2, allocate=True):
    geo = MeshGeometry(
        ndim=2,
        mesh_size=(32, 32, 1),
        block_size=(8, 8, 1),
        ng=2,
        num_levels=levels,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)], allocate=allocate)


@settings(max_examples=10)
@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=4))
def test_exchange_is_idempotent(seeds):
    """Property: a second exchange after convergence changes nothing —
    ghost fill is a projection."""
    mesh = make_mesh()
    for seed in seeds:
        leaves = mesh.tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    rng = np.random.default_rng(0)
    for blk in mesh.block_list:
        blk.interior("q")[...] = rng.normal(size=blk.interior("q").shape)
    bx = BoundaryExchange(mesh, SimMPI(1))
    bx.exchange(["q"])
    snapshot = {b.gid: b.fields["q"].copy() for b in mesh.block_list}
    bx.exchange(["q"])
    for blk in mesh.block_list:
        np.testing.assert_allclose(
            blk.fields["q"], snapshot[blk.gid], atol=1e-13
        )


@settings(max_examples=10)
@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=4))
def test_interior_untouched_by_exchange(seeds):
    """Property: the exchange never modifies interior cells."""
    mesh = make_mesh()
    for seed in seeds:
        leaves = mesh.tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    rng = np.random.default_rng(1)
    for blk in mesh.block_list:
        blk.interior("q")[...] = rng.normal(size=blk.interior("q").shape)
    before = {b.gid: b.interior("q").copy() for b in mesh.block_list}
    BoundaryExchange(mesh, SimMPI(1)).exchange(["q"])
    for blk in mesh.block_list:
        np.testing.assert_array_equal(blk.interior("q"), before[blk.gid])


@settings(max_examples=40)
@given(
    st.sampled_from(neighbor_offsets(2)),
    st.integers(-1, 1),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_message_sizes_consistent(offset, delta, sx, sy):
    """Property: for any legal message geometry, the transmitted volume
    (after optional restriction) equals the receive volume."""
    if delta == 1:
        sender = LogicalLocation(2, sx, sy, 0)
        receiver = LogicalLocation(1, max(sx // 2 - offset[0], 0), max(sy // 2 - offset[1], 0), 0)
    elif delta == -1:
        sender = LogicalLocation(1, sx // 2, sy // 2, 0)
        receiver = LogicalLocation(2, sx, sy, 0)
    else:
        sender = LogicalLocation(1, sx, sy, 0)
        receiver = LogicalLocation(1, sx - offset[0], sy - offset[1], 0)
    nbr = NeighborInfo(offset=offset, nloc=sender, delta=delta)
    spec = message_spec((8, 8, 1), 2, 2, nbr, receiver)
    send_cells = 1
    for lo, hi in spec.send_ranges:
        assert hi > lo
        send_cells *= hi - lo
    if spec.restrict_before_send:
        assert send_cells == spec.cells * 4  # 2D restriction is 4:1
    else:
        assert send_cells == spec.cells


@settings(max_examples=10)
@given(st.integers(1, 4))
def test_rank_count_does_not_change_traffic_volume(nranks):
    """Property: rank layout moves bytes between local/remote categories
    but total cells are invariant."""
    from repro.mesh.loadbalance import balance

    mesh = make_mesh(allocate=False)
    mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
    balance(mesh, nranks)
    bx = BoundaryExchange(mesh, SimMPI(nranks))
    bx.start_receive_bound_bufs()
    stats = bx.send_bound_bufs(["q"])
    mesh2 = make_mesh(allocate=False)
    mesh2.remesh(refine=[mesh2.block_list[5].lloc], derefine=[])
    bx2 = BoundaryExchange(mesh2, SimMPI(1))
    bx2.start_receive_bound_bufs()
    stats2 = bx2.send_bound_bufs(["q"])
    assert stats.cells_communicated == stats2.cells_communicated
    assert (
        stats.messages_local + stats.messages_remote
        == stats2.messages_local + stats2.messages_remote
    )
