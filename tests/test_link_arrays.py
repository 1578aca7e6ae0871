"""The array link builder against the per-leaf oracle.

``build_links`` must reproduce ``neighbors_of_block`` link for link and in
the same order, and everything derived from the arrays — the modeled
rebuild aggregates, the registered buffer bytes, flux-correction traffic —
must equal the per-link computation kept here as a helper.
"""

from types import SimpleNamespace
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bvals import BoundaryExchange, _message_geometry
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.comm.topology import (
    build_links,
    build_neighbor_table,
    neighbors_of_block,
)
from repro.mesh.block import FieldSpec
from repro.mesh.loadbalance import balance
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.tree import BlockTree, neighbor_offsets

NCOMP = 3


def make_mesh(ndim, nroot, levels, periodic, allocate=False):
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(8 * nroot if a < ndim else 1 for a in range(3)),
        block_size=tuple(8 if a < ndim else 1 for a in range(3)),
        ng=2,
        num_levels=levels,
        periodic=(periodic,) * 3,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", NCOMP)], allocate=allocate)


@st.composite
def meshes(draw):
    """A random legal tree: random refines, each cascading under 2:1."""
    mesh = make_mesh(
        ndim=draw(st.integers(1, 3)),
        nroot=draw(st.integers(1, 3)),
        levels=draw(st.integers(1, 4)),
        periodic=draw(st.booleans()),
    )
    for pick, deep in draw(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.booleans()), min_size=1, max_size=10
        )
    ):
        leaves = mesh.tree.leaves_sorted()
        if deep:  # refine next to the finest leaves to force cascades
            top = max(l.level for l in leaves)
            leaves = [l for l in leaves if l.level == top]
        loc = leaves[pick % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    return mesh


@st.composite
def ranked_meshes(draw):
    mesh = draw(meshes())
    nranks = draw(st.integers(1, 4))
    balance(mesh, nranks)
    return mesh, SimMPI(nranks, nnodes=draw(st.integers(1, nranks)))


def oracle_links(mesh) -> List[Tuple[int, int, int, int]]:
    offsets = neighbor_offsets(mesh.ndim)
    return [
        (blk.gid, mesh.block_at(n.nloc).gid, offsets.index(n.offset), n.delta)
        for blk in mesh.block_list
        for n in neighbors_of_block(mesh, blk.lloc)
    ]


def per_link_modeled_rebuild(mesh, nranks, bytes_per_value=8):
    """The aggregates of a modeled rebuild, one oracle link at a time."""
    nx, ng, ndim = mesh.geometry.block_size, mesh.geometry.ng, mesh.ndim
    pairs: Dict[Tuple[int, int], List[int]] = {}
    restricted = prolongs = restricts = nbuffers = 0
    per_rank = {r: 0 for r in range(nranks)}
    table = build_neighbor_table(mesh)
    for blk in mesh.block_list:
        coarse_offsets = set()
        fine_or_same = 0
        for nbr in table[blk.lloc]:
            _, recv, _, restrict_bs = _message_geometry(
                nx, ng, ndim, nbr.offset, nbr.delta,
                tuple(c & 1 for c in nbr.nloc.coords),
                tuple(c & 1 for c in blk.lloc.coords),
            )
            cells = 1
            for lo, hi in recv:
                cells *= hi - lo
            src = mesh.block_at(nbr.nloc).rank
            entry = pairs.setdefault((src, blk.rank), [0, 0])
            entry[0] += 1
            entry[1] += cells
            nbuffers += 1
            restricted += restrict_bs
            if nbr.delta == -1:
                coarse_offsets.add(nbr.offset)
            else:
                fine_or_same += 1
            if src != blk.rank:
                size = cells * NCOMP * bytes_per_value
                per_rank[src] += size
                per_rank[blk.rank] += size
        if coarse_offsets:
            prolongs += len(coarse_offsets)
            restricts += 1 + fine_or_same
    return {
        "pairs": list(pairs.items()),
        "restricted": restricted,
        "prolongs": prolongs,
        "restricts": restricts,
        "nbuffers": nbuffers,
        "registered": per_rank,
    }


def per_link_flux_correction(mesh, mpi, bytes_per_value=8):
    """Flux-correction stats, one oracle face link and one send at a time."""
    nx, ndim = mesh.geometry.block_size, mesh.ndim
    stats = dict(corrections=0, local=0, remote=0, cells=0, nbytes=0)
    table = build_neighbor_table(mesh)
    for blk in mesh.block_list:
        for nbr in table[blk.lloc]:
            if nbr.delta != 1 or nbr.face_rank != 1:
                continue
            axis = next(a for a in range(3) if nbr.offset[a] != 0)
            cells = 1
            for t in range(ndim):
                if t != axis:
                    cells *= nx[t] // 2
            fine = mesh.block_at(nbr.nloc)
            nbytes = cells * NCOMP * bytes_per_value
            mpi.send(fine.rank, blk.rank, nbytes)
            stats["local" if fine.rank == blk.rank else "remote"] += 1
            stats["corrections"] += 1
            stats["cells"] += cells
            stats["nbytes"] += nbytes
    return stats


@settings(max_examples=100)
@given(meshes())
def test_links_equal_oracle(mesh):
    links = build_links(mesh)
    got = list(
        zip(
            links.recv_gid.tolist(),
            links.send_gid.tolist(),
            links.offset_id.tolist(),
            links.delta.tolist(),
        )
    )
    assert got == oracle_links(mesh)


@settings(max_examples=30)
@given(ranked_meshes())
def test_modeled_aggregates_equal_per_link(mesh_mpi):
    mesh, mpi = mesh_mpi
    bx = BoundaryExchange(mesh, mpi)
    want = per_link_modeled_rebuild(mesh, mpi.nranks)
    assert list(bx._agg_pairs.items()) == want["pairs"]
    assert bx._agg_restricted_msgs == want["restricted"]
    assert bx._agg_prolongs == want["prolongs"]
    assert bx._agg_restricts == want["restricts"]
    assert bx._agg_nbuffers == want["nbuffers"]
    assert {
        r: mpi.registered_buffer_bytes(r) for r in range(mpi.nranks)
    } == want["registered"]


@settings(max_examples=30)
@given(ranked_meshes())
def test_flux_correction_equals_per_link(mesh_mpi):
    mesh, mpi = mesh_mpi
    fc = FluxCorrection(mesh, mpi)
    fc.set_links(build_links(mesh))
    stats = fc.correct(["q"])
    ref_mpi = SimMPI(mpi.nranks, nnodes=mpi.nnodes)
    want = per_link_flux_correction(mesh, ref_mpi)
    assert (
        stats.corrections,
        stats.messages_local,
        stats.messages_remote,
        stats.cells_communicated,
        stats.bytes_communicated,
    ) == (
        want["corrections"],
        want["local"],
        want["remote"],
        want["cells"],
        want["nbytes"],
    )
    assert mpi.cycle == ref_mpi.cycle
    assert (mpi.internode_messages, mpi.internode_bytes) == (
        ref_mpi.internode_messages,
        ref_mpi.internode_bytes,
    )


def test_numeric_neighbor_table_equals_oracle():
    mesh = make_mesh(ndim=2, nroot=3, levels=3, periodic=False, allocate=True)
    mesh.remesh(refine=[mesh.block_list[4].lloc], derefine=[])
    mesh.remesh(refine=[mesh.block_list[9].lloc], derefine=[])
    bx = BoundaryExchange(mesh, SimMPI(1))
    assert list(bx.neighbor_table.items()) == list(
        build_neighbor_table(mesh).items()
    )


def test_two_to_one_violation_raises_like_the_oracle():
    """A hand-built 1D leaf set: a level-0 leaf beside level-2 leaves."""
    tree = BlockTree(nroot=(2, 1, 1), ndim=1, num_levels=3, periodic=(False,) * 3)
    tree._leaves = {LogicalLocation(0, 0)} | {
        LogicalLocation(2, x) for x in range(4, 8)
    }
    leaves = tree.leaves_sorted()
    mesh = SimpleNamespace(
        tree=tree, ndim=1, block_list=[SimpleNamespace(lloc=l) for l in leaves]
    )
    with pytest.raises(RuntimeError, match="2:1"):
        build_links(mesh)
    with pytest.raises(RuntimeError, match="2:1"):
        tree.check_valid()
