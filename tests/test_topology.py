"""Tests for neighbor topology: symmetry, counts, level deltas."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.topology import (
    NeighborInfo,
    build_neighbor_table,
    count_neighbor_pairs,
    neighbors_of_block,
)
from repro.mesh.block import FieldSpec
from repro.mesh.mesh import Mesh, MeshGeometry


def make_mesh(ndim=2, mesh=32, block=8, levels=3, periodic=True):
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(mesh if a < ndim else 1 for a in range(3)),
        block_size=tuple(block if a < ndim else 1 for a in range(3)),
        ng=2,
        num_levels=levels,
        periodic=(periodic,) * 3,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)], allocate=False)


class TestUniform:
    def test_interior_block_has_full_neighborhood_2d(self):
        mesh = make_mesh()
        nbrs = neighbors_of_block(mesh, mesh.block_list[0].lloc)
        assert len(nbrs) == 8  # periodic: every offset populated

    def test_3d_block_has_26_neighbors(self):
        mesh = make_mesh(ndim=3, mesh=16, block=8, levels=1)
        nbrs = neighbors_of_block(mesh, mesh.block_list[0].lloc)
        assert len(nbrs) == 26

    def test_nonperiodic_corner_block_truncated(self):
        mesh = make_mesh(periodic=False)
        corner = mesh.block_at(
            next(l for l in mesh.tree.leaves if l.coords == (0, 0, 0))
        )
        nbrs = neighbors_of_block(mesh, corner.lloc)
        assert len(nbrs) == 3  # +x, +y, +xy only

    def test_face_rank_classification(self):
        info = NeighborInfo(offset=(1, 0, 0), nloc=None, delta=0)
        assert info.face_rank == 1
        info = NeighborInfo(offset=(1, -1, 1), nloc=None, delta=0)
        assert info.face_rank == 3


class TestRefined:
    def test_table_covers_all_blocks(self):
        mesh = make_mesh()
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        table = build_neighbor_table(mesh)
        assert set(table) == {b.lloc for b in mesh.block_list}

    def test_symmetry(self):
        """If A lists B as neighbor, B lists A (with negated offset when at
        the same level; coarse/fine links are mutual too)."""
        mesh = make_mesh()
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        table = build_neighbor_table(mesh)
        for lloc, nbrs in table.items():
            for nbr in nbrs:
                back = table[nbr.nloc]
                assert any(b.nloc == lloc for b in back), (lloc, nbr)

    def test_deltas_are_bounded(self):
        mesh = make_mesh()
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        table = build_neighbor_table(mesh)
        for nbrs in table.values():
            for nbr in nbrs:
                assert nbr.delta in (-1, 0, 1)

    def test_pair_count_grows_with_refinement(self):
        mesh = make_mesh()
        before = count_neighbor_pairs(build_neighbor_table(mesh))
        mesh.remesh(refine=[mesh.block_list[5].lloc], derefine=[])
        after = count_neighbor_pairs(build_neighbor_table(mesh))
        assert after > before


@settings(max_examples=15)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
def test_symmetry_property_random_meshes(seeds):
    """Property: neighbor links are mutual on any legal refined mesh."""
    mesh = make_mesh(levels=3)
    for seed in seeds:
        leaves = mesh.tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < mesh.tree.max_level:
            mesh.remesh(refine=[loc], derefine=[])
    table = build_neighbor_table(mesh)
    for lloc, nbrs in table.items():
        for nbr in nbrs:
            assert any(b.nloc == lloc for b in table[nbr.nloc])
