"""Tests for the 2:1 block tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.logical_location import LogicalLocation
from repro.mesh.tree import BlockTree, neighbor_offsets


def make_tree(ndim=2, nroot=(4, 4, 1), num_levels=3, periodic=True):
    return BlockTree(
        nroot=nroot,
        ndim=ndim,
        num_levels=num_levels,
        periodic=(periodic,) * 3,
    )


class TestConstruction:
    def test_initial_leaf_count(self):
        tree = make_tree(nroot=(4, 3, 1))
        assert len(tree) == 12

    def test_3d_initial_leaves(self):
        tree = make_tree(ndim=3, nroot=(2, 2, 2))
        assert len(tree) == 8

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            BlockTree(nroot=(2, 1, 1), ndim=4)

    def test_rejects_nonunit_unused_dim(self):
        with pytest.raises(ValueError):
            BlockTree(nroot=(2, 2, 1), ndim=1)

    def test_offsets_counts(self):
        assert len(neighbor_offsets(1)) == 2
        assert len(neighbor_offsets(2)) == 8
        assert len(neighbor_offsets(3)) == 26

    def test_initial_tree_valid(self):
        make_tree().check_valid()


class TestWrap:
    def test_wrap_periodic(self):
        tree = make_tree(nroot=(4, 4, 1))
        wrapped = tree.wrap(LogicalLocation(0, -1, 4, 0))
        assert wrapped == LogicalLocation(0, 3, 0, 0)

    def test_wrap_nonperiodic_returns_none(self):
        tree = make_tree(periodic=False)
        assert tree.wrap(LogicalLocation(0, -1, 0, 0)) is None

    def test_wrap_inside_is_identity(self):
        tree = make_tree()
        loc = LogicalLocation(0, 2, 3, 0)
        assert tree.wrap(loc) == loc


class TestRefine:
    def test_refine_replaces_leaf_with_children(self):
        tree = make_tree()
        loc = LogicalLocation(0, 1, 1, 0)
        tree.refine(loc)
        assert loc not in tree
        for child in loc.children(2):
            assert child in tree
        assert len(tree) == 16 - 1 + 4

    def test_refine_rejects_non_leaf(self):
        tree = make_tree()
        tree.refine(LogicalLocation(0, 0, 0, 0))
        with pytest.raises(ValueError):
            tree.refine(LogicalLocation(0, 0, 0, 0))

    def test_refine_rejects_max_level(self):
        tree = make_tree(num_levels=1)
        with pytest.raises(ValueError):
            tree.refine(LogicalLocation(0, 0, 0, 0))

    def test_refine_cascades_for_two_one(self):
        tree = make_tree(num_levels=3)
        tree.refine(LogicalLocation(0, 1, 1, 0))
        # Refining a level-1 child forces the level-0 neighbors to refine.
        refined = tree.refine(LogicalLocation(1, 2, 2, 0))
        assert len(refined) > 1
        tree.check_valid()

    def test_deep_cascade_keeps_tree_valid(self):
        tree = make_tree(nroot=(8, 8, 1), num_levels=4)
        # Refine one corner down to the finest level.
        loc = LogicalLocation(0, 0, 0, 0)
        for _ in range(3):
            tree.refine(loc)
            loc = next(iter(loc.children(2)))
        tree.check_valid()

    def test_refine_1d(self):
        tree = make_tree(ndim=1, nroot=(4, 1, 1))
        tree.refine(LogicalLocation(0, 2, 0, 0))
        tree.check_valid()
        assert len(tree) == 5


class TestNeighborLeaves:
    def test_same_level_neighbor(self):
        tree = make_tree()
        nbrs = tree.neighbor_leaves(LogicalLocation(0, 1, 1, 0), (1, 0, 0))
        assert nbrs == [(LogicalLocation(0, 2, 1, 0), 0)]

    def test_physical_boundary_no_neighbor(self):
        tree = make_tree(periodic=False)
        assert tree.neighbor_leaves(LogicalLocation(0, 0, 0, 0), (-1, 0, 0)) == []

    def test_finer_neighbors_across_face(self):
        tree = make_tree()
        tree.refine(LogicalLocation(0, 2, 1, 0))
        nbrs = tree.neighbor_leaves(LogicalLocation(0, 1, 1, 0), (1, 0, 0))
        assert len(nbrs) == 2
        assert all(delta == 1 for _, delta in nbrs)
        # Only the children on the -x face of the refined block touch us.
        assert {n.lx1 for n, _ in nbrs} == {4}

    def test_coarser_neighbor(self):
        tree = make_tree()
        tree.refine(LogicalLocation(0, 2, 1, 0))
        child = LogicalLocation(1, 4, 2, 0)
        nbrs = tree.neighbor_leaves(child, (-1, 0, 0))
        assert nbrs == [(LogicalLocation(0, 1, 1, 0), -1)]

    def test_corner_neighbor_finer(self):
        tree = make_tree()
        tree.refine(LogicalLocation(0, 2, 2, 0))
        nbrs = tree.neighbor_leaves(LogicalLocation(0, 1, 1, 0), (1, 1, 0))
        assert len(nbrs) == 1
        assert nbrs[0] == (LogicalLocation(1, 4, 4, 0), 1)

    def test_3d_face_finer_has_four(self):
        tree = make_tree(ndim=3, nroot=(2, 2, 2))
        tree.refine(LogicalLocation(0, 1, 0, 0))
        nbrs = tree.neighbor_leaves(LogicalLocation(0, 0, 0, 0), (1, 0, 0))
        assert len(nbrs) == 4


class TestDerefine:
    def test_cannot_derefine_without_all_children(self):
        tree = make_tree()
        parent = LogicalLocation(0, 1, 1, 0)
        tree.refine(parent)
        tree.refine(LogicalLocation(1, 2, 2, 0))
        assert not tree.can_derefine(parent)

    def test_derefine_restores_parent(self):
        tree = make_tree()
        parent = LogicalLocation(0, 1, 1, 0)
        tree.refine(parent)
        assert tree.can_derefine(parent)
        tree.derefine(parent)
        assert parent in tree
        assert len(tree) == 16
        tree.check_valid()

    def test_derefine_blocked_by_two_one(self):
        tree = make_tree(num_levels=3)
        a = LogicalLocation(0, 1, 1, 0)
        tree.refine(a)
        tree.refine(LogicalLocation(1, 2, 2, 0))  # cascades neighbors
        # The level-1 block adjacent to level-2 leaves cannot merge back.
        fine_parent = LogicalLocation(1, 2, 2, 0)
        assert fine_parent not in tree  # it was refined
        assert not tree.can_derefine(a)


class TestApplyFlags:
    def test_refine_wins_over_derefine(self):
        tree = make_tree()
        parent = LogicalLocation(0, 1, 1, 0)
        tree.refine(parent)
        children = list(parent.children(2))
        refined, derefined = tree.apply_flags(
            refine=[children[0]], derefine=children
        )
        assert children[0] in [r for r in refined]
        assert derefined == []

    def test_derefine_requires_unanimous_children(self):
        tree = make_tree()
        parent = LogicalLocation(0, 1, 1, 0)
        tree.refine(parent)
        children = list(parent.children(2))
        _, derefined = tree.apply_flags(refine=[], derefine=children[:3])
        assert derefined == []
        _, derefined = tree.apply_flags(refine=[], derefine=children)
        assert derefined == [parent]

    def test_flags_on_stale_locations_ignored(self):
        tree = make_tree()
        refined, derefined = tree.apply_flags(
            refine=[LogicalLocation(2, 0, 0, 0)],
            derefine=[LogicalLocation(1, 0, 0, 0)],
        )
        assert refined == [] and derefined == []

    def test_refine_beyond_max_level_ignored(self):
        tree = make_tree(num_levels=1)
        refined, _ = tree.apply_flags(
            refine=[LogicalLocation(0, 0, 0, 0)], derefine=[]
        )
        assert refined == []


@settings(max_examples=25)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
def test_random_refinement_keeps_tree_valid(seeds):
    """Property: any refine sequence preserves tiling and the 2:1 rule."""
    tree = make_tree(nroot=(4, 4, 1), num_levels=4)
    for seed in seeds:
        leaves = tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < tree.max_level:
            tree.refine(loc)
    tree.check_valid()


@settings(max_examples=25)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
)
def test_random_flags_keep_tree_valid(refine_seeds, derefine_seeds):
    """Property: apply_flags never leaves the tree inconsistent."""
    tree = make_tree(nroot=(4, 4, 1), num_levels=3)
    for seed in refine_seeds:
        leaves = tree.leaves_sorted()
        loc = leaves[seed % len(leaves)]
        if loc.level < tree.max_level:
            tree.refine(loc)
    leaves = tree.leaves_sorted()
    derefine = [leaves[s % len(leaves)] for s in derefine_seeds]
    tree.apply_flags(refine=[], derefine=derefine)
    tree.check_valid()
