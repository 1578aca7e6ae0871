"""Tests for refinement tagging and the derefinement gap rule."""

import numpy as np
import pytest

from repro.mesh.block import FieldSpec
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.refinement import (
    AmrFlag,
    FirstDerivativeCriterion,
    RefinementPolicy,
    SecondDerivativeCriterion,
    SphericalWavefrontTagger,
)


def make_mesh(levels=3):
    geo = MeshGeometry(
        ndim=2,
        mesh_size=(32, 32, 1),
        block_size=(8, 8, 1),
        ng=2,
        num_levels=levels,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)])


class TestFirstDerivative:
    def test_flat_field_derefines(self):
        mesh = make_mesh()
        for blk in mesh.block_list:
            blk.fields["q"][...] = 1.0
        crit = FirstDerivativeCriterion("q")
        assert crit.tag(mesh.block_list[0], cycle=0) == AmrFlag.DEREFINE

    def test_steep_gradient_refines(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 1.0
        # Sharp jump in the middle of the block.
        blk.fields["q"][:, :, :, 6:] = 10.0
        crit = FirstDerivativeCriterion("q", refine_tol=0.3)
        assert crit.tag(blk, cycle=0) == AmrFlag.REFINE

    def test_moderate_gradient_keeps_level(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        x = blk.cell_centers(0)
        blk.fields["q"][...] = 10.0 + 0.7 * x[None, None, None, :]
        crit = FirstDerivativeCriterion("q", refine_tol=0.5, derefine_tol=1e-5)
        assert crit.tag(blk, cycle=0) == AmrFlag.SAME

    def test_indicator_scales_with_gradient(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        crit = FirstDerivativeCriterion("q")
        x = blk.cell_centers(0)
        blk.fields["q"][...] = 100.0 + 1.0 * x[None, None, None, :]
        weak = crit.indicator(blk)
        blk.fields["q"][...] = 100.0 + 50.0 * x[None, None, None, :]
        strong = crit.indicator(blk)
        assert strong > weak


class TestSecondDerivative:
    def test_flat_field_derefines(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 2.0
        crit = SecondDerivativeCriterion("q")
        assert crit.tag(blk, 0) == AmrFlag.DEREFINE

    def test_linear_ramp_has_no_curvature(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        x = blk.cell_centers(0)
        blk.fields["q"][...] = 1.0 + 20.0 * x[None, None, None, :]
        crit = SecondDerivativeCriterion("q")
        # A steep but linear ramp trips the first-derivative check but not
        # the curvature-based one.
        assert crit.indicator(blk) < 0.1
        first = FirstDerivativeCriterion("q", refine_tol=0.3)
        assert first.tag(blk, 0) == AmrFlag.REFINE

    def test_kink_refines(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 1.0
        blk.fields["q"][:, :, :, 6:] = 4.0  # step => strong curvature
        crit = SecondDerivativeCriterion("q", refine_tol=0.5)
        assert crit.tag(blk, 0) == AmrFlag.REFINE

    def test_hysteresis_band_keeps_level(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        x = blk.cell_centers(0)
        blk.fields["q"][...] = 1.0 + np.sin(2 * np.pi * x)[None, None, None, :]
        crit = SecondDerivativeCriterion("q", refine_tol=0.9, derefine_tol=1e-4)
        assert crit.tag(blk, 0) == AmrFlag.SAME


class TestWavefront:
    def test_block_on_shell_refines(self):
        mesh = make_mesh()
        tagger = SphericalWavefrontTagger(
            center=(0.5, 0.5, 0.0), r0=0.3, speed=0.0, width=0.05
        )
        # The block containing (0.8, 0.5) sits on the r=0.3 shell.
        on_shell = [
            b
            for b in mesh.block_list
            if b.bounds[0][0] <= 0.8 <= b.bounds[0][1]
            and b.bounds[1][0] <= 0.5 <= b.bounds[1][1]
        ][0]
        assert tagger.tag(on_shell, cycle=0) == AmrFlag.REFINE

    def test_far_block_derefines(self):
        mesh = make_mesh()
        tagger = SphericalWavefrontTagger(
            center=(0.0, 0.0, 0.0), r0=0.1, speed=0.0, width=0.02
        )
        far = mesh.block_list[-1]
        assert tagger.tag(far, cycle=0) == AmrFlag.DEREFINE

    def test_radius_advances_and_wraps(self):
        tagger = SphericalWavefrontTagger(r0=0.1, speed=0.05, r_max=0.3)
        assert tagger.radius(1) == pytest.approx(0.15)
        assert tagger.radius(4) == pytest.approx(0.1)  # wrapped

    def test_shell_moves_refinement_region(self):
        mesh = make_mesh()
        tagger = SphericalWavefrontTagger(
            center=(0.0, 0.0, 0.0), r0=0.2, speed=0.2, width=0.05, r_max=1.4
        )
        flags0 = [tagger.tag(b, 0) for b in mesh.block_list]
        flags3 = [tagger.tag(b, 3) for b in mesh.block_list]
        assert flags0 != flags3


class TestPolicy:
    def test_derefine_gap_blocks_young_blocks(self):
        mesh = make_mesh()
        for blk in mesh.block_list:
            blk.fields["q"][...] = 1.0
        policy = RefinementPolicy(
            FirstDerivativeCriterion("q"), derefine_gap=10
        )
        # Refine one block so there is something to derefine.
        mesh.remesh(refine=[mesh.block_list[0].lloc], derefine=[])
        for blk in mesh.block_list:
            blk.fields["q"][...] = 1.0
        report = policy.collect_flags(mesh, cycle=0)
        assert report.checked == mesh.num_blocks
        assert report.derefine == []  # all blocks too young

        report = policy.collect_flags(mesh, cycle=10)
        assert len(report.derefine) == 4  # the four level-1 children may merge

    def test_level0_blocks_never_derefine(self):
        mesh = make_mesh()
        for blk in mesh.block_list:
            blk.fields["q"][...] = 1.0
        policy = RefinementPolicy(
            FirstDerivativeCriterion("q"), derefine_gap=0
        )
        assert policy.collect_flags(mesh, cycle=100).derefine == []

    def test_refine_not_requested_beyond_max_level(self):
        mesh = make_mesh(levels=1)
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 1.0
        blk.fields["q"][:, :, :, 6:] = 100.0
        policy = RefinementPolicy(FirstDerivativeCriterion("q"))
        assert policy.collect_flags(mesh, cycle=0).refine == []

    def test_forget_stale_drops_dead_uids(self):
        mesh = make_mesh()
        for blk in mesh.block_list:
            blk.fields["q"][...] = 1.0
        policy = RefinementPolicy(FirstDerivativeCriterion("q"))
        policy.collect_flags(mesh, cycle=0)
        n_before = len(policy._birth_cycle)
        mesh.remesh(refine=[mesh.block_list[0].lloc], derefine=[])
        policy.forget_stale(mesh)
        # One block died, four were born but not yet noted.
        assert len(policy._birth_cycle) == n_before - 1
