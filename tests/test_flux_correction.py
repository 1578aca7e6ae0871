"""Tests for fine→coarse flux correction."""

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection, restrict_face
from repro.comm.mpi import SimMPI
from repro.mesh.block import FieldSpec
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry


def make_refined_mesh(ndim=2, allocate=True):
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(32 if a < ndim else 1 for a in range(3)),
        block_size=tuple(8 if a < ndim else 1 for a in range(3)),
        ng=2,
        num_levels=2,
    )
    mesh = Mesh(geo, field_specs=[FieldSpec("u", 2)], allocate=allocate)
    mesh.remesh(refine=[LogicalLocation(0, 1, 1, 0) if ndim >= 2 else LogicalLocation(0, 1, 0, 0)], derefine=[])
    if allocate:
        for blk in mesh.block_list:
            blk.allocate_fluxes("u")
    return mesh


class TestRestrictFace:
    def test_2d_pairs_averaged(self):
        slab = np.arange(8.0).reshape(1, 1, 8, 1)  # x-normal face in 2D
        out = restrict_face(slab, ndim=2, normal_axis=0)
        assert out.shape == (1, 1, 4, 1)
        assert np.allclose(out[0, 0, :, 0], [0.5, 2.5, 4.5, 6.5])

    def test_3d_quads_averaged(self):
        slab = np.ones((2, 4, 4, 1))
        out = restrict_face(slab, ndim=3, normal_axis=0)
        assert out.shape == (2, 2, 2, 1)
        assert np.allclose(out, 1.0)

    def test_1d_face_is_identity(self):
        slab = np.array([3.0]).reshape(1, 1, 1, 1)
        out = restrict_face(slab, ndim=1, normal_axis=0)
        assert out[0, 0, 0, 0] == 3.0

    def test_rejects_odd_tangential(self):
        with pytest.raises(ValueError):
            restrict_face(np.ones((1, 1, 5, 1)), ndim=2, normal_axis=0)


class TestFluxCorrection:
    def _setup(self):
        mesh = make_refined_mesh()
        mpi = SimMPI(1)
        bx = BoundaryExchange(mesh, mpi)
        fc = FluxCorrection(mesh, mpi)
        fc.set_links(bx.links)
        return mesh, mpi, fc

    def test_coarse_face_replaced_by_fine_average(self):
        mesh, _, fc = self._setup()
        # Coarse block to the left of the refined region.
        coarse = mesh.block_at(LogicalLocation(0, 0, 1, 0))
        fine = mesh.block_at(LogicalLocation(1, 2, 2, 0))
        for blk in mesh.block_list:
            for arr in blk.fluxes["u"]:
                if arr is not None:
                    arr[...] = -99.0
        # Fine block's left face fluxes: tangential ramp 0..7.
        fine.fluxes["u"][0][:, :, :, 0] = np.arange(8.0)[None, None, :]
        fc.correct(["u"])
        # Coarse +x face, lower tangential half (fine block has lx2 even).
        got = coarse.fluxes["u"][0][0, 0, 0:4, 8]
        assert np.allclose(got, [0.5, 2.5, 4.5, 6.5])
        # The other half must be untouched.
        assert np.all(coarse.fluxes["u"][0][0, 0, 4:, 8] == -99.0)

    def test_correction_count_2d(self):
        mesh, _, fc = self._setup()
        stats = fc.correct(["u"])
        # The refined block has 4 faces, each seen by one coarse neighbor
        # with 2 fine blocks per face -> 8 corrections.
        assert stats.corrections == 8
        assert stats.cells_communicated == 8 * 4

    def test_only_faces_participate(self):
        mesh, _, fc = self._setup()
        stats = fc.correct(["u"])
        # cells per correction = nx/2 (2D face), never corner-sized.
        assert stats.cells_communicated % (8 // 2) == 0

    def test_model_mode_counts_without_arrays(self):
        mesh = make_refined_mesh(allocate=False)
        mpi = SimMPI(2)
        bx = BoundaryExchange(mesh, mpi)
        fc = FluxCorrection(mesh, mpi)
        fc.set_links(bx.links)
        stats = fc.correct(["u"])
        assert stats.corrections == 8
        assert stats.messages_remote + stats.messages_local == 8

    def test_traffic_recorded_in_mpi(self):
        mesh, mpi, fc = self._setup()
        fc.correct(["u"])
        assert mpi.cycle.local_copies >= 8
