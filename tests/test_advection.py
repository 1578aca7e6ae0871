"""Tests for the advection package — the second framework client."""

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.solver.advection import (
    ADVECTED,
    AdvectionConfig,
    AdvectionPackage,
    advance_advection_rk2,
)


def make_setup(ndim=1, mesh=64, block=16, levels=1, velocity=(1.0, 0.0, 0.0),
               recon="weno5", refine=()):
    config = AdvectionConfig(velocity=velocity, ncomp=1, reconstruction=recon)
    pkg = AdvectionPackage(ndim, config)
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(mesh if a < ndim else 1 for a in range(3)),
        block_size=tuple(block if a < ndim else 1 for a in range(3)),
        ng=config.required_ghosts(),
        num_levels=levels,
    )
    m = Mesh(geo, field_specs=pkg.field_specs())
    for loc in refine:
        m.remesh(refine=[loc], derefine=[])
    mpi = SimMPI(1)
    bx = BoundaryExchange(m, mpi)
    fc = FluxCorrection(m, mpi)
    fc.set_links(bx.links)
    return m, pkg, bx, fc


def fill_sine(mesh):
    for blk in mesh.block_list:
        x = blk.cell_centers(0)
        blk.fields[ADVECTED][...] = 0.0
        blk.fields[ADVECTED][0] = (
            2.0 + np.sin(2 * np.pi * x)[None, None, :]
        ) * np.ones_like(blk.fields[ADVECTED][0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdvectionPackage(1, AdvectionConfig(reconstruction="ppm"))
        with pytest.raises(ValueError):
            AdvectionPackage(1, AdvectionConfig(ncomp=0))

    def test_registry_flags(self):
        from repro.solver.state import Metadata

        pkg = AdvectionPackage(2)
        assert pkg.registry.get_by_flag(Metadata.FILL_GHOST) == [ADVECTED]


class TestAccuracy:
    def test_exact_translation(self):
        m, pkg, bx, fc = make_setup()
        fill_sine(m)
        v, t, dt = 1.0, 0.0, 0.25 / 64
        for _ in range(32):
            advance_advection_rk2(m, pkg, bx, dt, fc)
            t += dt
        err = 0.0
        for blk in m.block_list:
            x = blk.cell_centers(0, include_ghosts=False)
            exact = 2.0 + np.sin(2 * np.pi * (x - v * t))
            got = blk.fields[ADVECTED][0][
                blk.shape.interior_slices()
            ][0, 0]
            err = max(err, float(np.max(np.abs(got - exact))))
        assert err < 1e-3

    def test_negative_velocity_upwinds_correctly(self):
        m, pkg, bx, fc = make_setup(velocity=(-1.0, 0.0, 0.0))
        fill_sine(m)
        t, dt = 0.0, 0.25 / 64
        for _ in range(16):
            advance_advection_rk2(m, pkg, bx, dt, fc)
            t += dt
        for blk in m.block_list:
            x = blk.cell_centers(0, include_ghosts=False)
            exact = 2.0 + np.sin(2 * np.pi * (x + t))
            got = blk.fields[ADVECTED][0][blk.shape.interior_slices()][0, 0]
            np.testing.assert_allclose(got, exact, atol=2e-3)

    def test_conservation_on_amr_mesh(self):
        m, pkg, bx, fc = make_setup(
            ndim=2, mesh=32, block=8, levels=2, recon="plm",
            velocity=(0.7, 0.3, 0.0),
            refine=[LogicalLocation(0, 1, 1, 0)],
        )
        rng = np.random.default_rng(2)
        total = 0.0
        for blk in m.block_list:
            interior = blk.fields[ADVECTED][
                (slice(None),) + blk.shape.interior_slices()
            ]
            interior[...] = 1.0 + rng.random(interior.shape)
            total += interior.sum() * blk.cell_volume
        for _ in range(5):
            advance_advection_rk2(m, pkg, bx, 1e-2, fc)
        after = sum(
            blk.fields[ADVECTED][
                (slice(None),) + blk.shape.interior_slices()
            ].sum()
            * blk.cell_volume
            for blk in m.block_list
        )
        assert after == pytest.approx(total, abs=1e-12)

    def test_cfl_timestep(self):
        m, pkg, _, _ = make_setup(velocity=(2.0, 0.0, 0.0))
        dt = pkg.estimate_timestep(m.block_list[0])
        assert dt == pytest.approx(0.4 * (1.0 / 64) / 2.0)
