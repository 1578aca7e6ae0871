"""Tests for the Burgers package: kernels, conservation, shock physics."""

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.solver.advance import advance_rk2, estimate_dt
from repro.solver.burgers import (
    CONSERVED,
    DERIVED,
    BurgersConfig,
    BurgersPackage,
)
from repro.solver.history import reduce_history
from repro.solver.initial_conditions import (
    constant_advection,
    gaussian_blob,
    shock_tube,
)


def make_setup(
    ndim=1,
    mesh=64,
    block=16,
    levels=1,
    periodic=True,
    config=None,
    refine=(),
):
    config = config or BurgersConfig(num_scalars=1, reconstruction="weno5")
    pkg = BurgersPackage(ndim, config)
    geo = MeshGeometry(
        ndim=ndim,
        mesh_size=tuple(mesh if a < ndim else 1 for a in range(3)),
        block_size=tuple(block if a < ndim else 1 for a in range(3)),
        ng=config.required_ghosts(),
        num_levels=levels,
        periodic=(periodic,) * 3,
    )
    m = Mesh(geo, field_specs=pkg.field_specs())
    for loc in refine:
        m.remesh(refine=[loc], derefine=[])
    mpi = SimMPI(1)
    bx = BoundaryExchange(m, mpi)
    fc = FluxCorrection(m, mpi)
    fc.set_links(bx.links)
    return m, pkg, bx, fc


class TestConfig:
    def test_ghost_requirements(self):
        assert BurgersConfig(reconstruction="weno5").required_ghosts() == 4
        assert BurgersConfig(reconstruction="plm").required_ghosts() == 2

    def test_rejects_unknown_schemes(self):
        with pytest.raises(ValueError):
            BurgersPackage(1, BurgersConfig(reconstruction="ppm"))
        with pytest.raises(ValueError):
            BurgersPackage(1, BurgersConfig(riemann="roe"))
        with pytest.raises(ValueError):
            BurgersPackage(1, BurgersConfig(num_scalars=0))

    def test_component_count(self):
        pkg = BurgersPackage(3, BurgersConfig(num_scalars=8))
        assert pkg.ncomp == 11


class TestKernels:
    def test_constant_state_has_zero_divergence(self):
        m, pkg, bx, _ = make_setup(ndim=2, mesh=32, block=8)
        for blk in m.block_list:
            blk.fields[CONSERVED][...] = 1.5
        bx.exchange([CONSERVED])
        for blk in m.block_list:
            pkg.calculate_fluxes(blk)
            dudt = pkg.flux_divergence(blk)
            np.testing.assert_allclose(dudt, 0.0, atol=1e-12)

    def test_fill_derived(self):
        m, pkg, _, _ = make_setup(ndim=2, mesh=32, block=8)
        blk = m.block_list[0]
        blk.fields[CONSERVED][0] = 2.0  # u1
        blk.fields[CONSERVED][1] = 1.0  # u2
        blk.fields[CONSERVED][2] = 3.0  # q0
        pkg.fill_derived(blk)
        # d = 0.5 * q0 * (u1^2 + u2^2) = 0.5 * 3 * 5.
        np.testing.assert_allclose(blk.interior(DERIVED), 7.5)

    def test_estimate_timestep_cfl(self):
        m, pkg, _, _ = make_setup(ndim=1, mesh=64, block=16)
        blk = m.block_list[0]
        blk.fields[CONSERVED][0] = 2.0
        dt = pkg.estimate_timestep(blk)
        assert dt == pytest.approx(0.4 * blk.dx(0) / 2.0)

    def test_estimate_timestep_zero_velocity_is_inf(self):
        m, pkg, _, _ = make_setup(ndim=1, mesh=64, block=16)
        blk = m.block_list[0]
        blk.fields[CONSERVED][...] = 0.0
        assert pkg.estimate_timestep(blk) == np.inf

    def test_first_derivative_indicator_responds(self):
        m, pkg, _, _ = make_setup(ndim=1, mesh=64, block=16)
        blk = m.block_list[0]
        blk.fields[CONSERVED][...] = 1.0
        flat = pkg.first_derivative_indicator(blk)
        blk.fields[CONSERVED][1][0, 0, 10:] = 5.0  # jump in q0
        steep = pkg.first_derivative_indicator(blk)
        assert steep > flat

    def test_flops_per_cell_positive(self):
        pkg = BurgersPackage(3, BurgersConfig(num_scalars=8))
        assert pkg.flops_per_cell_flux() > 1000


class TestConservation:
    def test_uniform_mesh_conserves_everything(self):
        m, pkg, bx, fc = make_setup(ndim=2, mesh=32, block=8, levels=1)
        gaussian_blob(m, pkg, center=(0.5, 0.5, 0.0), width=0.15)
        before = reduce_history(m, pkg, 0, 0.0)
        for _ in range(5):
            dt = min(estimate_dt(m, pkg), 1e-2)
            advance_rk2(m, pkg, bx, dt, fc)
        after = reduce_history(m, pkg, 5, 0.0)
        for b, a in zip(before.scalar_totals, after.scalar_totals):
            assert a == pytest.approx(b, abs=1e-12)
        for b, a in zip(before.momentum_totals, after.momentum_totals):
            assert a == pytest.approx(b, abs=1e-12)

    def test_amr_mesh_conserves_with_flux_correction(self):
        m, pkg, bx, fc = make_setup(
            ndim=2,
            mesh=32,
            block=8,
            levels=2,
            refine=[LogicalLocation(0, 1, 1, 0)],
        )
        gaussian_blob(m, pkg, center=(0.4, 0.4, 0.0), width=0.15)
        before = reduce_history(m, pkg, 0, 0.0)
        for _ in range(5):
            dt = min(estimate_dt(m, pkg), 1e-2)
            advance_rk2(m, pkg, bx, dt, fc)
        after = reduce_history(m, pkg, 5, 0.0)
        for b, a in zip(before.scalar_totals, after.scalar_totals):
            assert a == pytest.approx(b, abs=1e-11)

    def test_amr_mesh_leaks_without_flux_correction(self):
        m, pkg, bx, _ = make_setup(
            ndim=2,
            mesh=32,
            block=8,
            levels=2,
            refine=[LogicalLocation(0, 1, 1, 0)],
        )
        gaussian_blob(m, pkg, center=(0.4, 0.4, 0.0), width=0.15)
        before = reduce_history(m, pkg, 0, 0.0)
        for _ in range(5):
            dt = min(estimate_dt(m, pkg), 1e-2)
            advance_rk2(m, pkg, bx, dt, fc=None)
        after = reduce_history(m, pkg, 5, 0.0)
        drift = abs(after.scalar_totals[0] - before.scalar_totals[0])
        assert drift > 1e-9  # conservation error without the correction


class TestAccuracy:
    def test_constant_velocity_is_steady(self):
        m, pkg, bx, fc = make_setup(ndim=1, mesh=64, block=16)
        constant_advection(m, pkg, velocity=[0.7])
        u_before = m.block_list[0].interior(CONSERVED)[0].copy()
        for _ in range(4):
            advance_rk2(m, pkg, bx, 1e-3, fc)
        np.testing.assert_allclose(
            m.block_list[0].interior(CONSERVED)[0], u_before, atol=1e-12
        )

    def test_scalar_advection_matches_translation(self):
        m, pkg, bx, fc = make_setup(ndim=1, mesh=128, block=32)
        v = 1.0
        constant_advection(m, pkg, velocity=[v])
        t, dt, nsteps = 0.0, 0.5 / 128, 32
        for _ in range(nsteps):
            advance_rk2(m, pkg, bx, dt, fc)
            t += dt
        err = 0.0
        for blk in m.block_list:
            x = blk.cell_centers(0, include_ghosts=False)
            exact = 2.0 + np.sin(2 * np.pi * (x - v * t))
            got = blk.interior(CONSERVED)[1][0, 0]
            err = max(err, float(np.max(np.abs(got - exact))))
        assert err < 5e-4

    def test_advection_converges_with_resolution(self):
        errs = []
        for n in (32, 64):
            m, pkg, bx, fc = make_setup(ndim=1, mesh=n, block=16)
            v = 1.0
            constant_advection(m, pkg, velocity=[v])
            dt = 0.2 / n
            nsteps = n // 4
            for _ in range(nsteps):
                advance_rk2(m, pkg, bx, dt, fc)
            t = dt * nsteps
            err = 0.0
            for blk in m.block_list:
                x = blk.cell_centers(0, include_ghosts=False)
                exact = 2.0 + np.sin(2 * np.pi * (x - v * t))
                got = blk.interior(CONSERVED)[1][0, 0]
                err += float(np.sum(np.abs(got - exact))) / n
            errs.append(err)
        assert errs[1] < errs[0] / 4.0

    def test_shock_speed_matches_rankine_hugoniot(self):
        m, pkg, bx, fc = make_setup(
            ndim=1, mesh=256, block=32, periodic=False
        )
        shock_tube(m, pkg, u_left=1.0, u_right=0.0, interface=0.25)
        t = 0.0
        while t < 0.5:
            dt = min(estimate_dt(m, pkg), 0.5 - t)
            advance_rk2(m, pkg, bx, dt, fc)
            t += dt
        # Locate the shock: first cell where u drops below 0.5.
        xs, us = [], []
        for blk in m.block_list:
            xs.append(blk.cell_centers(0, include_ghosts=False))
            us.append(blk.interior(CONSERVED)[0][0, 0])
        x = np.concatenate(xs)
        u = np.concatenate(us)
        order = np.argsort(x)
        x, u = x[order], u[order]
        crossing = x[np.argmax(u < 0.5)]
        expected = 0.25 + 0.5 * t  # shock speed (uL + uR) / 2
        assert crossing == pytest.approx(expected, abs=3.0 / 256)

    def test_shock_on_refined_mesh_keeps_speed(self):
        m, pkg, bx, fc = make_setup(
            ndim=1,
            mesh=128,
            block=16,
            levels=2,
            periodic=False,
            refine=[LogicalLocation(0, 3, 0, 0), LogicalLocation(0, 4, 0, 0)],
        )
        shock_tube(m, pkg, u_left=1.0, u_right=0.0, interface=0.25)
        t = 0.0
        while t < 0.4:
            dt = min(estimate_dt(m, pkg), 0.4 - t)
            advance_rk2(m, pkg, bx, dt, fc)
            t += dt
        xs, us = [], []
        for blk in m.block_list:
            xs.append(blk.cell_centers(0, include_ghosts=False))
            us.append(blk.interior(CONSERVED)[0][0, 0])
        x = np.concatenate(xs)
        u = np.concatenate(us)
        order = np.argsort(x)
        x, u = x[order], u[order]
        crossing = x[np.argmax(u < 0.5)]
        assert crossing == pytest.approx(0.25 + 0.5 * t, abs=4.0 / 128)


class TestRegistry:
    def test_field_specs_cover_registry(self):
        pkg = BurgersPackage(2, BurgersConfig(num_scalars=3))
        names = [s.name for s in pkg.field_specs()]
        assert names == pkg.registry.names

    def test_exchange_fields_are_fill_ghost(self):
        from repro.solver.state import Metadata

        pkg = BurgersPackage(2)
        flagged = pkg.registry.get_by_flag(Metadata.FILL_GHOST)
        assert flagged == pkg.exchange_fields()
