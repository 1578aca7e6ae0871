"""Second physics package in action: an advected blob tracked by AMR.

Solves linear advection (exact solution: rigid translation) of a Gaussian
blob on a 2D AMR mesh, refining around the blob as it crosses the periodic
domain, and renders the field and the refinement map as ASCII art — watch
the fine blocks follow the blob.

Run:  python examples/advecting_blob.py
"""

import numpy as np

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.driver.visualize import render_field, render_levels
from repro.mesh.mesh import Mesh
from repro.mesh.refinement import RefinementPolicy, SecondDerivativeCriterion
from repro.solver.advection import (
    ADVECTED,
    AdvectionConfig,
    AdvectionPackage,
    advance_advection_rk2,
)
from repro.driver.params import SimulationParams


def fill_blob(mesh, center=(0.3, 0.5), width=0.08):
    for blk in mesh.block_list:
        x = blk.cell_centers(0)
        y = blk.cell_centers(1)
        r2 = (x[None, None, :] - center[0]) ** 2 + (
            y[None, :, None] - center[1]
        ) ** 2
        blk.fields[ADVECTED][...] = 0.0
        blk.fields[ADVECTED][0] = np.exp(-r2 / width**2)


def main() -> None:
    config = AdvectionConfig(
        velocity=(1.0, 0.25, 0.0), ncomp=1, reconstruction="plm"
    )
    pkg = AdvectionPackage(2, config)
    params = SimulationParams(
        ndim=2, mesh_size=64, block_size=8, num_levels=3,
        num_scalars=1, reconstruction="plm",
    )
    mesh = Mesh(params.geometry(), field_specs=pkg.field_specs())
    fill_blob(mesh)
    mpi = SimMPI(1)
    bx = BoundaryExchange(mesh, mpi)
    fc = FluxCorrection(mesh, mpi)
    fc.set_links(bx.links)
    policy = RefinementPolicy(
        SecondDerivativeCriterion(ADVECTED, refine_tol=0.7, derefine_tol=0.3),
        derefine_gap=3,
    )

    dt = 0.25 * (1.0 / 64)
    total0 = sum(
        blk.fields[ADVECTED][(slice(None),) + blk.shape.interior_slices()].sum()
        * blk.cell_volume
        for blk in mesh.block_list
    )
    for cycle in range(25):
        advance_advection_rk2(mesh, pkg, bx, dt, fc)
        report = policy.collect_flags(mesh, cycle)
        if report.refine or report.derefine:
            mesh.remesh(report.refine, report.derefine)
            bx.rebuild()
            fc.set_links(bx.links)
            policy.forget_stale(mesh)
        if cycle % 12 == 0 or cycle == 24:
            print(f"\n=== cycle {cycle + 1}: {mesh.num_blocks} blocks, "
                  f"levels {mesh.level_counts()} ===")
            print(render_field(mesh, ADVECTED, resolution=48, vmin=0, vmax=1))
            print()
            print(render_levels(mesh, resolution=48))
    total1 = sum(
        blk.fields[ADVECTED][(slice(None),) + blk.shape.interior_slices()].sum()
        * blk.cell_volume
        for blk in mesh.block_list
    )
    print(f"\nconservation drift over the run: {abs(total1 - total0):.3e}")


if __name__ == "__main__":
    main()
