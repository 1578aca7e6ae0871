"""Uninstrumented RK2 advance — the numerical core of the timestep ``Step``.

This is the plain-math version used by tests and small examples; the driver
in :mod:`repro.driver` runs the same sequence with Kokkos-style
instrumentation, MPI accounting, and per-function timing wrapped around each
stage (the decomposition of Fig. 3).

Parthenon's RK2 is the two-stage strong-stability-preserving scheme:
``U1 = U0 + dt L(U0)``; ``U^{n+1} = 1/2 U0 + 1/2 (U1 + dt L(U1))``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.mesh.mesh import Mesh
from repro.solver.burgers import (
    BASE,
    BurgersPackage,
    CONSERVED,
    DERIVED,
)
from repro.solver.packed_kernels import PackedBurgersKernels
from repro.solver.packs import MeshBlockPack, build_numeric_pack

#: Per-stage (gam0, gam1, beta) weights of Parthenon's rk2:
#: ``U <- gam0 * U + gam1 * U0 + beta * dt * L(U)``.
RK2_STAGES = ((0.0, 1.0, 1.0), (0.5, 0.5, 0.5))


def advance_rk2(
    mesh: Mesh,
    pkg: BurgersPackage,
    bx: BoundaryExchange,
    dt: float,
    fc: Optional[FluxCorrection] = None,
) -> None:
    """Advance the conserved state by one RK2 step.

    When ``fc`` is provided, fine→coarse flux correction runs between
    CalculateFluxes and FluxDivergence on every stage, keeping conserved
    totals exact across refinement boundaries.
    """
    for blk in mesh.block_list:
        pkg.save_base(blk)
    for gam0, gam1, beta in RK2_STAGES:
        bx.exchange([CONSERVED])
        for blk in mesh.block_list:
            pkg.calculate_fluxes(blk)
        if fc is not None:
            fc.correct([CONSERVED])
        for blk in mesh.block_list:
            dudt = pkg.flux_divergence(blk)
            pkg.weighted_sum(blk, dudt, gam0, gam1, beta * dt)
    for blk in mesh.block_list:
        pkg.fill_derived(blk)


def advance_rk2_packed(
    mesh: Mesh,
    pkg: BurgersPackage,
    bx: BoundaryExchange,
    dt: float,
    fc: Optional[FluxCorrection] = None,
    engine: Optional[PackedBurgersKernels] = None,
    pack: Optional[MeshBlockPack] = None,
) -> Tuple[MeshBlockPack, PackedBurgersKernels]:
    """:func:`advance_rk2` through the packed execution engine.

    Builds (or reuses) a contiguous whole-mesh pack whose views the blocks
    adopt, then runs each stage as whole-pack fused kernels.  Returns the
    ``(pack, engine)`` pair so steady-state callers can pass them back in and
    skip the rebuild; rebuild the pack (pass ``pack=None``) after any remesh.
    """
    if engine is None:
        engine = PackedBurgersKernels(pkg)
    if pack is None:
        pack = build_numeric_pack(
            mesh, (CONSERVED, BASE, DERIVED), flux_field=CONSERVED
        )
    engine.save_base(pack)
    for gam0, gam1, beta in RK2_STAGES:
        bx.exchange([CONSERVED])
        engine.calculate_fluxes(pack)
        if fc is not None:
            fc.correct([CONSERVED])
        engine.flux_divergence_and_update(pack, gam0, gam1, beta * dt)
    engine.fill_derived(pack)
    return pack, engine


def estimate_dt(mesh: Mesh, pkg: BurgersPackage) -> float:
    """Global CFL timestep: the minimum over all blocks."""
    return min(pkg.estimate_timestep(blk) for blk in mesh.block_list)


def estimate_dt_packed(
    pack: MeshBlockPack, engine: PackedBurgersKernels
) -> float:
    """Global CFL timestep from one fused whole-pack reduction."""
    return float(np.min(engine.estimate_timestep(pack)))
