"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.flux_correction import FluxCorrection
from repro.comm.mpi import SimMPI
from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.mesh.loadbalance import balance
from repro.solver.advance import advance_rk2, estimate_dt
from repro.solver.burgers import CONSERVED
from repro.solver.initial_conditions import gaussian_blob


def numeric_driver(**kw):
    defaults = dict(
        ndim=2,
        mesh_size=32,
        block_size=8,
        num_levels=2,
        num_scalars=1,
        reconstruction="plm",
    )
    defaults.update(kw)
    params = SimulationParams(**defaults)
    config = ExecutionConfig(
        backend="gpu", num_gpus=1, ranks_per_gpu=1, mode="numeric"
    )
    return ParthenonDriver(params, config, initial_conditions=gaussian_blob)


class TestNumericEndToEnd:
    def test_conservation_through_remeshing(self):
        """Refinement + derefinement mid-run must not break conservation."""
        d = numeric_driver(derefine_gap=2)
        d.run(6)
        totals = [h.scalar_totals[0] for h in d.history]
        assert max(totals) - min(totals) < 1e-10
        d.mesh.tree.check_valid()

    def test_block_count_tracks_the_pulse(self):
        d = numeric_driver()
        counts = []
        for _ in range(5):
            d.do_cycle()
            counts.append(d.mesh.num_blocks)
        assert max(counts) > counts[0] or counts[0] > 16

    def test_multirank_numeric_matches_single_rank(self):
        """Rank count changes cost accounting, never physics."""
        a = numeric_driver()
        a.run(4)
        params = a.params
        b = ParthenonDriver(
            params,
            ExecutionConfig(
                backend="gpu", num_gpus=1, ranks_per_gpu=4, mode="numeric"
            ),
            initial_conditions=gaussian_blob,
        )
        b.run(4)
        for ha, hb in zip(a.history, b.history):
            assert ha.scalar_totals[0] == pytest.approx(
                hb.scalar_totals[0], rel=1e-12
            )
            assert ha.total_d == pytest.approx(hb.total_d, rel=1e-12)

    def test_cpu_backend_numeric_matches_gpu_backend(self):
        a = numeric_driver()
        a.run(3)
        b = ParthenonDriver(
            a.params,
            ExecutionConfig(backend="cpu", cpu_ranks=4, mode="numeric"),
            initial_conditions=gaussian_blob,
        )
        b.run(3)
        assert a.history[-1].total_d == pytest.approx(
            b.history[-1].total_d, rel=1e-12
        )


class TestModeledConsistency:
    def test_comm_counts_scale_invariant_to_ranks(self):
        """Messages split local/remote differently, but cells don't change."""
        params = SimulationParams(
            ndim=2, mesh_size=64, block_size=16, num_levels=2,
            num_scalars=1,
        )
        results = {}
        for ranks in (1, 8):
            config = ExecutionConfig(
                backend="gpu", num_gpus=1, ranks_per_gpu=ranks
            )
            results[ranks] = ParthenonDriver(params, config).run(3)
        assert (
            results[1].cells_communicated == results[8].cells_communicated
        )
        assert results[8].remote_messages > results[1].remote_messages == 0

    def test_zone_cycles_equal_cell_updates(self):
        params = SimulationParams(
            ndim=2, mesh_size=64, block_size=16, num_levels=2, num_scalars=1
        )
        r = ParthenonDriver(
            params, ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)
        ).run(3)
        assert r.zone_cycles == r.cell_updates

    def test_more_gpus_split_kernel_time(self):
        params = SimulationParams(
            ndim=3, mesh_size=64, block_size=16, num_levels=2
        )
        one = ParthenonDriver(
            params, ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=4)
        ).run(2)
        four = ParthenonDriver(
            params, ExecutionConfig(backend="gpu", num_gpus=4, ranks_per_gpu=1)
        ).run(2)
        assert four.kernel_seconds < one.kernel_seconds


class TestManualPipelineMatchesDriver:
    def test_advance_rk2_equals_driver_step(self):
        """The uninstrumented advance and the driver's Step produce the
        same state evolution (identical math, different bookkeeping)."""
        d = numeric_driver(num_levels=1)
        # Manual pipeline on an identical second setup.
        params = d.params
        from repro.mesh.mesh import Mesh
        from repro.solver.burgers import BurgersPackage

        pkg = BurgersPackage(params.ndim, params.burgers_config())
        mesh = Mesh(params.geometry(), pkg.field_specs())
        gaussian_blob(mesh, pkg)
        mpi = SimMPI(1)
        bx = BoundaryExchange(mesh, mpi)
        fc = FluxCorrection(mesh, mpi)
        fc.set_links(bx.links)

        dt = d._current_dt()
        d._step()
        advance_rk2(mesh, pkg, bx, dt, fc)
        a = d.mesh.block_list[3].interior(CONSERVED)
        b = mesh.block_list[3].interior(CONSERVED)
        np.testing.assert_allclose(a, b, atol=1e-13)


class TestFailureModes:
    def test_oom_halts_run_gracefully(self):
        params = SimulationParams(
            ndim=3, mesh_size=64, block_size=8, num_levels=3
        )
        config = ExecutionConfig(
            backend="gpu", num_gpus=1, ranks_per_gpu=32
        )
        d = ParthenonDriver(params, config)
        r = d.run(5)
        assert r.oom
        assert r.cycles < 5 or r.device_memory_peak > 0

    def test_oom_raises_when_asked(self):
        from repro.kokkos.memory import OutOfMemoryError

        params = SimulationParams(
            ndim=3, mesh_size=64, block_size=8, num_levels=3
        )
        config = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=32)
        with pytest.raises(OutOfMemoryError):
            d = ParthenonDriver(params, config, raise_on_oom=True)
            d.run(5)

    def test_load_balance_keeps_all_ranks_used(self):
        params = SimulationParams(
            ndim=2, mesh_size=64, block_size=8, num_levels=2, num_scalars=1
        )
        config = ExecutionConfig(backend="cpu", cpu_ranks=8)
        d = ParthenonDriver(params, config)
        d.run(3)
        ranks_used = {b.rank for b in d.mesh.block_list}
        assert ranks_used == set(range(8))
