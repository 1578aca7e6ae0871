"""Shard executor protocol suite, driven in-process (DESIGN §12).

``transport="thread"`` runs the *same* ``_worker_loop`` the forked
workers execute, but inside this process — so the init/rebuild/stage/
shutdown state machine, the shared-memory attach path, and every
structured-error branch are visible to coverage (subprocess bodies are
not) and testable without fork.  The end-to-end process-transport
behavior is pinned by ``tests/test_shard_parity.py`` and the
``shard_worker`` rows of ``tests/test_fault_matrix.py``.
"""

import numpy as np
import pytest

from repro.comm.bvals import BoundaryExchange
from repro.comm.mpi import SimMPI
from repro.driver.params import SimulationParams
from repro.mesh.mesh import Mesh
from repro.parallel import ShardError, ShardedPackKernels
from repro.parallel.shm import create_slab
from repro.solver.burgers import BASE, BurgersPackage, CONSERVED, DERIVED
from repro.solver.initial_conditions import gaussian_blob
from repro.solver.packed_kernels import PackedBurgersKernels
from repro.solver.packs import build_numeric_pack


def _setup():
    """A ghost-filled numeric mesh; call twice for bitwise twins."""
    params = SimulationParams(
        ndim=3, mesh_size=16, block_size=8, num_levels=1, num_scalars=1
    )
    pkg = BurgersPackage(params.ndim, params.burgers_config())
    mesh = Mesh(params.geometry(), pkg.field_specs(), allocate=True)
    gaussian_blob(mesh, pkg, amplitude=0.8, width=0.15)
    BoundaryExchange(mesh, SimMPI(1)).exchange([CONSERVED])
    return params, pkg, mesh


def _build_pack(mesh, allocator=None):
    return build_numeric_pack(
        mesh, (CONSERVED, BASE, DERIVED), flux_field=CONSERVED,
        allocator=allocator,
    )


@pytest.fixture
def bound_executor():
    params, pkg, mesh = _setup()
    executor = ShardedPackKernels(params, num_shards=2, transport="thread")
    pack = _build_pack(mesh, allocator=executor.allocator)
    executor.rebind(pack)
    yield executor, pack, mesh
    executor.shutdown()


class TestThreadTransportStages:
    def test_all_stages_bitwise_vs_serial(self, bound_executor):
        executor, pack, mesh = bound_executor
        s_params, s_pkg, s_mesh = _setup()
        serial = PackedBurgersKernels(s_pkg)
        s_pack = _build_pack(s_mesh)

        executor.save_base(pack)
        serial.save_base(s_pack)
        executor.calculate_fluxes(pack)
        serial.calculate_fluxes(s_pack)
        executor.flux_divergence_and_update(pack, 1.0, 0.0, 0.05)
        serial.flux_divergence_and_update(s_pack, 1.0, 0.0, 0.05)
        executor.fill_derived(pack)
        serial.fill_derived(s_pack)
        assert np.array_equal(pack.data, s_pack.data), (
            "thread-transport shard stages deviate from serial at some ULP"
        )
        dt = executor.estimate_timestep(pack)
        assert np.array_equal(dt, serial.estimate_timestep(s_pack)), (
            "assembled per-block dt deviates from the serial reduce input"
        )

    def test_summary_topology_and_timings(self, bound_executor):
        executor, pack, _mesh = bound_executor
        executor.save_base(pack)
        doc = executor.summary()
        assert doc["transport"] == "thread"
        topo = doc["topology"]
        assert topo["num_shards"] == 2
        assert topo["generation"] == 1
        assert sum(topo["blocks"]) == len(pack.blocks)
        assert any(
            "save_base" in per for per in doc["stage_seconds"].values()
        )
        executor.reset_timings()
        assert all(
            per == {} for per in executor.summary()["stage_seconds"].values()
        )

    def test_rebind_bumps_generation_and_retires_old_segments(
        self, bound_executor
    ):
        executor, _pack, mesh = bound_executor
        first_gen = list(executor._current)
        pack2 = _build_pack(mesh, allocator=executor.allocator)
        executor.rebind(pack2)
        assert executor.generation == 2
        assert executor.summary()["topology"]["generation"] == 2
        assert all(s not in executor._live for s in first_gen)
        # The new generation still computes: full stage round-trip.
        executor.save_base(pack2)


class TestStructuredErrors:
    def test_worker_exception_surfaces_with_traceback(self, bound_executor):
        executor, pack, _mesh = bound_executor
        with pytest.raises(ShardError) as excinfo:
            executor._dispatch("no_such_stage", pack)
        assert excinfo.value.shard >= 0
        assert excinfo.value.stage == "no_such_stage"
        assert "AttributeError" in str(excinfo.value)

    def test_unknown_message_kind_is_a_worker_error(self, bound_executor):
        executor, _pack, _mesh = bound_executor
        workers = executor._ensure_workers()
        workers[0].send(("bogus",))
        with pytest.raises(ShardError, match="unknown shard message"):
            executor._collect_from([workers[0]], "bogus")

    def test_barrier_timeout_is_a_shard_error(self, bound_executor):
        executor, _pack, _mesh = bound_executor
        executor.stage_timeout_s = 0.05
        workers = executor._ensure_workers()
        # No message was sent, so no ack can ever arrive.
        with pytest.raises(ShardError, match="timed out") as excinfo:
            executor._collect_from(workers, "phantom")
        assert excinfo.value.stage == "phantom"

    def test_dispatch_requires_the_bound_pack(self, bound_executor):
        executor, _pack, mesh = bound_executor
        stranger = _build_pack(mesh)
        with pytest.raises(RuntimeError, match="rebind"):
            executor.calculate_fluxes(stranger)

    def test_rebind_rejects_foreign_storage(self, bound_executor):
        executor, _pack, mesh = bound_executor
        foreign = _build_pack(mesh)  # heap-allocated, not via executor.allocator
        with pytest.raises(RuntimeError, match="allocator"):
            executor.rebind(foreign)


class TestLifecycle:
    def test_constructor_validation(self):
        params = SimulationParams(ndim=2, mesh_size=16, block_size=8)
        with pytest.raises(ValueError, match="num_shards"):
            ShardedPackKernels(params, num_shards=0)
        with pytest.raises(ValueError, match="transport"):
            ShardedPackKernels(params, 2, transport="carrier-pigeon")

    def test_shutdown_is_idempotent_and_final(self, bound_executor):
        executor, pack, _mesh = bound_executor
        executor.shutdown()
        executor.shutdown()
        assert executor._live == [] and executor._current == []
        # Shutdown unbinds the pack and refuses to restart workers.
        with pytest.raises(RuntimeError, match="rebind"):
            executor.save_base(pack)
        with pytest.raises(ShardError, match="shut down"):
            executor._ensure_workers()

    def test_slab_unlink_is_idempotent(self):
        slab = create_slab((4, 4))
        slab.array[:] = 7.0
        slab.unlink()
        slab.unlink()  # second unlink of the same name must be swallowed
        assert slab.close()
