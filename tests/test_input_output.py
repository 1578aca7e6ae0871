"""Tests for input decks, output writers, and restarts."""

import numpy as np
import pytest

from repro.driver.driver import ParthenonDriver
from repro.driver.execution import ExecutionConfig
from repro.driver.input import (
    InputError,
    load_input,
    params_from_input,
    parse_input,
    render_input,
)
from repro.driver.outputs import (
    load_restart,
    read_history,
    save_restart,
    write_history,
    write_mesh_structure,
)
from repro.driver.params import SimulationParams
from repro.solver.burgers import CONSERVED
from repro.solver.history import HistoryRow
from repro.solver.initial_conditions import gaussian_blob

DECK = """
# VIBE-style configuration
<parthenon/mesh>
nx1 = 64
nx2 = 64
nx3 = 64
numlevel = 3
derefine_count = 10

<parthenon/meshblock>
nx1 = 16

<parthenon/time>
cfl = 0.3

<burgers>
num_scalars = 4
recon = plm

<platform>
backend = gpu
num_gpus = 2
ranks_per_gpu = 6
mode = modeled
"""


class TestParse:
    def test_sections_and_types(self):
        s = parse_input(DECK)
        assert s["parthenon/mesh"]["nx1"] == 64
        assert s["parthenon/time"]["cfl"] == 0.3
        assert s["burgers"]["recon"] == "plm"

    def test_comments_stripped(self):
        s = parse_input("<a>\nx = 1  # note\n")
        assert s["a"]["x"] == 1

    def test_booleans(self):
        s = parse_input("<a>\nflag = true\noff = False\n")
        assert s["a"]["flag"] is True and s["a"]["off"] is False

    def test_key_before_section_rejected(self):
        with pytest.raises(InputError, match="before any"):
            parse_input("x = 1")

    def test_garbage_line_rejected(self):
        with pytest.raises(InputError, match="key = value"):
            parse_input("<a>\nnonsense\n")


class TestBuild:
    def test_full_deck(self):
        params, config = params_from_input(DECK)
        assert params.ndim == 3
        assert params.mesh_size == 64
        assert params.block_size == 16
        assert params.num_levels == 3
        assert params.num_scalars == 4
        assert params.reconstruction == "plm"
        assert params.cfl == 0.3
        assert config.backend == "gpu"
        assert config.total_ranks == 12

    def test_2d_detection(self):
        params, _ = params_from_input(
            "<parthenon/mesh>\nnx1 = 32\nnx2 = 32\nnx3 = 1\n"
            "<parthenon/meshblock>\nnx1 = 8\n<burgers>\nnum_scalars = 1\n"
        )
        assert params.ndim == 2

    def test_anisotropic_rejected(self):
        with pytest.raises(InputError, match="anisotropic"):
            params_from_input(
                "<parthenon/mesh>\nnx1 = 64\nnx2 = 32\nnx3 = 32\n"
            )

    def test_roundtrip_through_render(self):
        params, config = params_from_input(DECK)
        params2, config2 = params_from_input(render_input(params, config))
        assert params2 == params
        assert config2.total_ranks == config.total_ranks

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "deck.vibe"
        path.write_text(DECK)
        params, _ = load_input(path)
        assert params.mesh_size == 64


class TestHistoryIO:
    def test_roundtrip(self, tmp_path):
        rows = [
            HistoryRow(
                cycle=i,
                time=0.1 * i,
                scalar_totals=[1.0, 2.0],
                momentum_totals=[0.5],
                total_d=0.25,
                max_speed=0.9,
            )
            for i in range(3)
        ]
        path = tmp_path / "run.hst"
        write_history(path, rows)
        back = read_history(path)
        assert len(back) == 3
        assert back[1][0] == 1.0  # cycle
        assert back[1][2] == pytest.approx(1.0)  # total_q0

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_history(tmp_path / "x.hst", [])


class TestMeshStructure:
    def test_dump_lists_every_block(self, tmp_path):
        d = ParthenonDriver(
            SimulationParams(
                ndim=2, mesh_size=32, block_size=8, num_levels=2,
                num_scalars=1, reconstruction="plm",
            ),
            ExecutionConfig(mode="numeric"),
            initial_conditions=gaussian_blob,
        )
        d.run(2)
        path = tmp_path / "mesh.txt"
        write_mesh_structure(path, d.mesh)
        lines = [
            l for l in path.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(lines) == d.mesh.num_blocks


class TestRestart:
    def _driver(self):
        return ParthenonDriver(
            SimulationParams(
                ndim=2, mesh_size=32, block_size=8, num_levels=2,
                num_scalars=1, reconstruction="plm",
            ),
            ExecutionConfig(mode="numeric"),
            initial_conditions=gaussian_blob,
        )

    def test_roundtrip_preserves_everything(self, tmp_path):
        d = self._driver()
        d.run(3)
        path = tmp_path / "restart.npz"
        save_restart(path, d.mesh, cycle=d.cycle, time=d.time)
        mesh, cycle, time = load_restart(path)
        assert cycle == 3
        assert time == pytest.approx(d.time)
        assert mesh.num_blocks == d.mesh.num_blocks
        for a, b in zip(d.mesh.block_list, mesh.block_list):
            assert a.lloc == b.lloc
            assert a.rank == b.rank
            np.testing.assert_array_equal(a.fields[CONSERVED], b.fields[CONSERVED])

    def test_restarted_run_continues_identically(self, tmp_path):
        d = self._driver()
        d.run(2)
        path = tmp_path / "restart.npz"
        save_restart(path, d.mesh, cycle=d.cycle, time=d.time)
        # Continue the original.
        d.run(2)
        # Continue from the restart with a fresh driver wired to the
        # reloaded mesh.
        mesh, cycle, time = load_restart(path)
        d2 = self._driver()
        d2.mesh = mesh
        d2.time = time
        d2.cycle = cycle
        from repro.comm.bvals import BoundaryExchange
        from repro.comm.flux_correction import FluxCorrection

        d2.bx = BoundaryExchange(mesh, d2.mpi)
        d2.fc = FluxCorrection(mesh, d2.mpi)
        d2.fc.set_links(d2.bx.links)
        d2.run(2)
        assert d2.history[-1].scalar_totals[0] == pytest.approx(
            d.history[-1].scalar_totals[0], rel=1e-12
        )

    def test_model_mode_rejected(self, tmp_path):
        d = ParthenonDriver(
            SimulationParams(
                ndim=2, mesh_size=32, block_size=8, num_levels=2,
                num_scalars=1,
            ),
            ExecutionConfig(mode="modeled"),
        )
        with pytest.raises(ValueError, match="numeric"):
            save_restart(tmp_path / "x.npz", d.mesh)
