"""Shard planning and worker-side pack views.

Bitwise contract (the reason ``tests/test_shard_parity.py`` can demand
0-ULP agreement with the serial engine): the unit of shard work is not a
block but one *chunk* of the serial engine's own chunk grid.  The numpy
``calculate_fluxes`` processes blocks in runs of
``step = max(1, PACK_CHUNK_CELLS // interior_cells)`` — the only stage
whose floating-point result depends on how the block axis is batched
(BLAS reassociates within a GEMM batch).  Sharding along exactly those
chunk boundaries hands every worker whole serial chunks, so the GEMM
batch shapes — and therefore every rounding decision — are identical to
the serial sweep.  All other stages (divergence/update, FillDerived,
save-base and the timestep reduce) are elementwise or per-block and
bitwise-safe under *any* block split.

Units are assigned to shards by LPT (``mesh.loadbalance.partition_lpt``)
over per-unit costs, giving the makespan bound
``max_load <= mean_load + max_cost`` that the hypothesis suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.loadbalance import partition_lpt
from repro.solver.packed_kernels import PACK_CHUNK_CELLS

Unit = Tuple[int, int]


def compute_units(nblocks: int, interior_cells: int) -> List[Unit]:
    """The serial engine's chunk grid: ``[lo, hi)`` runs of the block axis."""
    if nblocks < 1:
        raise ValueError(f"need at least one block, got {nblocks}")
    step = max(1, PACK_CHUNK_CELLS // max(1, interior_cells))
    return [(lo, min(nblocks, lo + step)) for lo in range(0, nblocks, step)]


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic unit→shard assignment for one pack generation."""

    num_shards: int
    units: Tuple[Unit, ...]
    assignments: Tuple[int, ...]  # unit index -> shard id

    @property
    def units_by_shard(self) -> List[List[Unit]]:
        out: List[List[Unit]] = [[] for _ in range(self.num_shards)]
        for unit, shard in zip(self.units, self.assignments):
            out[shard].append(unit)
        return out

    def shard_blocks(self) -> List[int]:
        counts = [0] * self.num_shards
        for (lo, hi), shard in zip(self.units, self.assignments):
            counts[shard] += hi - lo
        return counts

    def shard_costs(self, costs: Sequence[float]) -> List[float]:
        loads = [0.0] * self.num_shards
        for (lo, hi), shard in zip(self.units, self.assignments):
            loads[shard] += float(sum(costs[lo:hi]))
        return loads


def plan_shards(
    costs: Sequence[float], interior_cells: int, num_shards: int
) -> ShardPlan:
    """Partition the chunk grid over ``costs`` (one entry per block)."""
    units = compute_units(len(costs), interior_cells)
    unit_costs = [float(sum(costs[lo:hi])) for lo, hi in units]
    assignments = partition_lpt(unit_costs, num_shards)
    return ShardPlan(
        num_shards=num_shards,
        units=tuple(units),
        assignments=tuple(assignments),
    )


class _BlockStub:
    """The slice of MeshBlock the pack kernels actually touch."""

    __slots__ = ("shape", "ndim", "interior_cells")

    def __init__(self, shape) -> None:
        self.shape = shape
        self.ndim = shape.ndim
        self.interior_cells = shape.interior_cells


class ShardPack:
    """A kernels-facing view of one unit's slab of the shared pack.

    Implements exactly the :class:`repro.solver.packs.MeshBlockPack`
    surface the packed kernels consume — ``field``/``flux_data``/
    ``dx_array``/``component_slice``/``blocks`` — over ``[lo, hi)`` of
    the shared arrays, so the packed kernels run unmodified inside a
    worker process.
    """

    def __init__(
        self,
        data: np.ndarray,
        flux_axes: Sequence[Optional[np.ndarray]],
        flux_field: str,
        slices: Dict[str, slice],
        shape,
        dx_table: Sequence[Optional[np.ndarray]],
        lo: int,
        hi: int,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.data = data[lo:hi]
        self.flux_data: Dict[str, List[Optional[np.ndarray]]] = {
            flux_field: [
                None if arr is None else arr[lo:hi] for arr in flux_axes
            ]
        }
        self._slices = dict(slices)
        stub = _BlockStub(shape)
        self.blocks = [stub] * (hi - lo)
        self._dx = [
            None if row is None else row[lo:hi] for row in dx_table
        ]

    def __len__(self) -> int:
        return self.hi - self.lo

    def field(self, name: str) -> np.ndarray:
        return self.data[:, self._slices[name]]

    def component_slice(self, name: str) -> slice:
        return self._slices[name]

    def _require_contiguous(self) -> np.ndarray:
        return self.data

    def dx_array(self, axis: int) -> np.ndarray:
        row = self._dx[axis]
        if row is None:
            raise ValueError(f"no dx table for inactive axis {axis}")
        return row
