"""Ghost-cell communication substrate.

Implements Parthenon's four-phase boundary exchange (Section II-D):
``StartReceiveBoundBufs`` → ``SendBoundBufs`` (with restriction before send)
→ ``ReceiveBoundBufs`` → ``SetBounds`` (with prolongation on receive), plus
flux correction at fine–coarse faces (Section II-C) and a simulated MPI layer
that records every message, collective, and buffer registration for the
platform cost models.
"""

from repro.comm.topology import (
    NeighborInfo,
    NeighborLinks,
    build_links,
    build_neighbor_table,
    neighbors_of_block,
)
from repro.comm.mpi import SimMPI
from repro.comm.bvals import BoundaryExchange, ExchangeStats
from repro.comm.flux_correction import FluxCorrection

__all__ = [
    "NeighborInfo",
    "NeighborLinks",
    "build_links",
    "neighbors_of_block",
    "build_neighbor_table",
    "SimMPI",
    "BoundaryExchange",
    "ExchangeStats",
    "FluxCorrection",
]
