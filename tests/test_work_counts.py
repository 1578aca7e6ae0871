"""Exact interpreter work counts: performance pins no host noise can flake.

``sys.setprofile`` sees every Python-level call and every call into C
(``call`` + ``c_call`` events).  For a fixed input that count is the same
in every process on every machine, so tier-1 can pin it where a
wall-clock threshold would flake.
"""

import sys

from repro.comm.bvals import BoundaryExchange
from repro.comm.mpi import SimMPI
from repro.mesh.block import FieldSpec
from repro.mesh.loadbalance import balance
from repro.mesh.mesh import Mesh, MeshGeometry

#: Budget for one modeled topology rebuild, in calls per block.  The
#: per-leaf walk this replaced made 509 calls per block.
CALLS_PER_BLOCK_REBUILD = 10
RANKS = 12


def count_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def modeled_exchange(mesh_size) -> BoundaryExchange:
    """``examples/vibe_128.in``'s initial mesh (block 16, 3 levels, 8
    scalars + 3 velocities on 12 ranks), at ``mesh_size`` cells."""
    geo = MeshGeometry(
        ndim=3, mesh_size=mesh_size, block_size=(16, 16, 16), ng=4, num_levels=3
    )
    mesh = Mesh(geo, field_specs=[FieldSpec("u", 11)], allocate=False)
    balance(mesh, RANKS)
    return BoundaryExchange(mesh, SimMPI(RANKS))


def calls_per_block_rebuild(mesh_size) -> float:
    bx = modeled_exchange(mesh_size)  # the first rebuild warms lazy tables
    return count_calls(bx.rebuild) / bx.mesh.num_blocks


def test_calls_per_block_rebuild_within_budget():
    assert calls_per_block_rebuild((128, 128, 128)) < CALLS_PER_BLOCK_REBUILD


def test_calls_per_block_rebuild_flat_in_block_count():
    small = calls_per_block_rebuild((128, 128, 128))  # 512 blocks
    large = calls_per_block_rebuild((256, 128, 128))  # 1024 blocks
    assert large <= 1.1 * small


def test_counts_are_exact():
    bx = modeled_exchange((128, 128, 128))
    bx.rebuild()
    assert count_calls(bx.rebuild) == count_calls(bx.rebuild)
