"""Neighbor topology: which leaves touch which, across refinement levels.

Rebuilt after every tree change — Parthenon's ``SetMeshBlockNeighbors`` /
``BuildTagMapAndBoundaryBuffers`` step (Section II-E).  The links drive both
the actual data exchange and the serial cost model (buffer-cache setup cost
scales with the number of neighbor pairs).

:func:`build_links` resolves every leaf × offset at once with sorted
integer keys (DESIGN §4.2); it is the production path.
The per-leaf walk (:func:`neighbors_of_block` over
:meth:`BlockTree.neighbor_leaves`) is the reference it must equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh
from repro.mesh.tree import neighbor_offsets

Offset = Tuple[int, int, int]


@dataclass(frozen=True)
class NeighborInfo:
    """One neighbor of a block, seen from the block's (receiver's) side.

    ``offset`` points from the block toward the neighbor; ``delta`` is
    ``neighbor.level - block.level`` ∈ {-1, 0, +1} under the 2:1 rule.
    """

    offset: Offset
    nloc: LogicalLocation
    delta: int

    @property
    def face_rank(self) -> int:
        """Number of nonzero offset components: 1 face, 2 edge, 3 corner."""
        return sum(1 for o in self.offset if o != 0)


def neighbors_of_block(mesh: Mesh, lloc: LogicalLocation) -> List[NeighborInfo]:
    """All neighbors of the leaf at ``lloc``, across every offset."""
    out: List[NeighborInfo] = []
    for offset in neighbor_offsets(mesh.ndim):
        for nloc, delta in mesh.tree.neighbor_leaves(lloc, offset):
            out.append(NeighborInfo(offset=offset, nloc=nloc, delta=delta))
    return out


def build_neighbor_table(
    mesh: Mesh,
) -> Dict[LogicalLocation, List[NeighborInfo]]:
    """Neighbor lists for every block in the mesh."""
    return {
        blk.lloc: neighbors_of_block(mesh, blk.lloc) for blk in mesh.block_list
    }


def count_neighbor_pairs(table: Dict[LogicalLocation, List[NeighborInfo]]) -> int:
    """Total directed neighbor links — the number of boundary buffers."""
    return sum(len(v) for v in table.values())


class NeighborLinks(NamedTuple):
    """Every directed neighbor link of a mesh, as flat parallel arrays.

    Link ``k``: block ``recv_gid[k]`` receives from block ``send_gid[k]``
    across ``neighbor_offsets(ndim)[offset_id[k]]`` (pointing from the
    receiver toward the sender).  ``delta[k]`` is the sender's level minus
    the receiver's: -1 coarser, 0 same, +1 finer.  Links are ordered by
    receiver gid, then offset, then the finer senders' child Z-order —
    exactly the order of :func:`build_neighbor_table`'s lists.
    """

    recv_gid: np.ndarray
    send_gid: np.ndarray
    offset_id: np.ndarray
    delta: np.ndarray


@lru_cache(maxsize=None)
def offset_table(ndim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, child_xyz, child_ok)`` for ``neighbor_offsets(ndim)``.

    ``offsets`` is ``(O, 3)``.  ``child_xyz[o]`` lists, in Z-order, the
    child positions (0/1 per axis) of a same-level neighbor across offset
    ``o`` that touch the receiver; faces have ``2**(ndim-1)`` of them, so
    shorter lists are padded and ``child_ok`` masks the padding.
    """
    offsets = neighbor_offsets(ndim)
    nfine = 1 << (ndim - 1)
    child_xyz = np.zeros((len(offsets), nfine, 3), dtype=np.int64)
    child_ok = np.zeros((len(offsets), nfine), dtype=bool)
    span = [(0, 1) if a < ndim else (0,) for a in range(3)]
    for i, off in enumerate(offsets):
        touching = [
            (c1, c2, c3)
            for c3, c2, c1 in itertools.product(span[2], span[1], span[0])
            if all(
                not (off[a] == -1 and c != 1) and not (off[a] == 1 and c != 0)
                for a, c in enumerate((c1, c2, c3))
            )
        ]
        child_xyz[i, : len(touching)] = touching
        child_ok[i, : len(touching)] = True
    return np.array(offsets, dtype=np.int64), child_xyz, child_ok


def build_links(mesh: Mesh) -> NeighborLinks:
    """All neighbor links of ``mesh``, resolved for every leaf at once.

    Each location gets one ``int64`` key (a per-level base plus its
    row-major index within the level); the leaf keys are sorted once and
    every candidate neighbor is one ``np.searchsorted`` probe: same level,
    then the parent (``>> 1``) for a coarser cover, then the touching
    children for a finer one.  Raises ``RuntimeError`` on a 2:1 violation,
    as :meth:`BlockTree.neighbor_leaves` does.
    """
    tree = mesh.tree
    ndim = tree.ndim
    offsets, child_xyz, child_ok = offset_table(ndim)
    nlev = tree.num_levels + 1  # one past the finest: finer probes land there
    dims = np.array([tree.blocks_per_dim(l) for l in range(nlev)], dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(dims.prod(axis=1))))
    loc = np.array(
        [(b.lloc.level, b.lloc.lx1, b.lloc.lx2, b.lloc.lx3) for b in mesh.block_list],
        dtype=np.int64,
    ).reshape(-1, 4)
    level, xyz = loc[:, 0], loc[:, 1:]

    def key(lev: np.ndarray, x: np.ndarray) -> np.ndarray:
        d = dims[lev]
        return base[lev] + (x[..., 2] * d[..., 1] + x[..., 1]) * d[..., 0] + x[..., 0]

    leaf_key = key(level, xyz)
    order = np.argsort(leaf_key)
    sorted_key = leaf_key[order]

    def lookup(k: np.ndarray) -> np.ndarray:
        """gid of the leaf with key ``k``, or -1."""
        pos = np.minimum(np.searchsorted(sorted_key, k), len(sorted_key) - 1)
        return np.where(sorted_key[pos] == k, order[pos], -1)

    nblocks, noff, nfine = len(level), len(offsets), child_xyz.shape[1]
    d = dims[level][:, None, :]
    nbr = xyz[:, None, :] + offsets[None, :, :]
    outside = (nbr < 0) | (nbr >= d)
    boundary = (outside & ~np.array(tree.periodic)).any(axis=2)
    nbr %= d
    lev = np.broadcast_to(level[:, None], boundary.shape)
    same = lookup(key(lev, nbr))
    coarse = np.where(lev > 0, lookup(key(np.maximum(lev - 1, 0), nbr >> 1)), -1)

    send = np.full((nblocks, noff, nfine), -1, dtype=np.int64)
    delta = np.ones((nblocks, noff, nfine), dtype=np.int64)
    first = np.where(boundary, -1, np.where(same >= 0, same, coarse))
    send[:, :, 0] = first
    delta[:, :, 0] = np.where(same >= 0, 0, -1)
    i, o = np.nonzero(~boundary & (first < 0))
    if len(i):
        kids = key(lev[i, o][:, None] + 1, 2 * nbr[i, o][:, None, :] + child_xyz[o])
        kid_gid = np.where(child_ok[o], lookup(kids), -1)
        bad = child_ok[o] & (kid_gid < 0)
        if bad.any():
            j = int(np.nonzero(bad.any(axis=1))[0][0])
            raise RuntimeError(
                f"2:1 violation: {mesh.block_list[i[j]].lloc} has no neighbor "
                f"leaf within one level across {tuple(offsets[o[j]].tolist())}"
            )
        send[i, o] = kid_gid
        delta[i, o, 0] = 1

    flat = np.flatnonzero(send.reshape(-1) >= 0)
    return NeighborLinks(
        recv_gid=flat // (noff * nfine),
        send_gid=send.reshape(-1)[flat],
        offset_id=(flat // nfine) % noff,
        delta=delta.reshape(-1)[flat],
    )


def neighbor_table_from_links(
    mesh: Mesh, links: NeighborLinks
) -> Dict[LogicalLocation, List[NeighborInfo]]:
    """The per-block :class:`NeighborInfo` lists that ``links`` encodes."""
    blocks = mesh.block_list
    offsets = neighbor_offsets(mesh.ndim)
    table: Dict[LogicalLocation, List[NeighborInfo]] = {b.lloc: [] for b in blocks}
    for r, s, o, d in zip(
        links.recv_gid.tolist(),
        links.send_gid.tolist(),
        links.offset_id.tolist(),
        links.delta.tolist(),
    ):
        table[blocks[r].lloc].append(
            NeighborInfo(offset=offsets[o], nloc=blocks[s].lloc, delta=d)
        )
    return table
