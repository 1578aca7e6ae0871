"""Flux correction at fine–coarse faces (Section II-C).

At a shared face between refinement levels, the coarse block's flux is
replaced by the area-average of the fine neighbor's face fluxes.  Without
this, the aggregate of fine fluxes does not match the coarse flux, producing
artificial gains/losses of conserved quantities.  The data moves through the
same inter-block communication machinery as ghost exchange but applies only
to flux fields — so the cost model charges it like a (smaller) exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.comm.mpi import SimMPI
from repro.comm.topology import NeighborLinks, offset_table
from repro.mesh.mesh import Mesh


def restrict_face(slab: np.ndarray, ndim: int, normal_axis: int) -> np.ndarray:
    """Average a fine face-flux slab down 2x along tangential dimensions.

    ``slab`` has shape ``(ncomp, n3, n2, n1)`` with extent 1 along the normal
    dimension.  Flux is a per-area density, so the coarse value is the plain
    mean of the ``2**(ndim-1)`` fine faces it covers.
    """
    out = slab
    for a in range(ndim):
        if a == normal_axis:
            continue
        axis = 3 - a
        shape = list(out.shape)
        if shape[axis] % 2 != 0:
            raise ValueError(
                f"tangential extent {shape[axis]} along dim {a} is odd"
            )
        shape[axis] //= 2
        shape.insert(axis + 1, 2)
        out = out.reshape(shape).mean(axis=axis + 1)
    return out


@dataclass
class FluxCorrectionStats:
    """Work/traffic from one flux-correction pass."""

    corrections: int = 0
    messages_remote: int = 0
    messages_local: int = 0
    cells_communicated: int = 0
    bytes_communicated: int = 0


class FluxCorrection:
    """Applies fine→coarse flux correction over a mesh.

    The neighbor links are shared with :class:`BoundaryExchange` (the caller
    passes ``bx.links`` in after each rebuild) so topology is computed once
    per remesh.  Only face links to a finer sender take part.
    """

    def __init__(self, mesh: Mesh, mpi: SimMPI, bytes_per_value: int = 8) -> None:
        self.mesh = mesh
        self.mpi = mpi
        self.bytes_per_value = bytes_per_value
        self.set_links(NeighborLinks(*(np.zeros(0, np.int64),) * 4))

    def set_links(self, links: NeighborLinks) -> None:
        """Keep the fine→coarse face links of ``links``, in link order."""
        normal = offset_table(self.mesh.ndim)[0][links.offset_id]
        keep = (np.abs(normal).sum(axis=1) == 1) & (links.delta == 1)
        self._coarse_gid = links.recv_gid[keep]
        self._fine_gid = links.send_gid[keep]
        self._axis = np.argmax(normal[keep] != 0, axis=1)
        self._side = normal[keep].sum(axis=1)

    def correct(self, field_names: Sequence[str]) -> FluxCorrectionStats:
        """Overwrite coarse face fluxes with restricted fine fluxes."""
        ndim = self.mesh.ndim
        nx = self.mesh.geometry.block_size
        ncomp_by_name = {s.name: s.ncomp for s in self.mesh.field_specs}
        ncomp = sum(ncomp_by_name[name] for name in field_names)
        # A face message carries the coarse half-extent of every tangential
        # axis: the product of the halved sizes, over the normal axis's.
        half = np.array([nx[t] // 2 if t < ndim else 1 for t in range(3)])
        cells = half.prod() // half[self._axis]
        nbytes = cells * ncomp * self.bytes_per_value
        blocks = self.mesh.block_list
        if self.mesh.allocate:
            for c, f, a, o in zip(
                self._coarse_gid.tolist(),
                self._fine_gid.tolist(),
                self._axis.tolist(),
                self._side.tolist(),
            ):
                self._apply(blocks[c], blocks[f], a, o, field_names, ndim, nx)
        rank = np.array([b.rank for b in blocks], dtype=np.int64)
        src, dst = rank[self._fine_gid], rank[self._coarse_gid]
        nranks = self.mpi.nranks
        pair = src * nranks + dst
        count = np.bincount(pair, minlength=nranks * nranks)
        pair_bytes = np.bincount(pair, weights=nbytes, minlength=nranks * nranks)
        for p in np.flatnonzero(count).tolist():
            self.mpi.send_bulk(
                p // nranks, p % nranks, int(count[p]), int(pair_bytes[p])
            )
        local = int(np.count_nonzero(src == dst))
        return FluxCorrectionStats(
            corrections=len(src),
            messages_remote=len(src) - local,
            messages_local=local,
            cells_communicated=int(cells.sum()),
            bytes_communicated=int(nbytes.sum()),
        )

    def _apply(
        self,
        coarse_blk,
        fine_blk,
        axis: int,
        o: int,
        field_names: Sequence[str],
        ndim: int,
        nx: Tuple[int, int, int],
    ) -> None:
        for name in field_names:
            cflux = coarse_blk.fluxes[name][axis]
            fflux = fine_blk.fluxes[name][axis]
            # Fine block's shared face is on its side facing the coarse block.
            fine_face = nx[axis] if o == -1 else 0
            coarse_face = 0 if o == -1 else nx[axis]
            fsl = [slice(None)] * 4
            fsl[3 - axis] = slice(fine_face, fine_face + 1)
            slab = restrict_face(fflux[tuple(fsl)], ndim, axis)
            csl = [slice(None)] * 4
            csl[3 - axis] = slice(coarse_face, coarse_face + 1)
            for t in range(ndim):
                if t == axis:
                    continue
                fi = fine_blk.lloc.coord(t) & 1
                half = nx[t] // 2
                csl[3 - t] = slice(fi * half, (fi + 1) * half)
            cflux[tuple(csl)] = slab
        return None
