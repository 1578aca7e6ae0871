"""The four-phase ghost-cell exchange (Section II-D of the paper).

Phases, matching Parthenon's function decomposition exactly (the driver
times each one separately to regenerate Figs. 11/12):

1. ``start_receive_bound_bufs`` — register the expected incoming messages.
2. ``send_bound_bufs`` — pack slabs (restricting fine→coarse data *before*
   sending, which shrinks those messages by 2**ndim), refresh the buffer
   cache, and post sends (remote) or local copies.
3. ``receive_bound_bufs`` — poll for arrivals (``MPI_Iprobe`` / ``MPI_Test``
   activity is recorded for the cost model).
4. ``set_bounds`` — unpack into fine ghost zones or into the per-block
   coarse buffers, restrict local fine data into the coarse buffers, then
   prolongate coarse-neighbor regions into the fine ghosts.

Index conventions: all ranges are half-open cell-index intervals in the
(x1, x2, x3) order of :class:`repro.mesh.block.IndexShape`; array slices are
built in (comp, x3, x2, x1) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.buffers import (
    BufferCache,
    BufferKey,
    CacheStats,
    GhostBufferPool,
)
from repro.comm.mpi import SimMPI
from repro.comm.topology import (
    NeighborInfo,
    NeighborLinks,
    build_links,
    neighbor_table_from_links,
)
from repro.mesh.block import MeshBlock
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh
from repro.mesh.prolongation import prolong
from repro.mesh.restriction import restrict
from repro.mesh.tree import neighbor_offsets

Offset = Tuple[int, int, int]
Range = Tuple[int, int]


def _slices(ranges: Sequence[Range]) -> Tuple[slice, ...]:
    """(comp, x3, x2, x1) slice tuple from (x1, x2, x3) cell ranges."""
    r1, r2, r3 = ranges
    return (
        slice(None),
        slice(r3[0], r3[1]),
        slice(r2[0], r2[1]),
        slice(r1[0], r1[1]),
    )


@dataclass(frozen=True)
class MessageSpec:
    """Geometry of one boundary message."""

    key: BufferKey
    delta: int
    send_ranges: Tuple[Range, Range, Range]
    recv_ranges: Tuple[Range, Range, Range]
    to_coarse: bool  # receiver places data in its coarse buffer
    restrict_before_send: bool

    @property
    def cells(self) -> int:
        """Cells transmitted (post-restriction) — the paper's comm metric."""
        out = 1
        for lo, hi in self.recv_ranges:
            out *= hi - lo
        return out


def message_spec(
    nx: Tuple[int, int, int],
    ng: int,
    ndim: int,
    nbr: NeighborInfo,
    receiver: LogicalLocation,
) -> MessageSpec:
    """Compute sender/receiver cell ranges for one neighbor message.

    ``nbr.offset`` points from the receiver toward the sender.  ``delta`` is
    the sender's level minus the receiver's.  The range geometry depends only
    on the offset, the level delta and the coordinate parities, so it is
    memoized — modeled runs rebuild hundreds of thousands of links per cycle.
    """
    send, recv, to_coarse, restrict_bs = _message_geometry(
        nx,
        ng,
        ndim,
        nbr.offset,
        nbr.delta,
        tuple(nbr.nloc.coord(a) & 1 for a in range(3)),
        tuple(receiver.coord(a) & 1 for a in range(3)),
    )
    return MessageSpec(
        key=BufferKey(sender=nbr.nloc, receiver=receiver, offset=nbr.offset),
        delta=nbr.delta,
        send_ranges=send,
        recv_ranges=recv,
        to_coarse=to_coarse,
        restrict_before_send=restrict_bs,
    )


@lru_cache(maxsize=65536)
def _message_geometry(
    nx: Tuple[int, int, int],
    ng: int,
    ndim: int,
    offset: Offset,
    delta: int,
    sender_parity: Tuple[int, int, int],
    receiver_parity: Tuple[int, int, int],
):
    hg = ng // 2
    send: List[Range] = []
    recv: List[Range] = []
    for a in range(3):
        if a >= ndim:
            send.append((0, 1))
            recv.append((0, 1))
            continue
        o = offset[a]
        nxa = nx[a]
        ncx = nxa // 2
        if delta == 0:
            if o == -1:
                send.append((ng + nxa - ng, ng + nxa))
                recv.append((0, ng))
            elif o == 1:
                send.append((ng, 2 * ng))
                recv.append((ng + nxa, ng + nxa + ng))
            else:
                send.append((ng, ng + nxa))
                recv.append((ng, ng + nxa))
        elif delta == 1:
            # Sender is finer; send ranges are at the sender's resolution and
            # get restricted by 2x before transmission.
            if o == -1:
                send.append((ng + nxa - 2 * ng, ng + nxa))
                recv.append((0, ng))
            elif o == 1:
                send.append((ng, ng + 2 * ng))
                recv.append((ng + nxa, ng + nxa + ng))
            else:
                fi = sender_parity[a]
                send.append((ng, ng + nxa))
                recv.append((ng + fi * ncx, ng + (fi + 1) * ncx))
        elif delta == -1:
            # Sender is coarser; data lands in the receiver's coarse buffer
            # (same resolution as the sender).  Normal depth hg+1 provides
            # the extra margin cell prolongation slopes need.  ``ci`` is the
            # child index of the region adjacent to the receiver *within the
            # coarse sender* — for edge/corner offsets the coarse block can
            # wrap around the fine block, putting that region in the
            # sender's interior rather than at its boundary.
            ci = (receiver_parity[a] + o) & 1
            if o == -1:
                hi = ng + (ci + 1) * ncx
                send.append((hi - (hg + 1), hi))
                recv.append((ng - hg - 1, ng))
            elif o == 1:
                lo = ng + ci * ncx
                send.append((lo, lo + hg + 1))
                recv.append((ng + ncx, ng + ncx + hg + 1))
            else:
                send.append((ng + ci * ncx, ng + (ci + 1) * ncx))
                recv.append((ng, ng + ncx))
        else:  # pragma: no cover - 2:1 rule forbids it
            raise ValueError(f"invalid level delta {delta}")
    return tuple(send), tuple(recv), delta == -1, delta == 1


@lru_cache(maxsize=None)
def link_cells_table(
    nx: Tuple[int, int, int], ng: int, ndim: int
) -> np.ndarray:
    """Cells each link transmits, indexed ``[offset_id, delta + 1]``.

    The receive extent depends only on the offset and the level delta
    (parities move a range, never resize it), so one small table prices
    every link of a rebuild.
    """
    offsets = neighbor_offsets(ndim)
    table = np.zeros((len(offsets), 3), dtype=np.int64)
    for i, offset in enumerate(offsets):
        for delta in (-1, 0, 1):
            _, recv, _, _ = _message_geometry(
                nx, ng, ndim, offset, delta, (0, 0, 0), (0, 0, 0)
            )
            table[i, delta + 1] = math.prod(hi - lo for lo, hi in recv)
    return table


def prolong_ranges(
    nx: Tuple[int, int, int], ng: int, ndim: int, offset: Offset
) -> Tuple[Tuple[Range, Range, Range], Tuple[Range, Range, Range]]:
    """Coarse-buffer source (with 1-cell margins) and fine ghost target for
    prolongating the ghost region facing a coarser neighbor at ``offset``."""
    hg = ng // 2
    src: List[Range] = []
    tgt: List[Range] = []
    for a in range(3):
        if a >= ndim:
            src.append((0, 1))
            tgt.append((0, 1))
            continue
        o = offset[a]
        nxa = nx[a]
        ncx = nxa // 2
        if o == -1:
            src.append((ng - hg - 1, ng + 1))
            tgt.append((0, ng))
        elif o == 1:
            src.append((ng + ncx - 1, ng + ncx + hg + 1))
            tgt.append((ng + nxa, ng + nxa + ng))
        else:
            src.append((ng - 1, ng + ncx + 1))
            tgt.append((ng, ng + nxa))
    return tuple(src), tuple(tgt)


def restrict_target_ranges(
    nx: Tuple[int, int, int],
    ng: int,
    ndim: int,
    fine_ranges: Tuple[Range, Range, Range],
) -> Tuple[Range, Range, Range]:
    """Coarse-buffer ranges covered by a fine-cell region of the same block.

    Fine interior cell ``ng + i`` maps to coarse interior cell ``ng + i//2``;
    ghost cells map symmetrically.  Every fine range must be 2-aligned
    relative to the interior start, which the MeshGeometry constraints
    (block size % 4, even ng) guarantee.
    """
    out: List[Range] = []
    for a in range(3):
        if a >= ndim:
            out.append((0, 1))
            continue
        lo, hi = fine_ranges[a]
        rel_lo = lo - ng
        rel_hi = hi - ng
        if rel_lo % 2 or rel_hi % 2:
            raise ValueError(
                f"fine range {fine_ranges[a]} along dim {a} is not 2-aligned"
            )
        out.append((ng + rel_lo // 2, ng + rel_hi // 2))
    return tuple(out)


@dataclass
class ExchangeStats:
    """One exchange's communication volume, fed to the cost models."""

    messages_remote: int = 0
    messages_local: int = 0
    cells_communicated: int = 0
    bytes_communicated: int = 0
    buffers_packed: int = 0
    prolongations: int = 0
    restrictions: int = 0

    def merge(self, other: "ExchangeStats") -> None:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class RebuildStats:
    """Topology/cache rebuild work (RedistributeAndRefineMeshBlocks costs)."""

    nblocks: int = 0
    nbuffers: int = 0
    cache: CacheStats = field(default_factory=CacheStats)


class BoundaryExchange:
    """Ghost-cell communication engine over a :class:`Mesh` and a SimMPI."""

    def __init__(
        self,
        mesh: Mesh,
        mpi: SimMPI,
        bytes_per_value: int = 8,
        cache_seed: int = 0,
        metrics=None,
    ) -> None:
        self.mesh = mesh
        self.mpi = mpi
        self.bytes_per_value = bytes_per_value
        #: Optional :class:`repro.observability.MetricsRegistry`; when
        #: attached, per-message ghost-traffic distributions are observed.
        self.metrics = metrics
        self.cache = BufferCache(seed=cache_seed)
        self.pool = GhostBufferPool()
        #: Per-block neighbor lists; numeric mode only (empty when modeled).
        self.neighbor_table: Dict[LogicalLocation, List[NeighborInfo]] = {}
        self._specs: Dict[LogicalLocation, List[MessageSpec]] = {}
        self._inflight: Dict[BufferKey, Tuple[MessageSpec, Optional[dict]]] = {}
        self._expected: int = 0
        self.rebuild()

    # ------------------------------------------------------------- rebuild

    def _total_ncomp(self) -> int:
        return sum(s.ncomp for s in self.mesh.field_specs)

    def rebuild(self) -> RebuildStats:
        """Recompute neighbor links, message specs, and the buffer cache.

        Must be called after every remesh or load-balance — this is the
        ``BuildTagMapAndBoundaryBuffers`` + ``SetMeshBlockNeighbors`` work
        Section II-E describes.  The links are resolved once, as arrays
        (:func:`build_links`).  The modeled execution mode reduces them
        with array arithmetic: identical counts and traffic, no per-link
        Python objects (the meshes there reach hundreds of thousands of
        links).  Numeric mode expands them into per-block lists.
        """
        #: The mesh's neighbor links as flat arrays; :class:`FluxCorrection`
        #: reads the same arrays.
        self.links: NeighborLinks = build_links(self.mesh)
        self.pool.clear()
        if not self.mesh.allocate:
            self.neighbor_table = {}
            return self._rebuild_modeled()
        self.neighbor_table = neighbor_table_from_links(self.mesh, self.links)
        nx = self.mesh.geometry.block_size
        ng = self.mesh.geometry.ng
        ndim = self.mesh.ndim
        self._specs = {}
        keys_with_sizes: Dict[BufferKey, int] = {}
        ncomp = self._total_ncomp()
        for blk in self.mesh.block_list:
            specs = [
                message_spec(nx, ng, ndim, nbr, blk.lloc)
                for nbr in self.neighbor_table[blk.lloc]
            ]
            self._specs[blk.lloc] = specs
            for spec in specs:
                keys_with_sizes[spec.key] = (
                    spec.cells * ncomp * self.bytes_per_value
                )
        cache_stats = self.cache.initialize(keys_with_sizes)
        cache_stats_views = self.cache.rebuild_views()
        cache_stats.views_rebuilt = cache_stats_views.views_rebuilt
        cache_stats.h2d_copies = cache_stats_views.h2d_copies
        cache_stats.metadata_bytes = cache_stats_views.metadata_bytes

        # Persistent send+receive buffers registered per rank for remote
        # links (the MPI part of Fig. 10's memory breakdown).
        per_rank: Dict[int, int] = {r: 0 for r in range(self.mpi.nranks)}
        for blk in self.mesh.block_list:
            for spec in self._specs[blk.lloc]:
                sender = self.mesh.block_at(spec.key.sender)
                if sender.rank != blk.rank:
                    size = keys_with_sizes[spec.key]
                    per_rank[sender.rank] += size
                    per_rank[blk.rank] += size
        self.mpi.set_registered_buffer_bytes(per_rank)

        return RebuildStats(
            nblocks=self.mesh.num_blocks,
            nbuffers=len(keys_with_sizes),
            cache=cache_stats,
        )

    def _rebuild_modeled(self) -> RebuildStats:
        """Aggregate rebuild for cost-only runs: same counts, no objects."""
        links = self.links
        recv, send, delta = links.recv_gid, links.send_gid, links.delta
        nblocks = self.mesh.num_blocks
        nranks = self.mpi.nranks
        cells = link_cells_table(
            self.mesh.geometry.block_size, self.mesh.geometry.ng, self.mesh.ndim
        )[links.offset_id, delta + 1]
        rank = np.array([b.rank for b in self.mesh.block_list], dtype=np.int64)
        src, dst = rank[send], rank[recv]
        # Per rank pair (count, cells), keyed in first-occurrence order so
        # ``send_bound_bufs`` observes the pairs in link order.
        pair = src * nranks + dst
        count = np.bincount(pair, minlength=nranks * nranks)
        pair_cells = np.bincount(pair, weights=cells, minlength=nranks * nranks)
        present, first = np.unique(pair, return_index=True)
        self._agg_pairs = {
            (p // nranks, p % nranks): [int(count[p]), int(pair_cells[p])]
            for p in present[np.argsort(first)].tolist()
        }
        self._agg_restricted_msgs = int(np.count_nonzero(delta == 1))
        # One prolongation per coarse-neighbor offset; a block with any
        # coarser neighbor restricts its interior plus every ghost slab
        # filled at its own resolution (same-level and finer links).
        coarse = delta == -1
        self._agg_prolongs = int(np.count_nonzero(coarse))
        has_coarse = np.bincount(recv[coarse], minlength=nblocks) > 0
        fine_or_same = np.bincount(recv[~coarse], minlength=nblocks)
        self._agg_restricts = int((fine_or_same[has_coarse] + 1).sum())
        nbuffers = len(recv)
        self._agg_nbuffers = nbuffers
        cache_stats = self.cache.initialize_counts(nbuffers)
        cache_stats.views_rebuilt = nbuffers
        cache_stats.h2d_copies = nbuffers
        cache_stats.metadata_bytes = (
            nbuffers * self.cache.METADATA_BYTES_PER_BUFFER
        )
        remote = src != dst
        remote_cells = cells[remote]
        per_rank_cells = np.bincount(
            src[remote], weights=remote_cells, minlength=nranks
        ) + np.bincount(dst[remote], weights=remote_cells, minlength=nranks)
        bytes_per_cell = self._total_ncomp() * self.bytes_per_value
        self.mpi.set_registered_buffer_bytes(
            {
                r: int(c) * bytes_per_cell
                for r, c in enumerate(per_rank_cells.tolist())
            }
        )
        return RebuildStats(
            nblocks=nblocks, nbuffers=nbuffers, cache=cache_stats
        )

    # -------------------------------------------------------------- phases

    def start_receive_bound_bufs(self) -> int:
        """Phase 1: register expected incoming messages."""
        self._inflight = {}
        if not self.mesh.allocate:
            self._expected = self._agg_nbuffers
        else:
            self._expected = sum(len(v) for v in self._specs.values())
        return self._expected

    def send_bound_bufs(self, field_names: Sequence[str]) -> ExchangeStats:
        """Phase 2: pack (restricting where needed) and post all messages."""
        stats = ExchangeStats()
        ncomp_by_name = {s.name: s.ncomp for s in self.mesh.field_specs}
        ncomp = sum(ncomp_by_name[name] for name in field_names)
        if not self.mesh.allocate:
            for (src, dst), (count, cells) in self._agg_pairs.items():
                nbytes = cells * ncomp * self.bytes_per_value
                self.mpi.send_bulk(src, dst, count, nbytes)
                if self.metrics is not None and count:
                    # Aggregate path: one observation per rank pair, at
                    # the pair's mean message size.
                    self.metrics.observe("ghost_message_bytes", nbytes / count)
                if src == dst:
                    stats.messages_local += count
                else:
                    stats.messages_remote += count
                stats.cells_communicated += cells
                stats.bytes_communicated += nbytes
                stats.buffers_packed += count
            stats.restrictions += self._agg_restricted_msgs
            self._remote_pending = stats.messages_remote
            return stats
        for blk in self.mesh.block_list:
            for spec in self._specs[blk.lloc]:
                sender = self.mesh.block_at(spec.key.sender)
                payload: Optional[dict] = None
                if self.mesh.allocate:
                    payload = {}
                    for name in field_names:
                        slab = sender.fields[name][_slices(spec.send_ranges)]
                        if spec.restrict_before_send:
                            slab = restrict(slab, self.mesh.ndim)
                            stats.restrictions += 1
                        buf = self.pool.acquire(slab.shape)
                        np.copyto(buf, slab)
                        payload[name] = buf
                nbytes = spec.cells * ncomp * self.bytes_per_value
                self.mpi.send(sender.rank, blk.rank, nbytes)
                if self.metrics is not None:
                    self.metrics.observe("ghost_message_bytes", nbytes)
                if sender.rank == blk.rank:
                    stats.messages_local += 1
                else:
                    stats.messages_remote += 1
                stats.cells_communicated += spec.cells
                stats.bytes_communicated += nbytes
                stats.buffers_packed += 1
                self._inflight[spec.key] = (spec, payload)
        return stats

    def receive_bound_bufs(self) -> int:
        """Phase 3: poll for arrivals.

        In the simulation all messages are already present; what matters for
        the cost model is the polling activity: one ``MPI_Iprobe`` nudge and
        one ``MPI_Test`` completion check per remote message.
        """
        if not self.mesh.allocate:
            remote = getattr(self, "_remote_pending", 0)
            self.mpi.iprobe(remote)
            self.mpi.test(remote)
            return self._agg_nbuffers
        remote = sum(
            1
            for spec, _ in self._inflight.values()
            if self.mesh.block_at(spec.key.sender).rank
            != self.mesh.block_at(spec.key.receiver).rank
        )
        self.mpi.iprobe(remote)
        self.mpi.test(remote)
        return len(self._inflight)

    def set_bounds(self, field_names: Sequence[str]) -> ExchangeStats:
        """Phase 4: unpack, restrict locally, prolongate coarse regions."""
        stats = ExchangeStats()
        if self.mesh.allocate:
            self._unpack(field_names)
            # Consumed payload buffers go back to the pool for next cycle.
            for _, payload in self._inflight.values():
                if payload:
                    for arr in payload.values():
                        self.pool.release(arr)
            for blk in self.mesh.block_list:
                self._fill_physical_ghosts(blk, field_names)
            stats.prolongations, stats.restrictions = (
                self._restrict_and_prolongate(field_names)
            )
        else:
            # Model mode: kernel work counts from the rebuild aggregates.
            stats.prolongations = self._agg_prolongs
            stats.restrictions = self._agg_restricts
        self.cache.mark_stale()
        self._inflight = {}
        return stats

    def exchange(self, field_names: Sequence[str]) -> ExchangeStats:
        """Run all four phases; convenience for tests and examples."""
        self.start_receive_bound_bufs()
        stats = self.send_bound_bufs(field_names)
        self.receive_bound_bufs()
        set_stats = self.set_bounds(field_names)
        stats.prolongations += set_stats.prolongations
        stats.restrictions += set_stats.restrictions
        return stats

    # ------------------------------------------------------------ internals

    def _coarse_offsets(self, lloc: LogicalLocation) -> List[Offset]:
        return [
            nbr.offset for nbr in self.neighbor_table[lloc] if nbr.delta == -1
        ]

    def _unpack(self, field_names: Sequence[str]) -> None:
        for spec, payload in self._inflight.values():
            blk = self.mesh.block_at(spec.key.receiver)
            target = blk.coarse_fields if spec.to_coarse else blk.fields
            sl = _slices(spec.recv_ranges)
            for name in field_names:
                target[name][sl] = payload[name]

    def _restrict_and_prolongate(
        self, field_names: Sequence[str]
    ) -> Tuple[int, int]:
        """Fill coarse buffers from local fine data, then prolongate.

        Only blocks that actually have a coarser neighbor need this work.
        Returns (prolongation launches, restriction launches).
        """
        nx = self.mesh.geometry.block_size
        ng = self.mesh.geometry.ng
        ndim = self.mesh.ndim
        n_prolong = 0
        n_restrict = 0
        for blk in self.mesh.block_list:
            coarse_offsets = self._coarse_offsets(blk.lloc)
            if not coarse_offsets:
                continue
            # Restrict the interior into the coarse buffer.
            interior = tuple(
                (ng, ng + nx[a]) if a < ndim else (0, 1) for a in range(3)
            )
            regions = [interior]
            # Restrict every ghost slab filled at fine resolution
            # (same-level and finer neighbors, and physical boundaries).
            for spec in self._specs[blk.lloc]:
                if spec.delta >= 0:
                    regions.append(spec.recv_ranges)
            for offset in self._physical_offsets(blk.lloc):
                regions.append(self._ghost_ranges(nx, ng, ndim, offset))
            for fine_ranges in regions:
                coarse_ranges = restrict_target_ranges(nx, ng, ndim, fine_ranges)
                for name in field_names:
                    fine = blk.fields[name][_slices(fine_ranges)]
                    blk.coarse_fields[name][_slices(coarse_ranges)] = restrict(
                        fine, ndim
                    )
                n_restrict += 1
            # Prolongate each coarse-neighbor ghost region.
            for offset in set(coarse_offsets):
                src, tgt = prolong_ranges(nx, ng, ndim, offset)
                for name in field_names:
                    coarse = blk.coarse_fields[name][_slices(src)]
                    blk.fields[name][_slices(tgt)] = prolong(coarse, ndim)
                n_prolong += 1
        return n_prolong, n_restrict

    @staticmethod
    def _ghost_ranges(
        nx: Tuple[int, int, int], ng: int, ndim: int, offset: Offset
    ) -> Tuple[Range, Range, Range]:
        """Fine ghost-slab ranges for ``offset`` (receiver side, delta=0)."""
        out: List[Range] = []
        for a in range(3):
            if a >= ndim:
                out.append((0, 1))
                continue
            o = offset[a]
            if o == -1:
                out.append((0, ng))
            elif o == 1:
                out.append((ng + nx[a], ng + nx[a] + ng))
            else:
                out.append((ng, ng + nx[a]))
        return tuple(out)

    def _physical_offsets(self, lloc: LogicalLocation) -> List[Offset]:
        """Offsets that face a non-periodic physical boundary."""
        present = {nbr.offset for nbr in self.neighbor_table[lloc]}
        return [
            o for o in neighbor_offsets(self.mesh.ndim) if o not in present
        ]

    def _physical_faces(self, lloc: LogicalLocation) -> List[Tuple[int, int]]:
        """(axis, side) pairs whose face sits on a physical boundary."""
        present = {nbr.offset for nbr in self.neighbor_table[lloc]}
        faces = []
        for a in range(self.mesh.ndim):
            for o in (-1, 1):
                offset = tuple(o if ax == a else 0 for ax in range(3))
                if offset not in present:
                    faces.append((a, o))
        return faces

    def _fill_physical_ghosts(
        self, blk: MeshBlock, field_names: Sequence[str]
    ) -> None:
        """Outflow (zero-gradient) fill for non-periodic boundary faces.

        Each face fill spans the full tangential extent (including ghost
        columns), so edge and corner regions bordered by physical boundaries
        are covered by the axis-ordered sequence of face fills.
        """
        ng = self.mesh.geometry.ng
        for a, o in self._physical_faces(blk.lloc):
            axis = 3 - a
            for name in field_names:
                arr = blk.fields[name]
                n = arr.shape[axis]
                edge = [slice(None)] * 4
                tgt = [slice(None)] * 4
                if o == -1:
                    edge[axis] = slice(ng, ng + 1)
                    tgt[axis] = slice(0, ng)
                else:
                    edge[axis] = slice(n - ng - 1, n - ng)
                    tgt[axis] = slice(n - ng, n)
                arr[tuple(tgt)] = arr[tuple(edge)]
