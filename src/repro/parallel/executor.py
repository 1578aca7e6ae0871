"""The shard executor: pack stages fanned out to worker processes.

``ShardedPackKernels`` implements the same five-stage interface as the
packed engine, :class:`repro.solver.packed_kernels.PackedBurgersKernels`
(``calculate_fluxes`` / ``flux_divergence_and_update``
/ ``fill_derived`` / ``save_base`` / ``estimate_timestep``), so the driver
swaps it in transparently when ``ExecutionConfig.num_shards > 1``.  The
split of responsibilities:

* the **parent** keeps everything framework-shaped — mesh/tree, ghost
  exchange through the pooled comm buffers, flux correction, refinement,
  load balancing, the platform cost model and all observability.  Because
  the adopted block views alias shared-memory pack storage, the parent's
  ghost fills are immediately visible to every worker (and vice versa)
  with no explicit transfer;
* each **worker process** owns a fixed set of chunk-grid units (see
  ``repro.parallel.shards``) and executes the numeric stages over them
  with its own instance of the packed engine.

Barrier protocol: every stage is one message to each worker and one ack
back; the parent blocks on all acks before returning, so stages never
overlap with each other or with the parent's comm phases.  The parent
waits on connections *and* process sentinels simultaneously, so a dead
or wedged worker surfaces as a structured :class:`ShardError` — never a
hang, never a silently corrupt pack.

Remesh: the driver invalidates the pack; the next build allocates a new
shared generation through :meth:`ShardedPackKernels.allocator`, and
:meth:`rebind` repartitions the new chunk grid, points every worker at
the new segments, and only then retires the previous generation.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
import weakref
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.shards import ShardPack, plan_shards
from repro.parallel.shm import SharedSlab, attach_slab, create_slab
from repro.solver.burgers import BurgersPackage
from repro.solver.packed_kernels import PackedBurgersKernels

#: Ceiling on one stage barrier; a worker that exceeds it is declared
#: wedged and surfaced as a ShardError (the no-hang guarantee).
STAGE_TIMEOUT_S = 300.0


class ShardError(RuntimeError):
    """A shard worker died, wedged, or raised during a stage."""

    def __init__(self, message: str, shard: int = -1, stage: str = "") -> None:
        super().__init__(message)
        self.shard = shard
        self.stage = stage


class _WorkerProxy:
    """Parent-side handle: one duplex pipe (+ sentinel for processes)."""

    def __init__(self, shard_id: int, conn, sentinel, stopper) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self.sentinel = sentinel
        self._stopper = stopper

    def send(self, msg) -> None:
        self.conn.send(msg)

    def stop(self) -> None:
        self._stopper()


def _worker_loop(conn, shard_id: int) -> None:
    """Message loop run inside each worker (process or thread).

    State machine: ``init`` builds the kernel engine, ``rebuild`` attaches
    one pack generation and carves it into per-unit :class:`ShardPack`
    views, ``stage`` executes one kernel stage over every owned unit.
    """
    kernels = None
    slabs: List[SharedSlab] = []
    packs: List[ShardPack] = []
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        try:
            if kind == "shutdown":
                conn.send(("ok", None, 0.0))
                break
            if kind == "init":
                _, params = msg
                pkg = BurgersPackage(params.ndim, params.burgers_config())
                kernels = PackedBurgersKernels(pkg)
                conn.send(("ok", None, 0.0))
            elif kind == "rebuild":
                _, segs, meta = msg
                new_slabs = [attach_slab(*segs["data"])]
                flux_axes: List[Optional[np.ndarray]] = []
                for seg in segs["flux"]:
                    if seg is None:
                        flux_axes.append(None)
                    else:
                        slab = attach_slab(*seg)
                        new_slabs.append(slab)
                        flux_axes.append(slab.array)
                packs = [
                    ShardPack(
                        new_slabs[0].array,
                        flux_axes,
                        meta["flux_field"],
                        meta["slices"],
                        meta["shape"],
                        meta["dx"],
                        lo,
                        hi,
                    )
                    for lo, hi in meta["units"]
                ]
                old, slabs = slabs, new_slabs
                for slab in old:
                    slab.close()
                conn.send(("ok", None, 0.0))
            elif kind == "stage":
                _, stage, args = msg
                t0 = time.perf_counter()
                if stage == "estimate_timestep":
                    payload = [
                        ((p.lo, p.hi), kernels.estimate_timestep(p))
                        for p in packs
                    ]
                else:
                    fn = getattr(kernels, stage)
                    for p in packs:
                        fn(p, *args)
                    payload = None
                conn.send(("ok", payload, time.perf_counter() - t0))
            else:
                raise ValueError(f"unknown shard message {kind!r}")
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
    try:
        conn.close()
    except OSError:
        pass


def _release_segments(slabs: List[SharedSlab]) -> None:
    """Finalizer backstop: unlink every still-live segment by handle."""
    for slab in list(slabs):
        slab.unlink()
        slab.close()
    slabs.clear()


class ShardedPackKernels:
    """Drop-in packed engine that fans stages out to shard workers.

    Parameters
    ----------
    params:
        The run's :class:`SimulationParams` (picklable) — each worker
        rebuilds the Burgers package from it.
    num_shards:
        Worker count; every worker is one OS process under the ``fork``
        start method (or one thread with ``transport="thread"``, the
        in-process mode the protocol/coverage tests drive).
    injector_provider / cycle_provider:
        Callables giving the driver's fault injector and current cycle;
        the ``shard_worker`` fault site fires at stage dispatch.
    """

    def __init__(
        self,
        params,
        num_shards: int,
        injector_provider: Optional[Callable[[], object]] = None,
        cycle_provider: Optional[Callable[[], int]] = None,
        transport: str = "process",
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if transport not in ("process", "thread"):
            raise ValueError(f"unknown shard transport {transport!r}")
        if transport == "process" and "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "sharded execution requires the 'fork' start method; "
                "use transport='thread' on this platform"
            )
        self.params = params
        self.num_shards = num_shards
        self.transport = transport
        self.stage_timeout_s = STAGE_TIMEOUT_S
        self._injector_provider = injector_provider
        self._cycle_provider = cycle_provider
        self._workers: Optional[List[_WorkerProxy]] = None
        #: Slabs handed out by :meth:`allocator` since the last rebind.
        self._pending: List[SharedSlab] = []
        #: The live generation's slabs (data first, then active flux axes).
        self._current: List[SharedSlab] = []
        #: All not-yet-unlinked slabs, shared with the GC finalizer.
        self._live: List[SharedSlab] = []
        self._bound_pack = None
        self._plan = None
        self._nblocks = 0
        self.generation = 0
        self.topology: Dict[str, object] = {}
        self._stage_seconds: Dict[int, Dict[str, float]] = {
            s: {} for s in range(num_shards)
        }
        self._closed = False
        self._finalizer = weakref.finalize(self, _release_segments, self._live)

    # ------------------------------------------------------------ lifecycle

    def allocator(self, shape: Sequence[int]) -> np.ndarray:
        """Pack-storage allocator: zeroed float64 array in shared memory.

        Passed to :func:`repro.solver.packs.build_numeric_pack`; every
        allocation between two :meth:`rebind` calls belongs to the next
        pack generation.
        """
        slab = create_slab(shape)
        self._pending.append(slab)
        self._live.append(slab)
        return slab.array

    def _send(self, proxy: _WorkerProxy, msg, stage: str) -> None:
        """Send with death detection: a closed pipe (the worker is gone)
        surfaces as a structured ShardError, like a missing ack would."""
        try:
            proxy.send(msg)
        except (BrokenPipeError, OSError):
            raise ShardError(
                f"shard worker {proxy.shard_id} is gone "
                f"(send failed in stage {stage!r})",
                shard=proxy.shard_id,
                stage=stage,
            )

    def _ensure_workers(self) -> List[_WorkerProxy]:
        if self._closed:
            raise ShardError("shard executor already shut down")
        if self._workers is None:
            workers: List[_WorkerProxy] = []
            for shard in range(self.num_shards):
                parent_conn, child_conn = mp.Pipe()
                if self.transport == "process":
                    ctx = mp.get_context("fork")
                    proc = ctx.Process(
                        target=_worker_loop,
                        args=(child_conn, shard),
                        name=f"repro-shard-{shard}",
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    proxy = _WorkerProxy(
                        shard, parent_conn, proc.sentinel,
                        lambda p=proc: (p.terminate(), p.join(timeout=5)),
                    )
                else:
                    thread = threading.Thread(
                        target=_worker_loop,
                        args=(child_conn, shard),
                        name=f"repro-shard-{shard}",
                        daemon=True,
                    )
                    thread.start()
                    proxy = _WorkerProxy(shard, parent_conn, None, lambda: None)
                self._send(proxy, ("init", self.params), "init")
                workers.append(proxy)
            self._collect_from(workers, "init")
            self._workers = workers
        return self._workers

    def rebind(self, pack) -> None:
        """Point every worker at a freshly allocated pack generation.

        ``pack`` must have been built with :meth:`allocator`; its chunk
        grid is repartitioned by LPT over the current block costs, every
        worker attaches the new segments and acks, and only then is the
        previous generation retired (unlink + best-effort unmap) — so the
        gather from old views during the pack build never races teardown.
        """
        slabs, self._pending = self._pending, []
        if not slabs or slabs[0].array is not pack.data:
            raise RuntimeError(
                "pack was not allocated through this executor's allocator"
            )
        flux_field = next(iter(pack.flux_data))
        flux_axes = pack.flux_data[flux_field]
        owned = {id(s.array) for s in slabs}
        for arr in flux_axes:
            if arr is not None and id(arr) not in owned:
                raise RuntimeError("flux storage missing from shared slabs")
        by_id = {id(s.array): s for s in slabs}
        nb = len(pack.blocks)
        shape = pack.blocks[0].shape
        costs = [blk.cost for blk in pack.blocks]
        self._plan = plan_shards(costs, shape.interior_cells, self.num_shards)
        self._nblocks = nb
        ndim = shape.ndim
        dx_table = [
            np.array([blk.dx(a) for blk in pack.blocks]) if a < ndim else None
            for a in range(3)
        ]
        segs = {
            "data": (slabs[0].name, slabs[0].shape),
            "flux": [
                None
                if arr is None
                else (by_id[id(arr)].name, by_id[id(arr)].shape)
                for arr in flux_axes
            ],
        }
        units_by_shard = self._plan.units_by_shard
        workers = self._ensure_workers()
        for proxy in workers:
            self._send(
                proxy,
                (
                    "rebuild",
                    segs,
                    {
                        "flux_field": flux_field,
                        "slices": pack._slices,
                        "shape": shape,
                        "dx": dx_table,
                        "units": units_by_shard[proxy.shard_id],
                    },
                ),
                "rebuild",
            )
        self._collect_from(workers, "rebuild")
        for slab in self._current:
            self._retire(slab)
        self._current = slabs
        self._bound_pack = weakref.ref(pack)
        self.generation += 1
        self.topology = {
            "num_shards": self.num_shards,
            "generation": self.generation,
            "units": [
                [[lo, hi] for lo, hi in units] for units in units_by_shard
            ],
            "blocks": self._plan.shard_blocks(),
            "cost": self._plan.shard_costs(costs),
        }

    def _retire(self, slab: SharedSlab) -> None:
        slab.unlink()
        slab.close()
        if slab in self._live:
            self._live.remove(slab)

    def shutdown(self) -> None:
        """Stop workers and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, None
        if workers:
            for proxy in workers:
                try:
                    proxy.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 5.0
            for proxy in workers:
                try:
                    if proxy.conn.poll(max(0.0, deadline - time.monotonic())):
                        proxy.conn.recv()
                except (EOFError, OSError):
                    pass
                proxy.stop()
                try:
                    proxy.conn.close()
                except OSError:
                    pass
        for slab in list(self._live):
            self._retire(slab)
        self._current = []
        self._pending = []
        self._bound_pack = None

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, stage: str, pack, args: Tuple = ()) -> Dict[int, tuple]:
        if self._injector_provider is not None:
            cycle = self._cycle_provider() if self._cycle_provider else 0
            self._injector_provider().check("shard_worker", cycle)
        bound = self._bound_pack() if self._bound_pack is not None else None
        if bound is not pack:
            raise RuntimeError(
                "shard executor is not bound to this pack; rebind first"
            )
        workers = self._ensure_workers()
        for proxy in workers:
            self._send(proxy, ("stage", stage, args), stage)
        replies = self._collect_from(workers, stage)
        for shard, (payload, elapsed) in replies.items():
            per = self._stage_seconds[shard]
            per[stage] = per.get(stage, 0.0) + elapsed
        return replies

    def _collect_from(
        self, workers: List[_WorkerProxy], stage: str
    ) -> Dict[int, tuple]:
        """Barrier: one ack per worker, with death/wedge detection."""
        pending = {proxy.shard_id: proxy for proxy in workers}
        replies: Dict[int, tuple] = {}
        deadline = time.monotonic() + self.stage_timeout_s
        while pending:
            waitables = []
            for proxy in pending.values():
                waitables.append(proxy.conn)
                if proxy.sentinel is not None:
                    waitables.append(proxy.sentinel)
            timeout = deadline - time.monotonic()
            ready = _conn_wait(waitables, max(0.0, timeout)) if timeout > 0 else []
            if not ready:
                raise ShardError(
                    f"shard barrier timed out after {self.stage_timeout_s:.0f}s "
                    f"in stage {stage!r} waiting on shards "
                    f"{sorted(pending)}",
                    shard=min(pending),
                    stage=stage,
                )
            for proxy in list(pending.values()):
                if proxy.conn in ready:
                    try:
                        msg = proxy.conn.recv()
                    except (EOFError, OSError):
                        raise ShardError(
                            f"shard worker {proxy.shard_id} closed its pipe "
                            f"during stage {stage!r}",
                            shard=proxy.shard_id,
                            stage=stage,
                        )
                    if msg[0] == "err":
                        raise ShardError(
                            f"shard worker {proxy.shard_id} failed in stage "
                            f"{stage!r}:\n{msg[1]}",
                            shard=proxy.shard_id,
                            stage=stage,
                        )
                    replies[proxy.shard_id] = (msg[1], msg[2])
                    del pending[proxy.shard_id]
                elif proxy.sentinel is not None and proxy.sentinel in ready:
                    # The process may have exited *after* replying: drain
                    # the pipe first, declare death only if it is empty.
                    if proxy.conn.poll(0.05):
                        continue
                    raise ShardError(
                        f"shard worker {proxy.shard_id} died during stage "
                        f"{stage!r} (no reply)",
                        shard=proxy.shard_id,
                        stage=stage,
                    )
        return replies

    # ------------------------------------------------------ stage interface

    def calculate_fluxes(self, pack) -> None:
        self._dispatch("calculate_fluxes", pack)

    def flux_divergence_and_update(
        self, pack, gam0: float, gam1: float, beta_dt: float
    ) -> None:
        self._dispatch(
            "flux_divergence_and_update", pack, (gam0, gam1, beta_dt)
        )

    def fill_derived(self, pack) -> None:
        self._dispatch("fill_derived", pack)

    def save_base(self, pack) -> None:
        self._dispatch("save_base", pack)

    def estimate_timestep(self, pack) -> np.ndarray:
        """Per-block ``cfl·dt`` assembled from per-unit worker results.

        Entries land at their global block indices, so the driver's
        ``min`` reduce sees exactly the serial engine's array.
        """
        replies = self._dispatch("estimate_timestep", pack)
        dt = np.empty(self._nblocks)
        for payload, _elapsed in replies.values():
            for (lo, hi), values in payload:
                dt[lo:hi] = values
        return dt

    # -------------------------------------------------------- observability

    def reset_timings(self) -> None:
        """Zero per-shard stage clocks (the driver's warmup boundary)."""
        self._stage_seconds = {s: {} for s in range(self.num_shards)}

    def summary(self) -> Dict[str, object]:
        """Shard topology + per-shard wall timings for result/artifact.

        Topology is deterministic; ``stage_seconds`` is host wall-clock
        and explicitly exempt from the byte-determinism contract (the
        schema notes in ``orchestration.artifacts`` document this).
        """
        return {
            "topology": dict(self.topology),
            "transport": self.transport,
            "stage_seconds": {
                str(shard): {k: v for k, v in sorted(per.items())}
                for shard, per in self._stage_seconds.items()
            },
        }
