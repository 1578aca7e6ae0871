"""The five workloads: inputs made from a seed, and one repetition of each.

Everything here drives the program through its public front door
(``repro.api``, ``repro.service``); the program only ever sees the
generated inputs — a ``RunSpec``, an initial-conditions callable, or spec
JSON over HTTP — never the seed.

Seeds must not change how much work a workload does, or run-to-run
spread would measure the inputs instead of the program:

* the uniform workloads never remesh, so the blob centre and amplitude
  jitter freely;
* ``numeric_amr``'s block schedule flips on a 0.4% centre shift, so its
  seed picks one of the cube symmetries of the base placement (axis
  permutation + reflections: same tree up to relabelling, different
  Morton order and data layout) and a small amplitude jitter;
* ``service_sweep`` draws half its specs from each mesh size, because
  mesh 48 costs ~3x mesh 32;
* ``modeled_vibe128`` is a fixed committed deck and ignores the seed.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from contextlib import nullcontext
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import repro.driver.driver as driver_module
from repro.api import (
    RunSpec,
    Simulation,
    build_execution_config,
    build_simulation_params,
)
from repro.driver.driver import RunResult
from repro.orchestration.artifacts import dumps_artifact
from repro.service import QuotaPolicy, ServerThread, TenantQuotas
from repro.solver.burgers import CONSERVED
from repro.solver.initial_conditions import gaussian_blob

from report import OUT_DIR, REPO_ROOT
from spans import SpanRecorder

VIBE_DECK = REPO_ROOT / "examples" / "vibe_128.in"

SIM_WORKLOADS = (
    "numeric_uniform",
    "numeric_uniform_shards2",
    "numeric_amr",
    "modeled_vibe128",
)
SERVICE_WORKLOAD = "service_sweep"
WORKLOADS = SIM_WORKLOADS + (SERVICE_WORKLOAD,)

#: Workloads that need two usable CPUs to mean anything.
NEEDS_TWO_CPUS = ("numeric_uniform_shards2", SERVICE_WORKLOAD)

KERNEL_STAGES = (
    "calculate_fluxes",
    "flux_divergence_and_update",
    "save_base",
    "fill_derived",
    "estimate_timestep",
)

SERVICE_CLIENTS = 2
#: Phase-B mix per ten requests: duplicate submit / status / result.
REQUEST_MIX = (("submit", 5), ("status", 3), ("result", 2))
#: The benchmark measures the service, not admission control.
QUOTAS = QuotaPolicy(rate_per_s=1e6, burst=1_000_000, max_inflight=4096)


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class SimInputs:
    """One simulation workload's generated inputs."""

    build_spec: Callable[[], RunSpec]
    initial_conditions: Optional[Callable] = None


@dataclass(frozen=True)
class ServiceInputs:
    """``service_sweep``'s unique specs and its seeded request schedule."""

    specs: Tuple[RunSpec, ...]
    docs: Tuple[dict, ...]
    keys: Tuple[str, ...]
    #: Per client: ``(kind, spec index)`` in send order (closed loop).
    schedule: Tuple[Tuple[Tuple[str, int], ...], ...]


def _numeric_spec(
    mesh: int, block: int, levels: int, cycles: int, shards: int = 1
) -> RunSpec:
    params = build_simulation_params(
        ndim=3,
        mesh_size=mesh,
        block_size=block,
        num_levels=levels,
        num_scalars=1,
        reconstruction="weno5",
        riemann="hll",
    )
    config = build_execution_config(
        mode="numeric",
        kernel_mode="packed",
        kernel_backend="numpy",
        num_shards=shards,
    )
    return RunSpec(params=params, config=config, ncycles=cycles, warmup=0)


def _uniform_blob(seed: int) -> Callable:
    rng = random.Random(f"numeric_uniform:{seed}")
    center = tuple(0.5 + rng.uniform(-0.05, 0.05) for _ in range(3))
    amplitude = 0.8 * (1.0 + rng.uniform(-0.05, 0.05))
    return partial(gaussian_blob, amplitude=amplitude, width=0.15, center=center)


def _amr_blob(seed: int) -> Callable:
    rng = random.Random(f"numeric_amr:{seed}")
    base = (0.3, 0.4, 0.5)
    center = tuple(
        base[axis] if rng.random() < 0.5 else 1.0 - base[axis]
        for axis in rng.sample(range(3), 3)
    )
    amplitude = 1.0 + rng.uniform(-0.02, 0.02)
    return partial(gaussian_blob, amplitude=amplitude, width=0.08, center=center)


def _service_spec(
    mesh: int, scalars: int, ranks: int, gap: int, cycles: int, warmup: int
) -> RunSpec:
    # Deck-expressible options only: the journal stores jobs in deck
    # form, so anything the deck drops changes the job's cache key
    # (README, "known findings").
    params = build_simulation_params(
        ndim=3,
        mesh_size=mesh,
        block_size=8,
        num_levels=2,
        num_scalars=scalars,
        derefine_gap=gap,
    )
    config = build_execution_config(
        backend="gpu", mode="modeled", num_gpus=1, ranks_per_gpu=ranks
    )
    return RunSpec(params=params, config=config, ncycles=cycles, warmup=warmup)


def _service_inputs(seed: int, quick: bool) -> ServiceInputs:
    rng = random.Random(f"service_sweep:{seed}")
    per_mesh, requests = (4, 200) if quick else (16, 2000)
    cycles, warmup = (2, 0) if quick else (3, 1)
    specs: List[RunSpec] = []
    for mesh in (32, 48):
        pool = [
            _service_spec(mesh, scalars, ranks, gap, cycles, warmup)
            for scalars in (1, 2, 3, 4)
            for ranks in (1, 2, 3)
            for gap in (10, 11)
        ]
        specs.extend(rng.sample(pool, per_mesh))
    rng.shuffle(specs)
    kinds = [kind for kind, weight in REQUEST_MIX for _ in range(weight)]
    schedule = tuple(
        tuple(
            (rng.choice(kinds), rng.randrange(len(specs)))
            for _ in range(requests // SERVICE_CLIENTS)
        )
        for _ in range(SERVICE_CLIENTS)
    )
    return ServiceInputs(
        specs=tuple(specs),
        docs=tuple(spec.to_json() for spec in specs),
        keys=tuple(spec.cache_key() for spec in specs),
        schedule=schedule,
    )


def make_inputs(workload: str, seed: int, quick: bool = False):
    """The workload's inputs for ``seed`` (same seed, same inputs)."""
    cycles = 2 if quick else 4
    if workload in ("numeric_uniform", "numeric_uniform_shards2"):
        shards = 2 if workload.endswith("shards2") else 1
        return SimInputs(
            build_spec=partial(_numeric_spec, 64, 32, 1, cycles, shards),
            initial_conditions=_uniform_blob(seed),
        )
    if workload == "numeric_amr":
        return SimInputs(
            build_spec=partial(_numeric_spec, 32, 8, 3, cycles),
            initial_conditions=_amr_blob(seed),
        )
    if workload == "modeled_vibe128":
        ncycles, warmup = (2, 0) if quick else (6, 2)
        return SimInputs(
            build_spec=partial(
                RunSpec.from_file, VIBE_DECK, ncycles=ncycles, warmup=warmup
            )
        )
    if workload == SERVICE_WORKLOAD:
        return _service_inputs(seed, quick)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ------------------------------------------------------- simulation reps


@dataclass
class SimRep:
    """Host-clock samples and outputs of one simulation repetition."""

    setup_s: float
    run_s: float
    submit_to_artifact_s: float
    #: Host seconds per completed cycle (warmup cycles included).
    cycle_s: List[float]
    #: Interior cells at each cycle end (warmup cycles included).
    zone_cycles: int
    result: RunResult
    driver: Optional[object] = None


def build_ready(inputs: SimInputs) -> Tuple[Simulation, float]:
    """Spec/deck -> ready-to-step driver; returns ``(sim, setup seconds)``."""
    start = time.perf_counter()
    sim = Simulation(
        inputs.build_spec(), initial_conditions=inputs.initial_conditions
    )
    sim.driver  # noqa: B018 — builds the mesh, topology and initial data
    return sim, time.perf_counter() - start


def run_sim_rep(
    inputs: SimInputs,
    recorder: Optional[SpanRecorder] = None,
    keep_driver: bool = False,
) -> SimRep:
    """One repetition: build, run, reduce to artifact bytes.

    With a ``recorder`` the driver's layer seams are wrapped for the
    duration of the run (the traced pass); without one nothing but the
    public ``on_cycle`` hook touches the run.  The finished driver (mesh,
    pack and all) is dropped unless ``keep_driver``, so repetitions do not
    pile up in the peak resident set.
    """
    sim, setup_s = build_ready(inputs)
    driver = sim.driver
    cells_per_block = driver.params.block_size ** driver.params.ndim
    total_cycles = sim.spec.ncycles + sim.spec.warmup
    tracing = recorder is not None
    marks: List[float] = []
    blocks: List[int] = []
    open_span = None

    def on_cycle(drv) -> None:
        nonlocal open_span
        marks.append(time.perf_counter())
        blocks.append(drv.mesh.num_blocks)
        if tracing:
            # The span after the last cycle covers result assembly and
            # shard shutdown, not a cycle.
            recorder.close(open_span)
            open_span = recorder.open(
                "finish" if len(marks) == total_cycles else f"cycle[{len(marks)}]"
            )

    try:
        if tracing:
            install_wrappers(recorder, driver)
        with recorder.span("run") if tracing else nullcontext():
            start = time.perf_counter()
            if tracing:
                open_span = recorder.open("cycle[0]")
            try:
                result = sim.run(on_cycle=on_cycle)
            finally:
                if tracing:
                    recorder.close(open_span)
            end = time.perf_counter()
        dumps_artifact(sim.artifact())
        submit_to_artifact_s = setup_s + (time.perf_counter() - start)
    finally:
        if tracing:
            recorder.restore()
        driver.shutdown_shards()
    edges = [start] + marks
    return SimRep(
        setup_s=setup_s,
        run_s=end - start,
        submit_to_artifact_s=submit_to_artifact_s,
        cycle_s=[b - a for a, b in zip(edges, edges[1:])],
        zone_cycles=sum(blocks) * cells_per_block,
        result=result,
        driver=driver if keep_driver else None,
    )


def install_wrappers(rec: SpanRecorder, driver) -> None:
    """Wrap the layer seams one driver exposes; ``rec.restore()`` undoes it."""
    counts = rec.counts

    def sent(stats, _args) -> None:
        counts["comm.bvals.buffers_packed"] += stats.buffers_packed
        counts["comm.bvals.ghost_cells"] += stats.cells_communicated
        counts["comm.bvals.ghost_bytes"] += stats.bytes_communicated
        counts["comm.bvals.restrictions"] += stats.restrictions

    def bounds_set(stats, _args) -> None:
        counts["comm.bvals.prolongations"] += stats.prolongations
        counts["comm.bvals.restrictions"] += stats.restrictions

    def rebuilt(stats, _args) -> None:
        counts["comm.bvals.rebuild_blocks"] += stats.nblocks

    def remeshed(stats, _args) -> None:
        counts["mesh.blocks_created"] += stats.created
        counts["mesh.blocks_destroyed"] += stats.destroyed

    def corrected(stats, _args) -> None:
        counts["comm.flux_correction.corrections"] += stats.corrections

    def pack_built(pack, _args) -> None:
        counts["solver.packs.bytes"] += pack.data.nbytes + sum(
            flux.nbytes
            for per_axis in pack.flux_data.values()
            for flux in per_axis
            if flux is not None
        )

    def fluxes_done(_result, args) -> None:
        pack = args[0]
        counts["kernels.flux_cells"] += pack.total_cells
        # Computed from array shapes, not measured: the conserved field
        # read (ghosts included) plus every face-flux array written.
        counts["kernels.flux_bytes_computed"] += pack.field(CONSERVED).nbytes + sum(
            flux.nbytes for flux in pack.flux_data[CONSERVED] if flux is not None
        )

    bx = driver.bx
    rec.wrap(bx, "start_receive_bound_bufs", "comm.bvals.start_receive_bound_bufs")
    rec.wrap(bx, "send_bound_bufs", "comm.bvals.send_bound_bufs", sent)
    rec.wrap(bx, "receive_bound_bufs", "comm.bvals.receive_bound_bufs")
    rec.wrap(bx, "set_bounds", "comm.bvals.set_bounds", bounds_set)
    rec.wrap(bx, "rebuild", "comm.bvals.rebuild", rebuilt)
    rec.wrap(driver.mesh, "remesh", "mesh.remesh", remeshed)
    rec.wrap(driver.policy, "collect_flags", "mesh.refinement.collect_flags")
    rec.wrap(driver.fc, "correct", "comm.flux_correction.correct", corrected)
    # Module-level functions the driver calls by bare name.
    rec.wrap(driver_module, "balance", "mesh.loadbalance.balance")
    rec.wrap(driver_module, "build_numeric_pack", "solver.packs.build", pack_built)
    if driver._packed is not None:
        for stage in KERNEL_STAGES:
            rec.wrap(
                driver._packed,
                stage,
                f"kernels.{stage}",
                fluxes_done if stage == "calculate_fluxes" else None,
            )
    if driver._shard_exec is not None:
        # Fork + attach + repartition, and the stop at the end.
        rec.wrap(driver._shard_exec, "rebind", "parallel.lifecycle")
        rec.wrap(driver._shard_exec, "shutdown", "parallel.lifecycle")


# ---------------------------------------------------------- service reps


@dataclass
class ServiceRep:
    """Host-clock samples and outputs of one ``service_sweep`` repetition."""

    setup_s: float
    phase_a_s: float
    phase_b_s: float
    #: Per unique spec: submit -> result bytes in hand.
    submit_to_artifact_s: List[float]
    #: Per unique spec: the final ``GET /result`` alone.
    result_fetch_s: List[float]
    #: Phase-B latency per request kind, milliseconds.
    request_ms: Dict[str, List[float]]
    #: Every HTTP status seen, with counts.
    statuses: Dict[int, int]
    #: Phase-A result bodies by spec index.
    results: Dict[int, bytes]
    stats: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return self.phase_a_s + self.phase_b_s

    @property
    def requests(self) -> int:
        """Every HTTP request sent, status polls included."""
        return sum(self.statuses.values())

    def all_requests_ms(self) -> List[float]:
        """Phase-B latencies of every kind, pooled."""
        return [ms for kind in self.request_ms.values() for ms in kind]


def start_server(data_dir: str) -> Tuple[ServerThread, float]:
    """Fresh data dir -> server answering ``/healthz``; ``(server, seconds)``."""
    start = time.perf_counter()
    server = ServerThread(
        data_dir, workers=1, execution="process", quotas=TenantQuotas(QUOTAS)
    )
    server.start()
    try:
        health = server.client().request("GET", "/healthz")
        if health.status != 200:
            raise RuntimeError(f"/healthz answered {health.status}")
    except BaseException:
        stop_server(server)
        raise
    return server, time.perf_counter() - start


def stop_server(server: ServerThread) -> None:
    """Stop the server and wait for its pool's worker processes to end."""
    server.stop()
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5.0)


def run_service_rep(
    inputs: ServiceInputs, recorder: Optional[SpanRecorder] = None
) -> ServiceRep:
    """Phase A (cold, unique specs) then phase B (hot, seeded mix) against
    one fresh server; spans, when recorded, are client-side only."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="service-") as data_dir:
        server, setup_s = start_server(data_dir)
        try:
            return _drive_server(server, setup_s, inputs, recorder)
        finally:
            stop_server(server)


def _drive_server(
    server: ServerThread,
    setup_s: float,
    inputs: ServiceInputs,
    recorder: Optional[SpanRecorder],
) -> ServiceRep:
    rep = ServiceRep(
        setup_s=setup_s,
        phase_a_s=0.0,
        phase_b_s=0.0,
        submit_to_artifact_s=[],
        result_fetch_s=[],
        request_ms={kind: [] for kind, _ in REQUEST_MIX},
        statuses={},
        results={},
    )
    lock = threading.Lock()
    errors: List[BaseException] = []

    def timed(client, kind: str, index: int):
        start = time.perf_counter()
        if kind == "submit":
            resp = client.submit(inputs.docs[index], tenant="bench")
        elif kind == "status":
            resp = client.status(inputs.keys[index])
        else:
            resp = client.result(inputs.keys[index])
        end = time.perf_counter()
        with lock:
            rep.statuses[resp.status] = rep.statuses.get(resp.status, 0) + 1
        if recorder is not None:
            recorder.add(f"service.{kind}", start, end)
        return resp, end - start

    def cold(client_index: int) -> None:
        client = server.client()
        for index in range(client_index, len(inputs.specs), SERVICE_CLIENTS):
            start = time.perf_counter()
            resp, _ = timed(client, "submit", index)
            deadline = start + 60.0
            while resp.status in (200, 202) and resp.json["status"] not in (
                "done",
                "error",
                "cancelled",
            ):
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"spec {index} not done after 60 s")
                time.sleep(0.01)
                resp, _ = timed(client, "status", index)
            result, fetch_s = timed(client, "result", index)
            with lock:
                rep.submit_to_artifact_s.append(time.perf_counter() - start)
                rep.result_fetch_s.append(fetch_s)
                rep.results[index] = result.body if result.status == 200 else b""

    def hot(client_index: int) -> None:
        client = server.client()
        for kind, index in inputs.schedule[client_index]:
            _, seconds = timed(client, kind, index)
            with lock:
                rep.request_ms[kind].append(seconds * 1e3)

    def phase(target: Callable[[int], None]) -> float:
        def guarded(client_index: int) -> None:
            try:
                target(client_index)
            except BaseException as exc:  # re-raised on the caller's thread
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(i,), name=f"client-{i}")
            for i in range(SERVICE_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        if errors:
            raise errors[0]
        return seconds

    rep.phase_a_s = phase(cold)
    rep.phase_b_s = phase(hot)
    rep.stats = server.client().stats().json["stats"]
    return rep


def direct_artifact_bytes(spec: RunSpec) -> bytes:
    """What ``GET /result`` must return for ``spec``, computed in-process."""
    sim = Simulation(spec)
    sim.run()
    return dumps_artifact(sim.artifact()).encode("utf-8")


def artifact_zone_cycles(body: bytes) -> int:
    return int(json.loads(body.decode("utf-8"))["zone_cycles"])
