"""One workload, one pass: the untraced pass gives the end-to-end
metrics, the traced pass gives the per-layer ones.

Run protocol, both passes: one discarded warm-up repetition (imports,
``lru_cache`` tables and the allocator's first touches are not what a
steady user pays), then repetitions until ``seconds`` have elapsed.  The
traced pass alternates untraced and traced repetitions, so the tracing
overhead is measured within one process.  Timings are reported as the
median over repetitions.
"""

from __future__ import annotations

import json
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import checks
import probes
import workloads as wl
from report import OUT_DIR, REFERENCE_JSON, percentile, summarize
from spans import SpanRecorder

#: Set-up is cheap next to a run, so it is repeated on its own until
#: there are this many samples behind its median (or the time is spent).
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 2.0

#: Layers whose spans are the driver's own time, not a wrapped layer's.
DRIVER_SPANS = ("run", "cycle", "finish")


@dataclass
class Outcome:
    """What one pass of one workload measured and checked."""

    metrics: Dict[str, dict]
    attempted: int
    problems: List[str]
    #: Operations that failed outright (unexpected HTTP statuses); every
    #: failed check counts as one more.
    failed_ops: int = 0
    #: Simulated statistics of this run, in ``reference.json`` form.
    digest: Optional[dict] = None

    @property
    def failed(self) -> int:
        return max(self.failed_ops, len(self.problems))


def _rounds(seconds: float, quick: bool) -> Iterator[int]:
    """Round numbers until ``seconds`` have elapsed (one round when
    ``quick``); the time a round takes counts against the budget."""
    start = time.perf_counter()
    number = 0
    while True:
        yield number
        number += 1
        if quick or time.perf_counter() - start >= seconds:
            return


def _more_setups(
    setups: List[float], one_setup: Callable[[], float], target: int, quick: bool
) -> List[float]:
    """Top ``setups`` up to ``target`` samples with set-up-only runs."""
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while not quick and len(setups) < target and time.perf_counter() < deadline:
        setups.append(one_setup())
    return setups


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def _reference(workload: str, seed: int, quick: bool) -> Tuple[bool, Optional[dict]]:
    """``(applies, entry)``: the reference pins seed 0 at full scale only."""
    if seed != 0 or quick:
        return False, None
    if not REFERENCE_JSON.is_file():
        return True, None
    return True, json.loads(REFERENCE_JSON.read_text()).get(workload)


# ------------------------------------------------------ simulation passes


def _check_sim(
    workload: str, results: list, seed: int, quick: bool, skip_reference: bool
) -> Tuple[List[str], dict]:
    """Checks shared by both passes: ``(problems, digest)``."""
    mode = results[0].config.mode
    problems = checks.check_identical(results, "repetitions")
    if mode == "numeric":
        problems += checks.check_mass_conserved(results[0])
    if workload == "numeric_uniform_shards2":
        serial = wl.run_sim_rep(wl.make_inputs("numeric_uniform", seed, quick))
        problems += checks.check_identical(
            [serial.result, results[0]], "sharded vs serial"
        )
    digest = checks.result_digest(results[0])
    applies, reference = _reference(workload, seed, quick)
    if applies and not skip_reference:
        if reference is None:
            problems.append(f"no entry for {workload} in {REFERENCE_JSON.name}")
        else:
            problems += checks.check_reference(digest, reference, mode)
    return problems, digest


def _one_sim_setup(inputs: wl.SimInputs) -> float:
    sim, setup_s = wl.build_ready(inputs)
    sim.driver.shutdown_shards()
    return setup_s


def measure_sim(
    workload: str,
    seed: int,
    seconds: float,
    quick: bool = False,
    skip_reference: bool = False,
) -> Outcome:
    """Untraced pass of a simulation workload: the end-to-end metrics."""
    inputs = wl.make_inputs(workload, seed, quick)
    results = [] if quick else [wl.run_sim_rep(inputs).result]
    reps = [wl.run_sim_rep(inputs) for _ in _rounds(seconds, quick)]
    results += [rep.result for rep in reps]
    setups = _more_setups(
        [rep.setup_s for rep in reps],
        lambda: _one_sim_setup(inputs),
        SETUP_SAMPLES,
        quick,
    )
    rss_mb = _peak_rss_mb()  # before the checks run anything extra

    problems, digest = _check_sim(workload, results, seed, quick, skip_reference)
    cycles_ms = [[s * 1e3 for s in rep.cycle_s] for rep in reps]
    pooled = [ms for rep in cycles_ms for ms in rep]
    metrics = {
        "setup_s": summarize(setups),
        "run_s": summarize([rep.run_s for rep in reps]),
        "zone_cycles_per_s": summarize(
            [rep.zone_cycles / rep.run_s for rep in reps]
        ),
        "peak_rss_mb": summarize([rss_mb]),
        "submit_to_artifact_s": summarize(
            [rep.submit_to_artifact_s for rep in reps]
        ),
        "op_p50_ms": summarize([percentile(ms, 50) for ms in cycles_ms], pooled),
        "op_p90_ms": summarize([percentile(ms, 90) for ms in cycles_ms], pooled),
        "ops_per_s": summarize([len(rep.cycle_s) / rep.run_s for rep in reps]),
    }
    return Outcome(metrics, attempted=len(pooled), problems=problems, digest=digest)


#: Wrapped spans reported as ``<name>_s`` self seconds.
TIMED_LAYERS = (
    "comm.bvals.send_bound_bufs",
    "comm.bvals.receive_bound_bufs",
    "comm.bvals.set_bounds",
    "comm.bvals.rebuild",
    "comm.flux_correction.correct",
    "mesh.remesh",
    "mesh.refinement.collect_flags",
    "mesh.loadbalance.balance",
    "solver.packs.build",
    "parallel.lifecycle",
) + tuple(f"kernels.{stage}" for stage in wl.KERNEL_STAGES)

#: Counts harvested from wrapped calls, reported under their own names.
COUNTED = (
    "kernels.flux_cells",
    "kernels.flux_bytes_computed",
    "comm.bvals.buffers_packed",
    "comm.bvals.ghost_cells",
    "comm.bvals.ghost_bytes",
    "comm.bvals.prolongations",
    "comm.bvals.restrictions",
    "comm.flux_correction.corrections",
    "mesh.blocks_created",
    "mesh.blocks_destroyed",
    "solver.packs.bytes",
)

MPI_COUNTERS = (
    "remote_messages",
    "remote_bytes",
    "allreduce_calls",
    "allgather_calls",
)


def _per(seconds: float, count: float, scale: float) -> float:
    return seconds / count * scale if count else 0.0


def _layer_metrics(rec: SpanRecorder, rep: wl.SimRep) -> Dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    self_s = rec.self_seconds()
    calls = rec.calls()
    counts = rec.counts
    metrics: Dict[str, float] = {
        f"{name}_s": self_s.get(name, 0.0) for name in TIMED_LAYERS
    }
    metrics.update({name: counts[name] for name in COUNTED})
    metrics.update(
        {f"comm.mpi.{name}": rep.result.mpi_counters[name] for name in MPI_COUNTERS}
    )
    metrics["comm.bvals.rebuild_calls"] = calls.get("comm.bvals.rebuild", 0)
    metrics["mesh.remesh_calls"] = calls.get("mesh.remesh", 0)
    metrics["solver.packs.build_calls"] = calls.get("solver.packs.build", 0)

    metrics["kernels.flux_ns_per_cell"] = _per(
        self_s.get("kernels.calculate_fluxes", 0.0), counts["kernels.flux_cells"], 1e9
    )
    ghost_s = sum(
        seconds for name, seconds in self_s.items()
        if name.startswith("comm.bvals.") and name != "comm.bvals.rebuild"
    )
    metrics["comm.bvals.ns_per_ghost_cell"] = _per(
        ghost_s, counts["comm.bvals.ghost_cells"], 1e9
    )
    metrics["comm.bvals.rebuild_us_per_block"] = _per(
        self_s.get("comm.bvals.rebuild", 0.0), counts["comm.bvals.rebuild_blocks"], 1e6
    )

    metrics["driver.init_s"] = rep.setup_s
    metrics["driver.self_s"] = sum(self_s.get(name, 0.0) for name in DRIVER_SPANS)
    metrics["driver.cycle_p50_ms"] = statistics.median(rep.cycle_s) * 1e3

    stage_seconds = rep.result.shards.get("stage_seconds", {})
    if stage_seconds:
        busy = [sum(stages.values()) for stages in stage_seconds.values()]
        parent_stage_s = sum(
            self_s.get(f"kernels.{stage}", 0.0) for stage in wl.KERNEL_STAGES
        )
        metrics["parallel.worker_busy_s"] = max(busy)
        metrics["parallel.parent_wait_s"] = parent_stage_s - max(busy)
        metrics["parallel.imbalance"] = max(busy) / statistics.mean(busy)
    return metrics


def _median_by_name(per_rep: List[Dict[str, float]]) -> Dict[str, dict]:
    """Per-layer metrics of a pass: the median over its traced reps."""
    return {
        name: {
            "value": statistics.median(metrics[name] for metrics in per_rep),
            "n": len(per_rep),
        }
        for name in per_rep[0]
    }


def _single(values: Dict[str, float]) -> Dict[str, dict]:
    """Probe results: measured once per pass (medians inside the probe)."""
    return {name: {"value": value, "n": 1} for name, value in values.items()}


def _overhead(traced_s: List[float], untraced_s: List[float]) -> float:
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0


def _write_spans(workload: str, rec: SpanRecorder) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace_{workload}.json").write_text(
        json.dumps({"workload": workload, "spans": rec.to_rows()})
    )


def trace_sim(
    workload: str,
    seed: int,
    seconds: float,
    quick: bool = False,
    skip_reference: bool = False,
) -> Outcome:
    """Traced pass of a simulation workload: the per-layer metrics."""
    inputs = wl.make_inputs(workload, seed, quick)
    sharded = workload == "numeric_uniform_shards2"
    serial_inputs = wl.make_inputs("numeric_uniform", seed, quick)
    results = [] if quick else [wl.run_sim_rep(inputs).result]
    untraced_s: List[float] = []
    traced_s: List[float] = []
    serial_s: List[float] = []
    layers: List[Dict[str, float]] = []
    cycles = 0
    once: Dict[str, float] = {}
    for number in _rounds(seconds, quick):
        untraced = wl.run_sim_rep(inputs)
        recorder = SpanRecorder(f"{workload}/seed{seed}/rep{number}")
        # The checkpoint probe wants one finished driver (unwrapped again
        # by then); held any longer, its packs would keep the next
        # repetition from reusing their memory and skew the overhead.
        probe_checkpoint = workload == "numeric_amr" and number == 0
        traced = wl.run_sim_rep(inputs, recorder, keep_driver=probe_checkpoint)
        if probe_checkpoint:
            once.update(probes.checkpoint_probe(traced.driver))
            traced.driver = None
        untraced_s.append(untraced.run_s)
        traced_s.append(traced.run_s)
        layers.append(_layer_metrics(recorder, traced))
        results += [untraced.result, traced.result]
        cycles += len(untraced.cycle_s) + len(traced.cycle_s)
        if sharded:
            serial_s.append(wl.run_sim_rep(serial_inputs).run_s)
    _write_spans(workload, recorder)

    problems, digest = _check_sim(workload, results, seed, quick, skip_reference)
    # Counts are exact: every traced repetition must report the same ones.
    for name in COUNTED:
        values = {metrics[name] for metrics in layers}
        if len(values) > 1:
            problems.append(f"count {name} varies across reps: {values}")

    metrics = _median_by_name(layers)
    once["trace.overhead_frac"] = _overhead(traced_s, untraced_s)
    if sharded:
        once["parallel.speedup_vs_serial"] = statistics.median(
            serial_s
        ) / statistics.median(untraced_s)
    once.update(probes.api_probe())
    if workload == "modeled_vibe128":
        once.update(probes.observability_probe(inputs.build_spec()))
    metrics.update(_single(once))
    return Outcome(metrics, attempted=cycles, problems=problems, digest=digest)


# --------------------------------------------------------- service passes


def _one_service_setup() -> float:
    """Start -> ``/healthz`` on a fresh data dir, then stop."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="setup-") as root:
        server, setup_s = wl.start_server(root)
        wl.stop_server(server)
    return setup_s


def _zone_cycles(rep: wl.ServiceRep) -> int:
    return sum(wl.artifact_zone_cycles(body) for body in rep.results.values())


def _check_service(
    inputs: wl.ServiceInputs,
    reps: List[wl.ServiceRep],
    seed: int,
    quick: bool,
    skip_reference: bool,
) -> Tuple[List[str], Optional[dict]]:
    """``(problems, digest)``; no digest when a result body is unusable."""
    sampled = seed % len(inputs.specs)
    direct = wl.direct_artifact_bytes(inputs.specs[sampled])
    problems: List[str] = []
    for index, rep in enumerate(reps):
        problems += [
            f"rep {index}: {problem}"
            for problem in checks.check_service(
                rep.statuses, rep.stats, rep.results, len(inputs.specs), sampled, direct
            )
        ]
    if problems:
        return problems, None
    digest = {"zone_cycles_total": _zone_cycles(reps[0])}
    applies, reference = _reference(wl.SERVICE_WORKLOAD, seed, quick)
    if applies and not skip_reference and reference != digest:
        problems.append(f"digest {digest} differs from reference {reference}")
    return problems, digest


def _service_outcome(
    metrics: Dict[str, dict],
    reps: List[wl.ServiceRep],
    problems: List[str],
    digest: Optional[dict],
) -> Outcome:
    return Outcome(
        metrics,
        attempted=sum(rep.requests for rep in reps),
        problems=problems,
        failed_ops=sum(
            n for rep in reps for s, n in rep.statuses.items() if s not in (200, 202)
        ),
        digest=digest,
    )


def _warm_service(seed: int, quick: bool) -> None:
    """A quick-sized repetition: every real one forks a fresh worker from
    this process anyway, so only this process needs warming."""
    if not quick:
        wl.run_service_rep(wl.make_inputs(wl.SERVICE_WORKLOAD, seed, quick=True))


def measure_service(
    seed: int, seconds: float, quick: bool = False, skip_reference: bool = False
) -> Outcome:
    """Untraced pass of ``service_sweep``: the end-to-end metrics."""
    inputs = wl.make_inputs(wl.SERVICE_WORKLOAD, seed, quick)
    _warm_service(seed, quick)
    reps = [wl.run_service_rep(inputs) for _ in _rounds(seconds, quick)]
    setups = _more_setups(
        [rep.setup_s for rep in reps], _one_service_setup, 2 * SETUP_SAMPLES, quick
    )
    rss_mb = _peak_rss_mb()

    problems, digest = _check_service(inputs, reps, seed, quick, skip_reference)
    if digest is None:  # no metrics from bodies that cannot be read
        return _service_outcome({}, reps, problems, digest)
    requests_ms = [rep.all_requests_ms() for rep in reps]
    pooled = [ms for rep_ms in requests_ms for ms in rep_ms]
    metrics = {
        "setup_s": summarize(setups),
        "run_s": summarize([rep.run_s for rep in reps]),
        "zone_cycles_per_s": summarize(
            [_zone_cycles(rep) / rep.phase_a_s for rep in reps]
        ),
        "peak_rss_mb": summarize([rss_mb]),
        "submit_to_artifact_s": summarize(
            [statistics.median(rep.submit_to_artifact_s) for rep in reps],
            [s for rep in reps for s in rep.submit_to_artifact_s],
        ),
        "op_p50_ms": summarize([percentile(ms, 50) for ms in requests_ms], pooled),
        "op_p90_ms": summarize([percentile(ms, 90) for ms in requests_ms], pooled),
        "ops_per_s": summarize(
            [len(ms) / rep.phase_b_s for ms, rep in zip(requests_ms, reps)]
        ),
    }
    return _service_outcome(metrics, reps, problems, digest)


def _service_layers(rep: wl.ServiceRep) -> Dict[str, float]:
    stats = rep.stats
    return {
        "service.submit_ms_p50": percentile(rep.request_ms["submit"], 50),
        "service.status_ms_p50": percentile(rep.request_ms["status"], 50),
        "service.result_ms_p50": percentile(rep.request_ms["result"], 50),
        "service.request_ms_p98": percentile(rep.all_requests_ms(), 98),
        "service.dedup_ratio": (stats["coalesced"] + stats["cache_hits"])
        / (stats["submitted"] + stats["coalesced"]),
    }


def trace_service(
    seed: int, seconds: float, quick: bool = False, skip_reference: bool = False
) -> Outcome:
    """Traced pass of ``service_sweep``: client-side request spans plus
    direct calls into the layers the server's worker runs."""
    inputs = wl.make_inputs(wl.SERVICE_WORKLOAD, seed, quick)
    _warm_service(seed, quick)
    untraced: List[wl.ServiceRep] = []
    traced: List[wl.ServiceRep] = []
    for number in _rounds(seconds, quick):
        untraced.append(wl.run_service_rep(inputs))
        recorder = SpanRecorder(f"{wl.SERVICE_WORKLOAD}/seed{seed}/rep{number}")
        traced.append(wl.run_service_rep(inputs, recorder))
    _write_spans(wl.SERVICE_WORKLOAD, recorder)
    reps = untraced + traced
    problems, digest = _check_service(inputs, reps, seed, quick, skip_reference)

    metrics = _median_by_name([_service_layers(rep) for rep in traced])
    # A stratified handful of the unique specs, called directly.
    by_mesh = sorted(inputs.specs, key=lambda spec: spec.params.mesh_size)
    direct_specs = by_mesh[:: max(1, len(by_mesh) // 8)]
    once = probes.orchestration_probe(direct_specs)
    once["service.queue_wait_s"] = (
        statistics.median(s for rep in traced for s in rep.submit_to_artifact_s)
        - once["orchestration.execute_point_s"]
        - statistics.median(s for rep in traced for s in rep.result_fetch_s)
    )
    once["service.jobs.mutation_us_n32"] = probes.journal_probe(direct_specs, 32)
    once["service.jobs.mutation_us_n512"] = probes.journal_probe(direct_specs, 512)
    once["trace.overhead_frac"] = _overhead(
        [rep.run_s for rep in traced], [rep.run_s for rep in untraced]
    )
    once.update(probes.api_probe())
    metrics.update(_single(once))
    return _service_outcome(metrics, reps, problems, digest)


# ----------------------------------------------------------------- entry


def run_pass(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    skip_reference: bool = False,
) -> Outcome:
    if workload == wl.SERVICE_WORKLOAD:
        run = trace_service if trace else measure_service
        return run(seed, seconds, quick, skip_reference)
    run = trace_sim if trace else measure_sim
    return run(workload, seed, seconds, quick, skip_reference)
