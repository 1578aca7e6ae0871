"""Direct calls into layers the timed runs only touch in passing.

Each probe calls public functions of one layer with inputs a workload
already made, and returns per-layer metrics by their ``BENCHMARK.json``
names.  Server-side work is measured here, by calling it directly, not by
patching the forked worker.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro.api import RunSpec, Simulation
from repro.observability import to_canonical_json
from repro.orchestration.artifacts import (
    dumps_artifact,
    result_to_artifact,
    write_artifact,
)
from repro.orchestration.cache import RunCache
from repro.orchestration.worker import PointTask, execute_point
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
from repro.service.jobs import (
    DONE,
    JOURNAL_NAME,
    QUEUE_SCHEMA_VERSION,
    Job,
    JobQueue,
)

from report import OUT_DIR, REPO_ROOT
from workloads import VIBE_DECK


def _median_us(call: Callable[[], object], repeats: int = 200) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def api_probe() -> Dict[str, float]:
    """Import, deck parse, cache key and JSON wire form of ``repro.api``."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    imports = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.api"], env=env, check=True
        )
        imports.append(time.perf_counter() - start)
    spec = RunSpec.from_file(VIBE_DECK)
    return {
        "api.import_s": statistics.median(imports),
        "api.spec_parse_us": _median_us(lambda: RunSpec.from_file(VIBE_DECK)),
        "api.cache_key_us": _median_us(spec.cache_key),
        "api.json_roundtrip_us": _median_us(
            lambda: RunSpec.from_json(json.loads(json.dumps(spec.to_json())))
        ),
    }


def orchestration_probe(specs: Sequence[RunSpec]) -> Dict[str, float]:
    """What the service's worker does per unique spec, called directly."""
    OUT_DIR.mkdir(exist_ok=True)
    execute_s: List[float] = []
    write_us: List[float] = []
    load_us: List[float] = []
    sizes: List[int] = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache-") as root:
        cache = RunCache(root)
        for spec in specs:
            start = time.perf_counter()
            artifact = execute_point(PointTask(spec=spec))
            execute_s.append(time.perf_counter() - start)
            if artifact.get("status") != "ok":
                raise RuntimeError(f"execute_point failed: {artifact.get('error')}")
            path = cache.path(artifact["cache_key"])
            start = time.perf_counter()
            write_artifact(path, artifact)
            write_us.append((time.perf_counter() - start) * 1e6)
            start = time.perf_counter()
            cache.load(artifact["cache_key"])
            load_us.append((time.perf_counter() - start) * 1e6)
            sizes.append(len(dumps_artifact(artifact).encode("utf-8")))
    result = Simulation(specs[0]).run()
    return {
        "orchestration.execute_point_s": statistics.median(execute_s),
        "orchestration.artifact_build_us": _median_us(
            lambda: result_to_artifact(specs[0], result), repeats=20
        ),
        "orchestration.artifact_write_us": statistics.median(write_us),
        "orchestration.artifact_bytes": statistics.median(sizes),
        "orchestration.cache_load_us": statistics.median(load_us),
    }


def journal_probe(specs: Sequence[RunSpec], standing_jobs: int) -> float:
    """Median microseconds per ``JobQueue`` mutation (submit, claim,
    finish) on a journal already holding ``standing_jobs`` finished jobs.

    Every mutation rewrites the whole journal, so the cost grows with the
    working set; the standing jobs are written straight into the
    documented ``queue.json`` form rather than paid for one fsync each.
    """
    OUT_DIR.mkdir(exist_ok=True)
    deck = specs[0].to_deck()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="journal-") as root:
        standing = [
            Job(key=f"{i:064x}", deck=deck, seq=i + 1, status=DONE).to_dict()
            for i in range(standing_jobs)
        ]
        (Path(root) / JOURNAL_NAME).write_text(
            json.dumps(
                {
                    "schema_version": QUEUE_SCHEMA_VERSION,
                    "seq": standing_jobs,
                    "jobs": standing,
                }
            )
        )
        queue = JobQueue(root)
        samples = []
        for spec in specs:
            for mutate in (
                partial(queue.submit, spec, tenant="bench"),
                queue.claim,
                partial(queue.finish, spec.cache_key(), DONE),
            ):
                start = time.perf_counter()
                mutate()
                samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def observability_probe(spec: RunSpec) -> Dict[str, float]:
    """The program's own simulated-clock tracing, switched on."""
    sim = Simulation(spec, trace=True)
    sim.driver  # noqa: B018 — keep construction out of the timed run
    start = time.perf_counter()
    sim.run()
    traced_run_s = time.perf_counter() - start
    trace = sim.trace()
    start = time.perf_counter()
    to_canonical_json(trace)
    export_s = time.perf_counter() - start
    return {
        "observability.traced_run_s": traced_run_s,
        "observability.trace_spans": sum(1 for _ in trace.walk()),
        "observability.trace_export_s": export_s,
    }


def checkpoint_probe(driver) -> Dict[str, float]:
    """One checkpoint write + read of a finished, unwrapped driver."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="checkpoint-") as root:
        start = time.perf_counter()
        manifest = write_checkpoint(root, driver)
        write_s = time.perf_counter() - start
        start = time.perf_counter()
        read_checkpoint(manifest)
        read_s = time.perf_counter() - start
        payload_bytes = json.loads(manifest.read_text())["payload_bytes"]
    return {
        "resilience.checkpoint.write_s": write_s,
        "resilience.checkpoint.read_s": read_s,
        "resilience.checkpoint.bytes": payload_bytes,
    }
