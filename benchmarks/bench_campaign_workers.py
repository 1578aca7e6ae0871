"""Campaign pool speedup: a 2x2 sweep on 2 workers against 1.

A wall-clock assertion, so it lives with the benchmarks rather than in
the correctness suite; tier-1 keeps the functional half (2 workers write
byte-identical artifacts to 1, ``tests/test_orchestration.py::
TestCampaignRun::test_parallel_matches_serial_bitwise``).

Run: ``cd benchmarks && PYTHONPATH=../src python -m pytest
bench_campaign_workers.py -s``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.sweeps import grid_specs
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.orchestration import run_campaign

CONFIG = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) < 2,
    reason="needs >= 2 usable CPUs for a wall-clock speedup",
)
def test_two_workers_beat_one(tmp_path):
    """The acceptance bar: 2x2 mini sweep, 2 workers >= 1.5x faster."""
    base = SimulationParams(
        ndim=3, mesh_size=80, block_size=8, num_levels=2, num_scalars=8
    )
    specs = grid_specs(base, CONFIG, (80, 96), (8, 16), ncycles=2, warmup=1)
    t0 = time.perf_counter()
    run_campaign(specs, tmp_path / "w1", workers=1)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_campaign(specs, tmp_path / "w2", workers=2)
    parallel = time.perf_counter() - t0
    print(
        f"\ncampaign workers: 1 -> {serial:.2f}s, 2 -> {parallel:.2f}s, "
        f"speedup {serial / parallel:.2f}x"
    )
    assert serial / parallel >= 1.5, (
        f"2-worker speedup only {serial / parallel:.2f}x "
        f"({serial:.2f}s -> {parallel:.2f}s)"
    )
