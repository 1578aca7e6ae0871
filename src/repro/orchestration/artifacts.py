"""Structured run artifacts — the on-disk record of one sweep point.

Each completed point becomes one JSON document carrying everything the
reporting layer needs (FOM, per-region timings from the Kokkos-style
profiler, MPI counters, memory footprint), so figures regenerate from a
campaign directory without re-running anything.  The document is
*deterministic*: it contains only simulated quantities, never host
wall-clock timestamps, so re-executing an identical spec reproduces the
artifact byte-for-byte (the resume test relies on this).

Schema (``schema_version`` 6; v2 added the ``metrics`` section — the
:class:`repro.observability.MetricsRegistry` snapshot with counters,
gauges, histograms and the per-cycle counter series; v3 added the
*optional* ``resilience`` section, present only when a point resumed
from a checkpoint or ran with a fault plan armed; v4 added
``config.kernel_backend`` and the ok-document's top-level
``kernel_backend``, both the constant ``"numpy"`` since numpy became
the only kernel engine (DESIGN §10); v5 added
``config.num_shards`` plus the *optional* ``parallel`` section — shard
topology and per-shard stage timings, present only for sharded runs.
``parallel.stage_seconds`` holds host wall-clock measured inside the
shard workers: the one documented exception to the no-wall-clock rule
above, which is why it lives in its own optional section and why the
simulated quantities stay byte-reproducible — sharding is 0-ULP
identical to serial execution, DESIGN §12; v6 added the
refinement-policy axis — ``params.refinement_policy`` and
``params.block_budget`` — alongside the per-cycle refinement counters
that now ride in ``metrics``, DESIGN §14)::

    {
      "schema_version": 6,
      "status": "ok" | "error",
      "cache_key": "<sha256 of the spec's canonical identity>",
      "code_version": "<repro.__version__>",
      "label": "<presentation label>",
      "attempts": <int>,                       # 1 unless retries happened
      "spec": {"deck": "...", "ncycles": N, "warmup": N},
      "params": {ndim, mesh_size, block_size, num_levels, num_scalars,
                 refinement_policy, block_budget},
      "config": {backend, mode, kernel_mode, kernel_backend, num_shards,
                 total_ranks, describe},
      # status == "ok" only:
      "kernel_backend": "numpy",
      "fom": <zone-cycles/s>, "oom": bool, "cycles": N, "zone_cycles": N,
      "blocks": {"final": N, "max": N},
      "timings": {
        "wall_seconds": s, "kernel_seconds": s, "serial_seconds": s,
        "rebuild_buffer_cache_seconds": s,
        "regions": {name: {"serial": s, "kernel": s}},
        "kernels": {name: s}
      },
      "communication": {
        "cells_communicated": N, "cell_updates": N, "remote_messages": N,
        "mpi_counters": {<MPICounters fields>}
      },
      "memory": {"breakdown": {label: bytes}, "device_peak_bytes": N},
      "metrics": {
        "counters": {name: N}, "gauges": {name: x},
        "histograms": {name: {"buckets": {...}, "count", "sum", "min", "max"}},
        "per_cycle": [{"cycle": N, "counters": {...}}, ...]
      },
      # status == "error" only:
      "error": {"type": "...", "message": "...", "traceback": "..."},
      # optional (v3) — resumed and/or fault-injected points only:
      "resilience": {
        "resumed_from_cycle": N,                 # retry resumed here
        "faults": {"checks": {site: N}, "fired": {site: N}}
      },
      # optional (v5) — sharded (num_shards > 1) points only:
      "parallel": {
        "topology": {num_shards, generation, units, blocks, cost},
        "transport": "process" | "thread",
        "stage_seconds": {shard: {stage: s}}     # host wall-clock!
      }
    }
"""

from __future__ import annotations

import json
import os
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Union

from repro import __version__

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import RunSpec
    from repro.driver.driver import RunResult

ARTIFACT_SCHEMA_VERSION = 6


def _spec_header(spec: "RunSpec") -> dict:
    p, c = spec.params, spec.config
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "cache_key": spec.cache_key(),
        "code_version": __version__,
        "label": spec.label,
        "spec": {
            "deck": spec.to_deck(),
            "ncycles": spec.ncycles,
            "warmup": spec.warmup,
        },
        "params": {
            "ndim": p.ndim,
            "mesh_size": p.mesh_size,
            "block_size": p.block_size,
            "num_levels": p.num_levels,
            "num_scalars": p.num_scalars,
            # v6: the refinement-policy axis (DESIGN §14).
            "refinement_policy": p.refinement_policy,
            "block_budget": p.block_budget,
        },
        "config": {
            "backend": c.backend,
            "mode": c.mode,
            "kernel_mode": c.kernel_mode,
            "kernel_backend": "numpy",
            "num_shards": c.num_shards,
            "total_ranks": c.total_ranks,
            "describe": c.describe(),
        },
    }


def result_to_artifact(
    spec: "RunSpec", result: "RunResult", attempts: int = 1
) -> dict:
    """Reduce a :class:`RunResult` to the schema-1 "ok" document."""
    doc = _spec_header(spec)
    doc.update(
        status="ok",
        attempts=attempts,
        kernel_backend=result.kernel_backend,
        fom=result.fom,
        oom=result.oom,
        cycles=result.cycles,
        zone_cycles=result.zone_cycles,
        blocks={"final": result.final_blocks, "max": result.max_blocks},
        timings={
            "wall_seconds": result.wall_seconds,
            "kernel_seconds": result.kernel_seconds,
            "serial_seconds": result.serial_seconds,
            "rebuild_buffer_cache_seconds": result.rebuild_buffer_cache_seconds,
            "regions": {
                name: {"serial": serial, "kernel": kernel}
                for name, (serial, kernel) in result.function_breakdown.items()
            },
            "kernels": dict(result.kernel_seconds_by_name),
        },
        communication={
            "cells_communicated": result.cells_communicated,
            "cell_updates": result.cell_updates,
            "remote_messages": result.remote_messages,
            "mpi_counters": dict(result.mpi_counters),
        },
        memory={
            "breakdown": dict(result.memory_breakdown),
            "device_peak_bytes": result.device_memory_peak,
        },
        metrics=dict(result.metrics),
    )
    if result.shards:
        # v5 optional section; stage_seconds is worker wall-clock — the
        # schema's sole nondeterministic field (see module docstring).
        doc["parallel"] = dict(result.shards)
    return doc


def error_artifact(
    spec: "RunSpec", exc: BaseException, attempts: int
) -> dict:
    """The schema-1 "error" document for a point that kept failing."""
    doc = _spec_header(spec)
    doc.update(
        status="error",
        attempts=attempts,
        error={
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        },
    )
    return doc


def dumps_artifact(artifact: dict) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline."""
    return json.dumps(artifact, sort_keys=True, indent=2) + "\n"


def write_artifact(path: Union[str, Path], artifact: dict) -> Path:
    """Atomically persist one artifact (write-temp + rename), so a killed
    campaign never leaves a half-written point for resume to trip over."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_text(dumps_artifact(artifact))
    os.replace(tmp, path)
    return path


def load_artifact(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


def iter_artifacts(directory: Union[str, Path]) -> Iterator[dict]:
    """Artifacts in a directory, sorted by filename for stable reports."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield load_artifact(path)
