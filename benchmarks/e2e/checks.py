"""Output checks: a speed change must leave every simulated statistic
identical.

Each check returns a list of problems (empty = passed), so the harness
can report all of them and count the failed operations.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.driver.driver import RunResult

#: Counts: integers, so they must match the reference exactly.
EXACT_FIELDS = (
    "final_blocks",
    "max_blocks",
    "zone_cycles",
    "cells_communicated",
    "remote_messages",
)
#: Simulated-clock outputs, compared to a relative tolerance.
CLOCK_FIELDS = ("wall_seconds", "kernel_seconds", "serial_seconds", "fom")

RTOL = {"modeled": 1e-12, "numeric": 1e-9}
MASS_RTOL = 1e-12


def result_digest(result: RunResult) -> dict:
    """The simulated statistics ``reference.json`` pins for one run."""
    digest: dict = {name: getattr(result, name) for name in EXACT_FIELDS}
    digest["mpi_counters"] = dict(result.mpi_counters)
    digest["clock"] = {name: getattr(result, name) for name in CLOCK_FIELDS}
    if result.history:
        last = result.history[-1]
        digest["history"] = {
            "scalar_totals": list(last.scalar_totals),
            "total_d": last.total_d,
            "max_speed": last.max_speed,
        }
    return digest


def _flatten(doc, prefix: str = "") -> Iterator[Tuple[str, object]]:
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _flatten(value, f"{prefix}{key}.")
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _flatten(value, f"{prefix}{index}.")
    else:
        yield prefix.rstrip("."), doc


def check_reference(digest: dict, reference: dict, mode: str) -> List[str]:
    """Compare a digest with its ``reference.json`` entry: integer fields
    (counts) exactly, floats (simulated clock, history totals) to the
    mode's relative tolerance."""
    rtol = RTOL[mode]
    got, want = dict(_flatten(digest)), dict(_flatten(reference))
    problems = []
    if got.keys() != want.keys():
        problems.append(
            f"fields differ from reference: {sorted(got.keys() ^ want.keys())}"
        )
    for name in sorted(got.keys() & want.keys()):
        a, b = got[name], want[name]
        if isinstance(a, int) and isinstance(b, int):
            same = a == b
        else:
            same = math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
        if not same:
            problems.append(f"{name}: got {a!r}, reference {b!r}")
    return problems


def comparable(result: RunResult) -> dict:
    """``RunResult`` as a plain dict, minus how it was executed: the shard
    count and the shard summary (host wall-clock) never enter identity."""
    config = dataclasses.replace(result.config, num_shards=1)
    return dataclasses.asdict(
        dataclasses.replace(result, config=config, shards={})
    )


def check_identical(results: Sequence[RunResult], what: str) -> List[str]:
    """Every result must equal the first, field for field."""
    first = comparable(results[0])
    problems = []
    for index, other in enumerate(results[1:], start=1):
        other_dict = comparable(other)
        if other_dict != first:
            fields = sorted(k for k in first if first[k] != other_dict[k])
            problems.append(f"{what}: result {index} differs in {fields}")
    return problems


def check_mass_conserved(result: RunResult) -> List[str]:
    """Each scalar's volume total must hold over the history rows."""
    problems = []
    rows = result.history
    for j in range(len(rows[0].scalar_totals) if rows else 0):
        first = rows[0].scalar_totals[j]
        drift = max(abs(row.scalar_totals[j] - first) for row in rows)
        if drift > MASS_RTOL * abs(first):
            problems.append(
                f"scalar {j} total drifts by {drift / abs(first):.3e} "
                f"(limit {MASS_RTOL:g})"
            )
    return problems


def check_service(
    statuses: Dict[int, int],
    stats: dict,
    results: Dict[int, bytes],
    unique_specs: int,
    sampled: int,
    direct_bytes: bytes,
) -> List[str]:
    """No 5xx or other surprise, every unique spec executed exactly once
    and readable, and one result byte-identical to a direct run."""
    problems = []
    unexpected = {s: n for s, n in statuses.items() if s not in (200, 202)}
    if unexpected:
        problems.append(f"unexpected HTTP statuses: {unexpected}")
    if stats.get("executed") != unique_specs:
        problems.append(
            f"executed {stats.get('executed')} runs for {unique_specs} unique specs"
        )
    missing = [i for i in range(unique_specs) if not results.get(i)]
    if missing:
        problems.append(f"no result body for specs {missing}")
    if results.get(sampled) != direct_bytes:
        problems.append(
            f"result of spec {sampled} differs from a direct Simulation run"
        )
    return problems
