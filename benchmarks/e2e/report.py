"""Paths, statistics, provenance and the ``compare`` verdicts.

Nothing here imports the program, so ``run.py compare`` works on two
result files alone.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parents[1]
#: Everything the benchmark writes while it runs (git-ignored).
OUT_DIR = E2E_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
REFERENCE_JSON = E2E_DIR / "reference.json"

#: Host conditions the benchmark pins so that runs repeat; export the
#: variable yourself to measure the other way.  numpy asks for transparent
#: huge pages on large arrays by default; on the VM the baseline was taken
#: on, whether a pack's first touch then stalls in the kernel flips per
#: process and per repetition (``numeric_amr`` ``run_s`` 3.0 s or 3.2 s,
#: its slowest cycle 1.34 s or 1.56 s).  Without the request every run is in
#: the faster mode and spreads fall from 6% / 14% to 2%.
PINNED_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}
#: Variables that change what is measured, recorded with every document.
RECORDED_ENV = tuple(PINNED_ENV) + ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SCHEMA = "repro.bench_e2e"
SCHEMA_VERSION = 1

#: Candidate tail percentiles, lowest first.
_TAIL_LADDER = (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def pin_environment() -> None:
    """Apply :data:`PINNED_ENV`; must run before numpy is imported."""
    for name, value in PINNED_ENV.items():
        os.environ.setdefault(name, value)


# ------------------------------------------------------------ statistics


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile that still has at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(samples)
    usable = [p for p in _TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0]
    if not usable:
        return None
    return usable[-1], percentile(samples, usable[-1])


def summarize(
    per_rep: Sequence[float], pooled: Optional[Sequence[float]] = None
) -> dict:
    """One metric: the median of its per-repetition values, their count,
    and — when the raw ``pooled`` samples behind them are given — the
    highest percentile the sample count supports."""
    doc = {
        "value": statistics.median(per_rep),
        "n": len(per_rep),
        "samples": list(per_rep),
    }
    if pooled is not None:
        doc["pooled_n"] = len(pooled)
        tail = tail_percentile(pooled)
        if tail is not None:
            doc["tail"] = {"p": tail[0], "value": tail[1]}
    return doc


def spread(samples: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    center = statistics.median(samples)
    return (q3 - q1) / abs(center) if center else math.inf


def median_uncertainty(samples: Sequence[float]) -> float:
    """How far the median of these repetitions can be trusted, as a share
    of it: their spread shrunk by the square root of their number, since
    the median of n samples scatters about 1/sqrt(n) as much as one does."""
    return spread(samples) / math.sqrt(len(samples)) if samples else 0.0


# ------------------------------------------------------------ provenance


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def _module_version(name: str) -> Optional[str]:
    try:
        module = __import__(name)
    except ImportError:
        return None
    return getattr(module, "__version__", "unknown")


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, seconds: float, quick: bool) -> dict:
    """The stamp every recorded benchmark document carries: which host
    could exercise what, which versions ran, which commit and inputs."""
    return {
        "usable_cpus": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _module_version("numpy"),
        "numba": _module_version("numba"),
        "git_sha": _git_sha(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
        "seed": seed,
        "seconds": seconds,
        "scale": "quick" if quick else "full",
        "argv": sys.argv[1:],
    }


# --------------------------------------------------------------- tables


def render_metrics(
    workload: str, metrics: Dict[str, dict], units: Dict[str, str], note: str = ""
) -> str:
    """``workload  metric  value unit  (n=..., pNN=...)`` lines."""
    lines = []
    for name, doc in metrics.items():
        extra = [f"n={doc['n']}"] if "n" in doc else []
        if "tail" in doc:
            extra.append(f"p{doc['tail']['p']:g}={doc['tail']['value']:.6g}")
        if note:
            extra.append(note)
        lines.append(
            f"{workload:<24} {name:<44} {doc['value']:>14.6g} {units[name]:<6}"
            + (f" ({', '.join(extra)})" if extra else "")
        )
    return "\n".join(lines)


# -------------------------------------------------------------- compare


def _worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if other == base else math.inf
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def compare(doc_a: dict, doc_b: dict, benchmark: dict) -> Tuple[List[str], bool]:
    """Per workload x end-to-end metric: both medians, ``B / A`` with A as
    the base, and a verdict against the bounds ``BENCHMARK.json`` fixes.

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: it is not, but either side's median is itself
    uncertain by more than the bound (:func:`median_uncertainty` over its
    repetitions), so "unchanged" cannot be claimed.  Returns the report
    lines and whether anything failed (a ``worse``, or a higher failed-op
    share).
    """
    lines = [
        f"{'workload':<24} {'metric':<22} {'A':>12} {'B':>12} "
        f"{'B/A (base A)':>13} {'bound':>6} {'+-A/+-B':>13}  verdict"
    ]
    failed = False
    for workload, row_a in doc_a["workloads"].items():
        row_b = doc_b["workloads"].get(workload)
        if row_b is None:
            lines.append(f"{workload:<24} missing from B")
            failed = True
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a, b = row_a["end_to_end"].get(name), row_b["end_to_end"].get(name)
            if a is None or b is None:
                lines.append(f"{workload:<24} {name:<22} missing")
                failed = True
                continue
            worse_by = _worsening(a["value"], b["value"], spec["better"])
            spread_a = median_uncertainty(a.get("samples", []))
            spread_b = median_uncertainty(b.get("samples", []))
            if worse_by > spec["bound"]:
                verdict = "worse"
                failed = True
            elif max(spread_a, spread_b) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            ratio = b["value"] / a["value"] if a["value"] else math.nan
            lines.append(
                f"{workload:<24} {name:<22} {a['value']:>12.5g} {b['value']:>12.5g} "
                f"{ratio:>13.4f} {spec['bound']:>6.2f} "
                f"{spread_a:>6.3f}/{spread_b:<6.3f}  {verdict}"
            )
        share_a = row_a["failed"] / max(row_a["attempted"], 1)
        share_b = row_b["failed"] / max(row_b["attempted"], 1)
        if share_b > share_a:
            lines.append(
                f"{workload:<24} failed-op share rose from {share_a:.4f} "
                f"({row_a['failed']}/{row_a['attempted']}) to {share_b:.4f} "
                f"({row_b['failed']}/{row_b['attempted']})"
            )
            failed = True
    return lines, failed
