"""Render a :class:`Trace` for machines (golden files, Perfetto) or
humans (summary tables), and diff two canonical traces.

Canonical export is the regression currency: a schema-versioned JSON
document with sorted keys, 2-space indentation and a trailing newline.
Every value in it is a simulated quantity, so re-running the same deck
reproduces the document *byte for byte* — ``tests/golden/`` commits
these and CI diffs them on every push.

Chrome export targets the ``trace_event`` format (chrome://tracing,
Perfetto): complete ``"X"`` events, host serial work on tid 1 and
device kernels on tid 2, timestamps in simulated microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.observability.trace import Span, Trace

#: Canonical document identity; see DESIGN §8 for the update policy.
#: v2: ``meta`` gained ``kernel_backend`` — the engine the numeric
#: packed kernels ran on, the constant ``"numpy"`` since DESIGN §10.
#: v3: ``meta`` gained ``num_shards`` (always) and, for sharded runs
#: only, a ``shards`` section with the shard topology and per-shard
#: stage wall-clock — the canonical document's sole nondeterministic
#: field (DESIGN §12); golden comparisons strip it.
#: v4: ``meta`` gained ``refinement_policy`` (always) and
#: ``block_budget`` (budget-policy runs only); ``metrics`` gained the
#: per-cycle refinement counters (``refine_flags``, ``derefine_flags``,
#: ``derefine_blocked_gap``) and the ``refinement_indicator_max`` gauge
#: — the policy-registry tentpole (DESIGN §14).
CANONICAL_SCHEMA = "repro.trace"
CANONICAL_SCHEMA_VERSION = 4


# ----------------------------------------------------------- canonical


def _span_to_dict(span: Span) -> dict:
    doc: dict = {
        "cat": span.cat,
        "cycle": span.cycle,
        "dur": span.dur,
        "name": span.name,
        "t0": span.t0,
    }
    if span.meta:
        doc["meta"] = dict(span.meta)
    if span.children:
        doc["children"] = [_span_to_dict(c) for c in span.children]
    return doc


def to_canonical_dict(trace: Trace) -> dict:
    """The canonical document as a plain dict (pre-serialization)."""
    return {
        "schema": CANONICAL_SCHEMA,
        "schema_version": CANONICAL_SCHEMA_VERSION,
        "meta": dict(trace.meta),
        "total_seconds": trace.total_seconds,
        "regions": trace.region_totals(),
        "kernels": trace.kernel_totals(),
        "metrics": dict(trace.metrics),
        "spans": [_span_to_dict(s) for s in trace.spans],
    }


def to_canonical_json(trace: Trace) -> str:
    """Byte-exact serialization: sorted keys, indent 2, newline-final."""
    return (
        json.dumps(to_canonical_dict(trace), sort_keys=True, indent=2) + "\n"
    )


# -------------------------------------------------------------- chrome


def to_chrome_trace(trace: Trace) -> dict:
    """Chrome ``trace_event`` JSON of the span tree.

    Region and serial spans share the host lane (tid 1); kernel spans
    get the device lane (tid 2) — the Nsight-Systems-style two-track
    view of the run.  Nesting on a lane follows from the timestamps.
    """
    events: List[dict] = []
    for span in trace.walk():
        args: dict = {"cycle": span.cycle}
        args.update(span.meta)
        events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": span.t0 * 1e6,
                "dur": span.dur * 1e6,
                "pid": 1,
                "tid": 2 if span.cat == "kernel" else 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": CANONICAL_SCHEMA_VERSION,
            "source": "repro simulated platform",
            **{k: v for k, v in trace.meta.items()},
        },
    }


# ---------------------------------------------------------------- diff


@dataclass
class RegionDelta:
    """One region's total-time difference between two traces."""

    name: str
    a: float
    b: float

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change, against the larger side (symmetric)."""
        base = max(abs(self.a), abs(self.b))
        return self.delta / base if base > 0 else 0.0


def _region_totals_of(doc: Mapping) -> Dict[str, float]:
    return {
        name: times["serial"] + times["kernel"]
        for name, times in doc.get("regions", {}).items()
    }


def diff_region_totals(
    doc_a: Mapping, doc_b: Mapping
) -> List[RegionDelta]:
    """Per-region total-time deltas between two canonical documents."""
    for doc, label in ((doc_a, "A"), (doc_b, "B")):
        if doc.get("schema") != CANONICAL_SCHEMA:
            raise ValueError(
                f"trace {label} is not a canonical repro.trace document "
                f"(schema={doc.get('schema')!r})"
            )
    totals_a = _region_totals_of(doc_a)
    totals_b = _region_totals_of(doc_b)
    return [
        RegionDelta(name, totals_a.get(name, 0.0), totals_b.get(name, 0.0))
        for name in sorted(set(totals_a) | set(totals_b))
    ]


def render_trace_diff(
    deltas: List[RegionDelta], tolerance: float, title: str = "Trace diff"
) -> str:
    """ASCII diff table; regions beyond ``tolerance`` are flagged."""
    from repro.core.report import render_table

    rows = []
    for d in deltas:
        flag = "!" if abs(d.rel) > tolerance else ""
        rows.append(
            [
                d.name,
                f"{d.a:.6f}",
                f"{d.b:.6f}",
                f"{d.delta:+.6f}",
                f"{d.rel * 100:+.2f}%",
                flag,
            ]
        )
    return render_table(
        ["region", "A_s", "B_s", "delta_s", "rel", ">tol"], rows, title=title
    )


def within_tolerance(deltas: List[RegionDelta], tolerance: float) -> bool:
    return all(abs(d.rel) <= tolerance for d in deltas)


# ------------------------------------------------------------- summary


def render_trace_summary(trace_doc: Mapping, top: int = 12) -> str:
    """Human summary of a canonical document: regions, kernels, counters."""
    from repro.core.report import render_table

    total = trace_doc.get("total_seconds", 0.0)
    region_rows = []
    regions = trace_doc.get("regions", {})
    ranked = sorted(
        regions.items(),
        key=lambda kv: kv[1]["serial"] + kv[1]["kernel"],
        reverse=True,
    )
    for name, times in ranked[:top]:
        t = times["serial"] + times["kernel"]
        share = 100.0 * t / total if total else 0.0
        region_rows.append(
            [name, f"{times['serial']:.4f}", f"{times['kernel']:.4f}",
             f"{share:.1f}"]
        )
    parts = [
        f"trace: {total:.4f} simulated seconds, "
        f"schema v{trace_doc.get('schema_version')}",
        "",
        render_table(
            ["region", "serial_s", "kernel_s", "share_%"],
            region_rows,
            title="Per-region breakdown",
        ),
    ]
    kernels = trace_doc.get("kernels", {})
    if kernels:
        ranked_k = sorted(kernels.items(), key=lambda kv: kv[1], reverse=True)
        parts += [
            "",
            render_table(
                ["kernel", "seconds"],
                [[n, f"{s:.4f}"] for n, s in ranked_k[:top]],
                title="Top kernels",
            ),
        ]
    counters = trace_doc.get("metrics", {}).get("counters", {})
    if counters:
        parts += [
            "",
            render_table(
                ["counter", "value"],
                [[n, v] for n, v in sorted(counters.items())],
                title="Counters",
            ),
        ]
    return "\n".join(parts)
