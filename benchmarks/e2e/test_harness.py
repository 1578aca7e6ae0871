"""Tests of the benchmark harness itself.

Run explicitly — ``PYTHONPATH=src python -m pytest benchmarks/e2e`` — they
stay outside tier-1's ``testpaths``.
"""

from __future__ import annotations

import copy
import dataclasses
import subprocess
import sys

import checks
import report
import workloads as wl
from spans import SpanRecorder


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder("synthetic")
    rec.add("run", 0.0, 10.0)  # index 0
    rec.add("cycle[0]", 1.0, 4.0, parent=0)  # index 1
    rec.add("kernel", 2.0, 3.0, parent=1)
    rec.add("cycle[1]", 5.0, 9.0, parent=0)  # index 3
    rec.add("kernel", 5.5, 6.0, parent=3)
    rec.add("ghost", 6.0, 8.0, parent=3)
    self_s = rec.self_seconds()
    assert self_s == {
        "run": 10.0 - (3.0 + 4.0),
        "cycle": (3.0 - 1.0) + (4.0 - 0.5 - 2.0),
        "kernel": 1.0 + 0.5,
        "ghost": 2.0,
    }
    # Self times partition the root span exactly.
    assert sum(self_s.values()) == 10.0
    assert rec.calls() == {"run": 1, "cycle": 2, "kernel": 2, "ghost": 1}


def test_wrapped_calls_nest_under_their_caller_and_restore():
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    layer = Layer()
    rec = SpanRecorder("nesting")
    seen = []
    rec.wrap(
        layer, "inner", "layer.inner", lambda result, args: seen.append((result, args))
    )
    rec.wrap(layer, "outer", "layer.outer")
    assert layer.outer(1) == 4
    assert seen == [(2, (1,))]
    (outer, inner) = rec.spans
    assert (outer[0], outer[3]) == ("layer.outer", -1)
    assert (inner[0], inner[3]) == ("layer.inner", 0)
    self_s = rec.self_seconds()
    assert self_s["layer.outer"] == (outer[2] - outer[1]) - (inner[2] - inner[1])
    rec.restore()
    assert vars(layer) == {}
    assert layer.outer(1) == 4 and len(rec.spans) == 2


def test_wrappers_leave_no_trace_and_do_not_change_the_result():
    inputs = wl.make_inputs("numeric_amr", seed=3, quick=True)
    balance = wl.driver_module.balance
    build_pack = wl.driver_module.build_numeric_pack
    plain = wl.run_sim_rep(inputs)
    rec = SpanRecorder("identity")
    traced = wl.run_sim_rep(inputs, rec, keep_driver=True)

    assert wl.driver_module.balance is balance
    assert wl.driver_module.build_numeric_pack is build_pack
    driver = traced.driver
    for owner in (driver.bx, driver.mesh, driver.fc, driver.policy, driver._packed):
        assert not any(
            getattr(value, "__name__", "") == "wrapper" for value in vars(owner).values()
        )

    assert checks.check_identical([plain.result, traced.result], "traced") == []
    assert checks.check_mass_conserved(traced.result) == []
    names = {row[0].partition("[")[0] for row in rec.spans}
    assert {
        "run",
        "cycle",
        "finish",
        "comm.bvals.set_bounds",
        "kernels.calculate_fluxes",
        "mesh.remesh",
        "solver.packs.build",
    } <= names
    assert rec.counts["comm.bvals.ghost_cells"] > 0
    # Every span closed, every child inside its parent.
    for name, start, end, parent in rec.spans:
        assert end >= start
        if parent >= 0:
            assert rec.spans[parent][1] <= start and end <= rec.spans[parent][2]


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    a = wl.make_inputs("service_sweep", seed=5, quick=True)
    b = wl.make_inputs("service_sweep", seed=5, quick=True)
    c = wl.make_inputs("service_sweep", seed=6, quick=True)
    assert (a.keys, a.schedule) == (b.keys, b.schedule)
    assert (a.keys, a.schedule) != (c.keys, c.schedule)
    assert len(set(a.keys)) == len(a.keys) == 8
    blob = wl.make_inputs("numeric_amr", seed=5).initial_conditions
    again = wl.make_inputs("numeric_amr", seed=5).initial_conditions
    assert blob.keywords == again.keywords
    folded = sorted(round(min(c, 1.0 - c), 12) for c in blob.keywords["center"])
    assert folded == [0.3, 0.4, 0.5]


def test_checker_rejects_a_perturbed_reference():
    result = wl.run_sim_rep(wl.make_inputs("numeric_amr", seed=0, quick=True)).result
    digest = checks.result_digest(result)
    assert checks.check_reference(digest, copy.deepcopy(digest), "numeric") == []

    off_by_one = copy.deepcopy(digest)
    off_by_one["mpi_counters"]["allreduce_calls"] += 1
    assert checks.check_reference(digest, off_by_one, "numeric")

    drifted = copy.deepcopy(digest)
    drifted["clock"]["wall_seconds"] *= 1.0 + 1e-6
    assert checks.check_reference(digest, drifted, "numeric")
    within = copy.deepcopy(digest)
    within["clock"]["wall_seconds"] *= 1.0 + 1e-11
    assert checks.check_reference(digest, within, "numeric") == []
    assert checks.check_reference(digest, within, "modeled")

    incomplete = copy.deepcopy(digest)
    del incomplete["history"]
    assert checks.check_reference(digest, incomplete, "numeric")

    changed = dataclasses.replace(result, final_blocks=result.final_blocks + 8)
    assert checks.check_identical([result, changed], "reps")


def _doc(run_s, failed=0):
    metrics = {
        spec["name"]: {"value": 1.0, "n": 3, "samples": [0.99, 1.0, 1.01]}
        for spec in report.load_benchmark()["end_to_end"]
    }
    metrics["run_s"] = {"value": run_s[1], "n": 3, "samples": list(run_s)}
    return {
        "comparable": True,
        "workloads": {
            "numeric_amr": {"attempted": 12, "failed": failed, "end_to_end": metrics}
        },
    }


def _verdicts(lines):
    """metric -> verdict from compare's table (header and notes skipped)."""
    rows = [line.split() for line in lines[1:]]
    return {row[1]: row[-1] for row in rows if row[-1] in ("ok", "worse", "unresolved")}


def test_compare_flags_a_synthetic_slowdown():
    benchmark = report.load_benchmark()
    base = _doc((2.98, 3.0, 3.02))
    lines, failed = report.compare(base, _doc((2.98, 3.0, 3.02)), benchmark)
    assert not failed and set(_verdicts(lines).values()) == {"ok"}

    lines, failed = report.compare(base, _doc((3.58, 3.6, 3.62)), benchmark)
    assert failed and _verdicts(lines)["run_s"] == "worse"
    # Faster is never "worse"; a higher-is-better metric worsens downwards.
    lines, failed = report.compare(_doc((3.58, 3.6, 3.62)), base, benchmark)
    assert not failed
    assert report._worsening(100.0, 80.0, "higher") == 0.2
    assert report._worsening(100.0, 120.0, "higher") == -0.2

    # Inside the bound but noisier than the bound: cannot claim "unchanged".
    lines, failed = report.compare(base, _doc((2.5, 3.1, 3.7)), benchmark)
    assert not failed and _verdicts(lines)["run_s"] == "unresolved"

    lines, failed = report.compare(base, _doc((2.98, 3.0, 3.02), failed=1), benchmark)
    assert failed and any("failed-op share rose" in line for line in lines)


#: Runs a pass as a child subreaper (orphans re-parent to it, not to PID 1)
#: and prints every process still under it, zombies included, once the
#: pass has exited.
_WATCHER = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
left = []
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        stat = open(f"/proc/{entry}/stat").read()
    except OSError:
        continue
    if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
        left.append(int(entry))
print(done.returncode, left)
"""


def test_a_sharded_pass_leaves_no_process_behind():
    command = [
        sys.executable, str(report.E2E_DIR / "run.py"),
        "--workload", "numeric_uniform_shards2",
        "--seed", "1", "--trace", "0", "--quick",
    ]  # fmt: skip
    watched = subprocess.run(
        [sys.executable, "-c", _WATCHER] + command,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )  # fmt: skip
    assert watched.stdout.split(maxsplit=1) == ["0", "[]\n"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert report.tail_percentile(list(range(19))) is None
    assert report.tail_percentile(list(range(40)))[0] == 75.0
    assert report.tail_percentile(list(range(2000)))[0] == 99.5
    assert report.percentile([4, 1, 3, 2], 50) == 2
    assert report.percentile([4, 1, 3, 2], 90) == 4
    assert report.spread([1.0]) == 0.0
