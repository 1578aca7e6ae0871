#!/usr/bin/env python3
"""One end-to-end host-clock benchmark of this repository.

Three ways in::

    run.py --workload NAME --seed N --seconds S --trace 0|1
        One pass of one workload in this process — the BENCHMARK.json
        contract.  --trace 0 measures the end-to-end metrics with nothing
        wrapped; --trace 1 wraps the layer seams and reports the per-layer
        metrics.  The last stdout line is the result as one JSON object.

    run.py [--seed N] [--workload NAME] [--seconds S] [--quick] [--out FILE]
        Every workload (or the one named), both passes, each pass in its
        own child process; prints every metric by name with its unit and
        writes the provenance-stamped document to FILE.

    run.py compare A.json B.json
        Verdict per workload x end-to-end metric against the bounds in
        BENCHMARK.json; exits non-zero on ``worse`` or more failed ops.

Every mode exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Iterator, List, Optional

import report
from report import OUT_DIR, REFERENCE_JSON, REPO_ROOT

#: A pass that runs longer than this is a failed operation, not a number.
WALL_CAP_S = 60.0

#: How long a child nobody stopped gets to end by itself before SIGKILL.
STRAGGLER_GRACE_S = 5.0


class WorkloadTimeout(Exception):
    """A pass exceeded its wall-time cap."""


def _require_program() -> None:
    """Put ``src/`` first on ``sys.path``; the benchmark measures this
    checkout's program, never an installed copy."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


@contextmanager
def _wall_cap(seconds: float) -> Iterator[None]:
    def on_alarm(signum, frame):
        raise WorkloadTimeout(f"pass exceeded its {seconds:.0f} s wall-time cap")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _child_pids() -> List[int]:
    """Direct children of this process, ended-but-unreaped ones included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        # pid (comm) state ppid ...; comm may itself hold spaces and ')'.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_stragglers() -> None:
    """No process this benchmark started may outlive it, not even as a
    zombie: an orphan's new parent need not reap it.

    Workers first (they hold the resource tracker's pipe open), then the
    tracker that ``multiprocessing.shared_memory`` starts on first use —
    it ends only once that pipe closes, which without this is *after*
    this process has exited — then whatever else is left.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()  # closes the pipe and waits for the tracker
    deadline = time.monotonic() + STRAGGLER_GRACE_S
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # every child has ended and been reaped
        if pid:
            continue
        if not killed and time.monotonic() >= deadline:
            for straggler in _child_pids():
                try:
                    os.kill(straggler, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="how long each pass measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="run one pass in this process: 0 end-to-end, 1 per-layer",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1 rep, 2 cycles, 8 specs / 200 requests; numbers are not comparable",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record this run's simulated statistics as reference.json "
        "(seed 0, full scale) instead of checking against it",
    )
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    return parser


# -------------------------------------------------------------- one pass


def _single_pass(args: argparse.Namespace, benchmark: dict) -> int:
    _require_program()
    import measure  # imports the program
    from workloads import NEEDS_TWO_CPUS

    section = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in section}
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    cannot_exercise = (
        report.usable_cpus() < 2 and args.workload in NEEDS_TWO_CPUS
    )
    if cannot_exercise:
        print(
            f"note: {args.workload} needs 2 usable CPUs and this host has "
            f"{report.usable_cpus()}; its rows are stamped host_cannot_exercise",
            file=sys.stderr,
        )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "quick": args.quick,
        "host_cannot_exercise": cannot_exercise,
    }
    try:
        with _wall_cap(max(WALL_CAP_S, 4 * seconds)):
            outcome = measure.run_pass(
                args.workload,
                args.seed,
                seconds,
                trace=bool(args.trace),
                quick=args.quick,
                skip_reference=args.write_reference,
            )
    except WorkloadTimeout as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        _write_detail(
            args.detail, dict(detail, attempted=1, failed=1, problems=[str(exc)])
        )
        return 1
    finally:
        _stop_stragglers()

    measured = outcome.metrics
    unknown = set(measured) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:  # a layer this workload never enters reads 0
        metrics = {name: measured.get(name, {"value": 0.0, "n": 0}) for name in units}
    else:
        metrics = {name: measured[name] for name in units if name in measured}
    problems = outcome.problems + [
        f"metric {name} was not measured" for name in units if name not in metrics
    ]

    notes = []
    if args.quick:
        notes.append("non-comparable: --quick")
    if cannot_exercise:
        notes.append("host_cannot_exercise")
    print(report.render_metrics(args.workload, metrics, units, "; ".join(notes)))
    for problem in problems:
        print(f"check failed: {args.workload}: {problem}", file=sys.stderr)
    attempted = max(outcome.attempted, 1)
    failed = min(max(outcome.failed, len(problems)), attempted)
    _write_detail(
        args.detail,
        dict(
            detail,
            attempted=attempted,
            failed=failed,
            problems=problems,
            digest=outcome.digest,
            metrics={
                name: dict(doc, unit=units[name]) for name, doc in metrics.items()
            },
        ),
    )
    if len(metrics) != len(units):
        return 1  # no result line: it could not name every metric
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": doc["value"], "unit": units[name]}
                    for name, doc in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


def _write_detail(path: Optional[str], doc: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(doc))


# -------------------------------------------------------------- full run


def _full_run(args: argparse.Namespace, benchmark: dict) -> int:
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    known = {w["name"]: w["why"] for w in benchmark["workloads"]}
    names = [args.workload] if args.workload else list(known)
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "schema": report.SCHEMA,
        "schema_version": report.SCHEMA_VERSION,
        "provenance": report.provenance(args.seed, seconds, args.quick),
        "comparable": not args.quick,
        "workloads": {},
    }
    digests = {}
    for name in names:
        row = {
            "why": known[name],
            "correct": True,
            "attempted": 0,
            "failed": 0,
            "problems": [],
            "end_to_end": {},
            "per_layer": {},
        }
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            detail = _child_pass(name, trace, seconds, args)
            row["attempted"] += detail["attempted"]
            row["failed"] += detail["failed"]
            row["problems"] += detail["problems"]
            row[section] = detail.get("metrics", {})
            if detail.get("host_cannot_exercise"):
                row["host_cannot_exercise"] = True
            if detail.get("digest") is not None:
                digests[name] = detail["digest"]
        row["correct"] = not row["problems"]
        doc["workloads"][name] = row

    if args.write_reference:
        if args.seed != 0 or args.quick or set(digests) != set(known):
            print(
                "error: the reference is every workload at seed 0, full scale",
                file=sys.stderr,
            )
            return 2
        REFERENCE_JSON.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE_JSON}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    failed = {n: r["problems"] for n, r in doc["workloads"].items() if not r["correct"]}
    for name, problems in failed.items():
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    return 1 if failed else 0


def _child_pass(
    name: str, trace: int, seconds: float, args: argparse.Namespace
) -> dict:
    """One pass in its own process; returns its detail document."""
    detail_path = OUT_DIR / f"detail_{name}_{trace}.json"
    detail_path.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--detail", str(detail_path),
    ]
    if args.quick:
        command.append("--quick")
    if args.write_reference:
        command.append("--write-reference")
    problem = None
    # Its own process group, so that a pass that has to be killed takes
    # the workers it forked with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=max(WALL_CAP_S, 4 * seconds) + 30.0)
    except subprocess.TimeoutExpired:
        problem = "pass did not end within its wall-time cap"
    else:
        # The last line is the machine-readable result; the table is for people.
        lines = stdout.splitlines()
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the pass ended and left nobody behind
        child.wait()
    if detail_path.is_file():
        return json.loads(detail_path.read_text())
    return {
        "attempted": 1,
        "failed": 1,
        "problems": [problem or "pass exited without a result"],
    }


# --------------------------------------------------------------- compare


def _compare_main(argv: List[str], benchmark: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(path).read_text()) for path in argv)
    for path, doc in zip(argv, (doc_a, doc_b)):
        if not doc.get("comparable", False):
            print(f"error: {path} is a --quick run; not comparable", file=sys.stderr)
            return 2
    lines, failed = report.compare(doc_a, doc_b, benchmark)
    print("\n".join(lines))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    report.pin_environment()
    benchmark = report.load_benchmark()
    if argv[:1] == ["compare"]:
        return _compare_main(argv[1:], benchmark)
    parser = _parser()
    args = parser.parse_args(argv)
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(
            f"unknown workload {args.workload!r}; expected one of {', '.join(known)}"
        )
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return _single_pass(args, benchmark)
    return _full_run(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
