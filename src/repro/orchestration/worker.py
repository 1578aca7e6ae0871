"""The unit of work a pool worker executes: one spec, fully isolated.

``execute_point`` never raises: any exception inside the simulated run —
bad parameters, a numeric blow-up, a timeout, an injected fault — is
retried up to the task's bound and then reduced to a structured error
artifact, so one crashed point cannot kill a campaign.  The payload is a
single picklable :class:`PointTask` (the ``RunSpec`` plus the
retry/timeout/resilience policy), not a bag of kwargs.

When the task carries a ``checkpoint_dir``, each attempt checkpoints at
the spec's cadence and every *retry* resumes from the last valid
checkpoint instead of cycle 0 — the artifact records the resume point in
its ``resilience.resumed_from_cycle`` field, and the bitwise-resume
guarantee (DESIGN §9) means the resumed artifact's simulated quantities
are identical to an uninterrupted run's.

One :class:`~repro.resilience.FaultInjector` is built per *task*, not
per attempt: its counters persist across retries, so a ``max_fires=1``
fault fires once, crashes one attempt, and stays quiet on the resume —
exactly the transient-fault model the recovery path exists for.
"""

from __future__ import annotations

import json
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.api import ProgressEvent, RunSpec, Simulation
from repro.orchestration.artifacts import error_artifact, result_to_artifact
from repro.resilience import FaultInjector, FaultPlan, latest_checkpoint


class PointTimeout(Exception):
    """A point exceeded its per-attempt wall-clock budget."""


@dataclass(frozen=True)
class PointTask:
    """One sweep point plus its failure policy, as sent to a worker."""

    spec: RunSpec
    #: Re-attempts after the first failure (total attempts = retries + 1).
    retries: int = 0
    #: Per-attempt wall-clock limit in seconds (None = unlimited).
    timeout_s: Optional[float] = None
    #: Where this point checkpoints (None disables checkpoint + resume).
    checkpoint_dir: Optional[str] = None
    #: Deterministic faults to arm inside this point's worker.
    fault_plan: Optional[FaultPlan] = None
    #: Append one :class:`~repro.api.ProgressEvent` JSON line per
    #: completed cycle to this file (None disables).  The service tails
    #: it to stream per-cycle progress; lines are flushed per cycle so a
    #: reader in another process sees each cycle as it completes.  On a
    #: retry the cycle numbers restart (or continue from the checkpoint
    #: resume point) — readers key on ``measured``/``ncycles``, not on
    #: line count.
    progress_path: Optional[str] = None


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`PointTimeout` after ``seconds`` of wall time.

    Uses ``SIGALRM`` (delivered to the worker process's main thread,
    which is where pool workers run tasks).  The timer re-fires every
    ``min(seconds, 0.1)`` s until the body exits: a ``PointTimeout``
    raised where Python cannot propagate it (a ``gc`` callback, a
    ``__del__``) is only printed as unraisable, and the next alarm raises
    again.  A no-op where alarms are unavailable (non-POSIX, or a
    non-main thread).
    """
    usable = (
        seconds is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise PointTimeout(f"point exceeded {seconds}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds, min(seconds, 0.1))
    try:
        yield
    finally:
        # A repeat alarm may land before the timer is off; retry so the
        # handler is always restored (the body's own outcome stands).
        while True:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                break
            except PointTimeout:
                continue
        signal.signal(signal.SIGALRM, previous)


def _attach_resilience(
    artifact: dict,
    resumed_from_cycle: Optional[int],
    injector: Optional[FaultInjector],
) -> None:
    """Add the optional ``resilience`` section (schema v3) when relevant."""
    section: dict = {}
    if resumed_from_cycle is not None:
        section["resumed_from_cycle"] = resumed_from_cycle
    if injector is not None and injector.armed:
        section["faults"] = injector.counters.to_dict()
    if section:
        artifact["resilience"] = section


@contextmanager
def _progress_sink(
    task: PointTask,
) -> Iterator[Optional[Callable]]:
    """Per-cycle hook appending ``ProgressEvent`` lines to the task's
    progress file (None when the task carries no ``progress_path``)."""
    if task.progress_path is None:
        yield None
        return
    path = Path(task.progress_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as stream:

        def on_cycle(driver) -> None:
            event = ProgressEvent.from_driver(driver, task.spec.ncycles)
            stream.write(
                json.dumps(event.to_dict(), sort_keys=True) + "\n"
            )
            stream.flush()

        yield on_cycle


def execute_point(task: PointTask) -> dict:
    """Run one point to an artifact — success or structured failure."""
    injector = (
        FaultInjector(task.fault_plan) if task.fault_plan is not None else None
    )
    attempts = 0
    resumed_from_cycle: Optional[int] = None
    while True:
        attempts += 1
        sim: Optional[Simulation] = None
        try:
            restart_from = None
            if task.checkpoint_dir is not None and attempts > 1:
                # Bounded-retry recovery: resume the crashed attempt from
                # the last valid checkpoint, not from cycle 0.
                restart_from = latest_checkpoint(task.checkpoint_dir)
            sim = Simulation(
                task.spec,
                checkpoint_dir=task.checkpoint_dir,
                restart_from=restart_from,
                fault_injector=injector,
            )
            with _deadline(task.timeout_s), _progress_sink(task) as on_cycle:
                result = sim.run(on_cycle=on_cycle)
            if sim.resumed_from_cycle is not None:
                resumed_from_cycle = sim.resumed_from_cycle
            if injector is not None:
                injector.check("campaign_worker")
            artifact = result_to_artifact(task.spec, result, attempts=attempts)
            _attach_resilience(artifact, resumed_from_cycle, injector)
            if injector is not None:
                injector.check("artifact_write")
            return artifact
        except Exception as exc:  # noqa: BLE001 — isolation is the contract
            if sim is not None and sim.resumed_from_cycle is not None:
                resumed_from_cycle = sim.resumed_from_cycle
            if attempts > task.retries:
                artifact = error_artifact(task.spec, exc, attempts=attempts)
                _attach_resilience(artifact, resumed_from_cycle, injector)
                return artifact
