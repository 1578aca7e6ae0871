"""Crash-consistent periodic checkpointing for the driver.

A checkpoint captures the *full continuation state* of a
:class:`~repro.driver.driver.ParthenonDriver` — tree + fields (the whole
mesh), cycle/time, profiler, metrics registry, MPI counters, history
rows, refinement-policy birth records, and the pack-invalidation state —
so a run resumed at cycle N is bitwise indistinguishable from one that
never stopped (the differential harness in ``tests/test_restart_bitwise``
pins ``RunResult`` equality at 0 ULP and canonical-trace equality at the
byte level).

Atomicity protocol (the same two-phase shape Parthenon/AMReX restart
writers use):

1. pickle the payload into ``ckpt_NNNNNN.pkl.tmp<pid>``, ``fsync``,
   ``os.replace`` onto ``ckpt_NNNNNN.pkl`` — a reader can never observe
   a torn payload;
2. write the JSON manifest ``ckpt_NNNNNN.json`` (cycle, time, payload
   size, sha256) the same way.  The manifest is the commit point: a
   payload without a manifest is an aborted write and is ignored by
   :func:`latest_checkpoint`.

Reads verify the manifest's sha256 against the payload bytes before
unpickling; any mismatch, truncation, or version skew raises
:class:`CheckpointError` (a :class:`~repro.driver.outputs.RestartError`)
rather than adopting bad state.

What is deliberately *not* captured: :class:`BoundaryExchange` /
:class:`FluxCorrection` (purely a function of mesh + ranks; rebuilt on
restore), the contiguous mesh pack (rebuilt from block data, preserving
whether it was valid or invalidated at save time), and the hardware cost
models (pure functions of the config).  Checkpoint I/O itself touches no
profiler region and no metrics counter — cadence can never perturb the
simulated outcome, which is also why ``checkpoint_every`` is excluded
from :meth:`RunSpec.cache_key`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from pathlib import Path

import numpy as np
from typing import TYPE_CHECKING, List, Optional, Union

from repro import __version__
from repro.driver.outputs import RestartError

if TYPE_CHECKING:  # pragma: no cover
    from repro.driver.driver import ParthenonDriver
    from repro.resilience.faults import FaultInjector

PathLike = Union[str, Path]

CHECKPOINT_SCHEMA_VERSION = 1

#: Fixed pickle protocol so identical state always produces identical
#: bytes regardless of interpreter defaults (save->load->save is
#: byte-stable; a property test pins this).
PICKLE_PROTOCOL = 4

MANIFEST_SUFFIX = ".json"
PAYLOAD_SUFFIX = ".pkl"


class CheckpointError(RestartError):
    """A checkpoint is corrupt, truncated, missing, or incompatible."""


#: Driver attributes that, together, continue the run exactly.  Shared
#: object references among them (``pkg`` inside the refinement tagger,
#: the recorder inside the profiler) survive because the whole dict is
#: pickled in one pass.
_STATE_ATTRS = (
    "pkg",
    "mesh",
    "metrics",
    "mpi",
    "policy",
    "prof",
    "mem",
    "launch_records",
    "_plan",
    "time",
    "cycle",
    "zone_cycles",
    "cell_updates",
    "cells_communicated",
    "max_blocks",
    "rebuild_seconds",
    "oom",
    "history",
    "pack_rebuilds",
    "_measuring",
)

#: Set lazily by ``_update_memory`` / ``reset_metrics``; captured when
#: present so ``getattr`` fallbacks behave identically after restore.
_OPTIONAL_ATTRS = ("_worst_device", "_worst_device_bytes", "_warmup_cycles")


def capture_state(driver: "ParthenonDriver") -> dict:
    """Snapshot a driver (at a cycle boundary) into a payload dict."""
    state = {name: getattr(driver, name) for name in _STATE_ATTRS}
    for name in _OPTIONAL_ATTRS:
        if hasattr(driver, name):
            state[name] = getattr(driver, name)
    injector = getattr(driver, "fault_injector", None)
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "code_version": __version__,
        "cycle": driver.cycle,
        "time": driver.time,
        "params": driver.params,
        "config": driver.config,
        "pack_valid": driver._pack is not None,
        "state": state,
        "injector": (
            injector.state_dict()
            if injector is not None and injector.armed
            else None
        ),
    }


class _CanonicalPickler(pickle._Pickler):
    """A pickler whose bytes do not depend on object *identity*.

    ``pickle`` memoizes by ``id()``: two occurrences of one interned
    string become a back-reference, two equal-but-distinct strings are
    written twice.  A live object graph shares identifier strings by
    interning; an unpickled graph re-interns instance-dict keys (CPython
    key-sharing dicts) but not data-dict keys — so the same logical
    state pickles to different bytes before and after a round-trip.
    NumPy dtype instances have the same hazard: live arrays share the
    canonical ``dtype('f8')`` singleton, while unpickled arrays carry a
    fresh copy (dtype ``__reduce__`` passes ``copy=True``), so a mesh
    mixing restored arrays with rebuilt pack views holds two distinct
    but equal dtypes.  Skipping the memo for both writes every
    occurrence in full, making save→load→save byte-stable (a property
    test pins this).
    """

    def memoize(self, obj):
        if isinstance(obj, (str, np.dtype)):
            return
        super().memoize(obj)


def serialize_state(payload: dict) -> bytes:
    """Pickle ``payload`` into canonical (identity-insensitive) bytes."""
    buf = io.BytesIO()
    _CanonicalPickler(buf, protocol=PICKLE_PROTOCOL).dump(payload)
    return buf.getvalue()


def restore_driver(
    payload: dict,
    fault_injector: Optional["FaultInjector"] = None,
) -> "ParthenonDriver":
    """Reconstruct a driver from a checkpoint payload.

    The driver is built from the checkpointed params/config, its evolving
    state overwritten from the payload, and the derived machinery rewired
    from the restored state: boundary exchange and flux correction are
    rebuilt (their tables are a pure function of mesh + ranks), and the
    contiguous pack is rebuilt *only if it was valid at save time* — an
    invalidated pack stays invalidated so the resumed run re-counts the
    lazy rebuild exactly where the uninterrupted run would.  Nothing here
    touches the profiler or the restored metrics registry.
    """
    from repro.comm.bvals import BoundaryExchange
    from repro.comm.flux_correction import FluxCorrection
    from repro.driver.driver import ParthenonDriver
    from repro.kernels.backends import resolve_backend
    if payload.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema_version {payload.get('schema_version')!r}; "
            f"this build reads {CHECKPOINT_SCHEMA_VERSION}"
        )
    driver = ParthenonDriver(
        payload["params"], payload["config"], fault_injector=fault_injector
    )
    for name, value in payload["state"].items():
        setattr(driver, name, value)
    driver.bx = BoundaryExchange(driver.mesh, driver.mpi, metrics=driver.metrics)
    driver.fc = FluxCorrection(driver.mesh, driver.mpi)
    driver.fc.set_links(driver.bx.links)
    # Recreate the kernel engine against the *restored* package via the
    # registry, re-resolving availability in this process (the effective
    # backend may differ from the checkpointing process's).  Sharded runs
    # keep the executor ``__init__`` already wired (its provider closures
    # read the driver's injector/cycle attributes at call time, so the
    # restored state is picked up automatically).
    if driver._shard_exec is None:
        driver._packed = None
        driver.kernel_backend = "numpy"
        if driver.numeric and driver.config.kernel_mode == "packed":
            backend = resolve_backend(driver.config.kernel_backend)
            driver.kernel_backend = backend.name
            driver._packed = backend.create_kernels(driver.pkg)
    driver._pack = None
    if driver.use_packed and payload.get("pack_valid"):
        # Reconstruct the pack the blocks aliased at save time — through
        # ``_build_pack`` so sharded restores allocate shared memory and
        # rebind workers.  No metrics and no pack_rebuilds bump: this
        # re-creates existing state, it is not a new rebuild event.
        driver._pack = driver._build_pack(metrics=None)
    return driver


# ---------------------------------------------------------------- files


def _names(cycle: int) -> "tuple[str, str]":
    stem = f"ckpt_{cycle:06d}"
    return stem + PAYLOAD_SUFFIX, stem + MANIFEST_SUFFIX


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def write_checkpoint(directory: PathLike, driver: "ParthenonDriver") -> Path:
    """Persist one checkpoint; returns the manifest path (commit record)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = serialize_state(capture_state(driver))
    payload_name, manifest_name = _names(driver.cycle)
    _atomic_write(directory / payload_name, payload)
    manifest = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "code_version": __version__,
        "cycle": driver.cycle,
        "time": driver.time,
        "payload": payload_name,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    manifest_path = directory / manifest_name
    _atomic_write(
        manifest_path,
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
    )
    return manifest_path


def _load_manifest(manifest_path: Path) -> dict:
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} is unreadable: {exc}"
        ) from exc
    if manifest.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path} has schema_version "
            f"{manifest.get('schema_version')!r}; this build reads "
            f"{CHECKPOINT_SCHEMA_VERSION}"
        )
    return manifest


def read_checkpoint(path: PathLike) -> dict:
    """Load + verify one checkpoint; returns the payload dict.

    ``path`` may be a checkpoint directory (resolves to the latest valid
    checkpoint), a manifest ``.json``, or a payload ``.pkl`` (its sibling
    manifest is required — the manifest *is* the commit record).  The
    payload's sha256 must match the manifest before unpickling.
    """
    path = Path(path)
    if path.is_dir():
        manifest_path = latest_checkpoint(path)
        if manifest_path is None:
            raise CheckpointError(f"no valid checkpoint found in {path}")
        path = manifest_path
    if path.suffix == PAYLOAD_SUFFIX:
        path = path.with_suffix(MANIFEST_SUFFIX)
    if not path.is_file():
        raise CheckpointError(f"checkpoint manifest not found: {path}")
    manifest = _load_manifest(path)
    payload_path = path.parent / manifest["payload"]
    try:
        blob = payload_path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint payload {payload_path} is unreadable: {exc}"
        ) from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["sha256"]:
        raise CheckpointError(
            f"checkpoint payload {payload_path} fails its sha256 self-check "
            f"(manifest {manifest['sha256'][:12]}…, actual {digest[:12]}…)"
        )
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # truncated/garbage pickle
        raise CheckpointError(
            f"checkpoint payload {payload_path} does not unpickle: {exc}"
        ) from exc
    return payload


def list_checkpoints(directory: PathLike) -> List[Path]:
    """Manifest paths in ``directory``, ascending by cycle (unvalidated)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in sorted(directory.glob("ckpt_*" + MANIFEST_SUFFIX)):
        try:
            int(p.stem.split("_", 1)[1])
        except (IndexError, ValueError):
            continue
        out.append(p)
    return out


def latest_checkpoint(directory: PathLike) -> Optional[Path]:
    """The newest *valid* checkpoint's manifest path, or ``None``.

    Corrupt or torn checkpoints (bad JSON, missing payload, sha
    mismatch) are skipped — exactly the crash debris an aborted write
    leaves behind — so resume always lands on the last good state.
    """
    for manifest_path in reversed(list_checkpoints(directory)):
        try:
            manifest = _load_manifest(manifest_path)
            payload_path = manifest_path.parent / manifest["payload"]
            blob = payload_path.read_bytes()
            if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
                continue
        except (CheckpointError, OSError, KeyError):
            continue
        return manifest_path
    return None


class CheckpointManager:
    """Cadenced checkpoint writer attached to ``Driver.run``.

    ``save(driver)`` is called after every completed cycle and persists
    one checkpoint whenever ``driver.cycle`` is a positive multiple of
    ``every`` (``force=True`` bypasses the cadence).  Warmup cycles
    count: a kill inside warmup resumes from the last warmup boundary.
    """

    def __init__(self, directory: PathLike, every: int = 1) -> None:
        if every < 0:
            raise ValueError(f"checkpoint cadence must be >= 0, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.written: List[Path] = []

    def save(self, driver: "ParthenonDriver", force: bool = False) -> Optional[Path]:
        if not force:
            if self.every <= 0 or driver.cycle <= 0:
                return None
            if driver.cycle % self.every != 0:
                return None
        manifest_path = write_checkpoint(self.directory, driver)
        self.written.append(manifest_path)
        return manifest_path

    def latest(self) -> Optional[Path]:
        return latest_checkpoint(self.directory)
