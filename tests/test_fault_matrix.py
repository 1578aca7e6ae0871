"""Fault-site matrix: every registered site × {fires once, fires never}.

The contract for each cell: the point either *recovers* (an ``ok``
artifact whose simulated quantities are identical to a fault-free run,
with honest ``attempts``/``resilience`` metadata) or fails *structurally*
(an ``error`` artifact naming the injected fault) — never silent
corruption, never a hang.  Determinism of the schedule itself is pinned
by ``tests/test_resilience.py``; this file pins the recovery paths.
"""

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.api import RunSpec, Simulation, build_execution_config, build_simulation_params
from repro.orchestration import PointTask, execute_point, run_campaign
from repro.parallel import ShardError
from repro.resilience import FAULT_SITES, FaultPlan

#: Keys that legitimately differ between a faulted/recovered run and the
#: clean baseline; every other key — every simulated quantity — must be
#: byte-identical.  ``parallel`` is the artifact schema's documented
#: wall-clock exception (per-shard stage timings).
_METADATA_KEYS = {"attempts", "resilience", "spec", "parallel"}


def _spec(site: str = "") -> RunSpec:
    """Per-site point spec: the ``shard_worker`` site only dispatches on
    a sharded numeric packed run, every other site on the cheap modeled
    deck."""
    if site == "shard_worker":
        params = build_simulation_params(
            ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=1
        )
        config = build_execution_config(
            mode="numeric", kernel_mode="packed", num_gpus=1,
            ranks_per_gpu=2, num_shards=2,
        )
        return RunSpec(
            params=params, config=config, ncycles=2, warmup=1, label="pt"
        )
    params = build_simulation_params(
        ndim=2, mesh_size=16, block_size=8, num_levels=2, num_scalars=1
    )
    config = build_execution_config(
        mode="modeled", kernel_mode="packed", num_gpus=1, ranks_per_gpu=2
    )
    return RunSpec(params=params, config=config, ncycles=2, warmup=1, label="pt")


@pytest.fixture(scope="module")
def clean_artifacts():
    """Fault-free baseline per distinct spec, keyed like ``_spec``."""
    return {
        "": execute_point(PointTask(spec=_spec())),
        "shard_worker": execute_point(PointTask(spec=_spec("shard_worker"))),
    }


def _baseline(clean_artifacts, site):
    return clean_artifacts[site if site == "shard_worker" else ""]


def _assert_simulated_quantities_match(artifact, clean):
    for key in set(artifact) | set(clean):
        if key in _METADATA_KEYS:
            continue
        assert artifact.get(key) == clean.get(key), (
            f"silent corruption: field {key!r} differs from the "
            "fault-free baseline"
        )


class TestFiresNever:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_armed_but_silent_site_changes_nothing(self, site, clean_artifacts):
        plan = FaultPlan.single(site, probability=0.0, max_fires=1)
        artifact = execute_point(PointTask(spec=_spec(site), fault_plan=plan))
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 1
        faults = artifact["resilience"]["faults"]
        assert faults["fired"] == {}
        _assert_simulated_quantities_match(
            artifact, _baseline(clean_artifacts, site)
        )


class TestFiresOnce:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_recovered_with_retry(self, site, clean_artifacts, tmp_path):
        """One transient fault + one retry: the point must recover, the
        artifact must record the fault honestly, and every simulated
        quantity must match the fault-free baseline."""
        plan = FaultPlan.single(site, probability=1.0, max_fires=1)
        artifact = execute_point(
            PointTask(
                spec=_spec(site),
                retries=1,
                checkpoint_dir=str(tmp_path / site),
                fault_plan=plan,
            )
        )
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 2
        faults = artifact["resilience"]["faults"]
        assert faults["fired"] == {site: 1}
        _assert_simulated_quantities_match(
            artifact, _baseline(clean_artifacts, site)
        )

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_structured_error_without_retry(self, site):
        """No retry budget: the fault must surface as a structured error
        artifact naming the injected fault — never a raise, never a hang."""
        plan = FaultPlan.single(site, probability=1.0, max_fires=1)
        artifact = execute_point(PointTask(spec=_spec(site), fault_plan=plan))
        assert artifact["status"] == "error"
        assert artifact["attempts"] == 1
        assert artifact["error"]["type"] == "InjectedFault"
        assert site in artifact["error"]["message"]
        assert artifact["resilience"]["faults"]["fired"] == {site: 1}


class TestCampaignResume:
    def test_crashed_point_resumes_from_checkpoint(self, tmp_path, clean_artifacts):
        """The acceptance-criteria path: a campaign point crashed by an
        injected worker fault resumes from its per-point checkpoint tree
        with ``resumed_from_cycle > 0`` recorded in the artifact."""
        plan = FaultPlan.single("kernel_launch", cycle=2)
        summary = run_campaign(
            [_spec()],
            tmp_path,
            workers=1,
            retries=1,
            checkpoint_every=1,
            fault_plan=plan,
        )
        assert summary.executed == 1 and summary.failed == 0
        artifact = summary.artifacts[0]
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 2
        assert artifact["resilience"]["resumed_from_cycle"] > 0
        assert artifact["resilience"]["faults"]["fired"] == {"kernel_launch": 1}
        # Per-point checkpoints live under <campaign>/checkpoints/<key>.
        key = artifact["cache_key"]
        assert any((tmp_path / "checkpoints" / key).glob("ckpt_*.json"))
        _assert_simulated_quantities_match(artifact, clean_artifacts[""])

    def test_faulted_campaign_caches_like_a_clean_one(self, tmp_path):
        """Resumed artifacts keep the spec's cache key, so a re-run of
        the same campaign without faults is served from cache."""
        plan = FaultPlan.single("kernel_launch", cycle=2)
        run_campaign(
            [_spec()], tmp_path, workers=1, retries=1,
            checkpoint_every=1, fault_plan=plan,
        )
        again = run_campaign([_spec()], tmp_path, workers=1)
        assert again.cached == 1 and again.executed == 0


class TestShardWorkerDeath:
    """Beyond the injected-exception site: a shard worker killed outright
    (SIGKILL, no goodbye message) must surface as a structured
    :class:`ShardError` — no hang, no silent corruption — and a sharded
    checkpointing run must still resume bitwise."""

    def test_killed_worker_surfaces_structured_error(self):
        sim = Simulation(_spec("shard_worker"))
        try:
            executor = sim.driver._shard_exec
            assert executor is not None
            executor.stage_timeout_s = 60.0  # fail the test, never hang CI
            executor._ensure_workers()
            victims = [
                p for p in mp.active_children()
                if p.name.startswith("repro-shard-")
            ]
            assert len(victims) == 2
            os.kill(victims[0].pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(ShardError) as excinfo:
                sim.run()
            # A liveness bound, not a speed claim: it only tells a death
            # that surfaced from one that waited out the stage timeout.
            assert time.monotonic() - t0 < 30.0, "death detection hung"
            assert excinfo.value.shard >= 0
            assert excinfo.value.stage
        finally:
            sim.driver.shutdown_shards()

    def test_sharded_checkpoint_resume_is_bitwise(self, tmp_path):
        """Crash a sharded checkpointing run via the shard_worker site,
        resume from its last checkpoint: every simulated quantity must
        match a fault-free sharded run (which itself matches serial —
        ``tests/test_shard_parity.py``)."""
        plan = FaultPlan.single("shard_worker", cycle=2)
        summary = run_campaign(
            [_spec("shard_worker")],
            tmp_path,
            workers=1,
            retries=1,
            checkpoint_every=1,
            fault_plan=plan,
        )
        assert summary.executed == 1 and summary.failed == 0
        artifact = summary.artifacts[0]
        assert artifact["status"] == "ok"
        assert artifact["attempts"] == 2
        assert artifact["resilience"]["resumed_from_cycle"] > 0
        assert artifact["resilience"]["faults"]["fired"] == {"shard_worker": 1}
        clean = execute_point(PointTask(spec=_spec("shard_worker")))
        _assert_simulated_quantities_match(artifact, clean)
