"""Campaign orchestration: artifacts, cache/resume, isolation, parallelism."""

import gc
import json
import signal
import time

import pytest

from repro.api import RunSpec, Simulation
from repro.core.characterize import comm_to_comp_ratio, kernel_fraction, metric
from repro.core.report import render_campaign_summary, render_campaign_sweep
from repro.core.sweeps import axis_specs, grid_specs
from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.orchestration import (
    PointTask,
    PointTimeout,
    RunCache,
    execute_point,
    load_campaign,
    result_to_artifact,
    run_campaign,
)
from repro.orchestration.worker import _deadline

BASE = SimulationParams(
    ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
)
CONFIG = ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1)


def mini_specs():
    return grid_specs(BASE, CONFIG, (32, 64), (8, 16), ncycles=2, warmup=1)


def artifact_bytes(campaign_dir):
    points = campaign_dir / "points"
    return {p.name: p.read_bytes() for p in sorted(points.glob("*.json"))}


class TestArtifacts:
    def test_schema_fields(self):
        spec = RunSpec(params=BASE, config=CONFIG, ncycles=2, warmup=1, label="x")
        art = result_to_artifact(spec, Simulation(spec).run())
        assert art["status"] == "ok"
        assert art["schema_version"] == 6
        assert art["cache_key"] == spec.cache_key()
        assert art["fom"] > 0
        assert art["timings"]["wall_seconds"] > 0
        assert "CalculateFluxes" in art["timings"]["kernels"]
        assert art["communication"]["mpi_counters"]["allreduce_calls"] > 0
        assert art["memory"]["device_peak_bytes"] > 0
        assert art["blocks"]["final"] > 0
        # the artifact is JSON-clean
        json.dumps(art)

    def test_characterize_helpers_accept_artifacts(self):
        """report/characterize consume persisted artifacts, not just
        in-memory RunResults."""
        spec = RunSpec(params=BASE, config=CONFIG, ncycles=2, warmup=1)
        result = Simulation(spec).run()
        art = result_to_artifact(spec, result)
        assert kernel_fraction(art) == pytest.approx(kernel_fraction(result))
        assert comm_to_comp_ratio(art) == pytest.approx(
            comm_to_comp_ratio(result)
        )
        assert metric(art, "fom") == result.fom


class TestCampaignRun:
    def test_one_artifact_per_point(self, tmp_path):
        summary = run_campaign(mini_specs(), tmp_path, workers=1)
        assert summary.executed == 4
        assert summary.cached == summary.failed == 0
        assert len(artifact_bytes(tmp_path)) == 4
        assert (tmp_path / "manifest.json").is_file()

    def test_outcomes_in_spec_order(self, tmp_path):
        summary = run_campaign(mini_specs(), tmp_path, workers=1)
        assert [o.label for o in summary.outcomes] == [
            s.label for s in mini_specs()
        ]

    def test_duplicate_specs_run_once(self, tmp_path):
        specs = mini_specs()
        summary = run_campaign(specs + specs, tmp_path, workers=1)
        assert len(summary.outcomes) == 4
        assert summary.executed == 4

    def test_parallel_matches_serial_bitwise(self, tmp_path):
        d1, d2 = tmp_path / "serial", tmp_path / "pool"
        run_campaign(mini_specs(), d1, workers=1)
        run_campaign(mini_specs(), d2, workers=2)
        assert artifact_bytes(d1) == artifact_bytes(d2)


class TestResume:
    def test_full_rerun_all_cached(self, tmp_path):
        run_campaign(mini_specs(), tmp_path, workers=1)
        before = artifact_bytes(tmp_path)
        summary = run_campaign(mini_specs(), tmp_path, workers=1)
        assert summary.cached == 4 and summary.executed == 0
        assert artifact_bytes(tmp_path) == before

    def test_deleted_point_reexecutes_exactly_that_point(self, tmp_path):
        """Kill-one-artifact resume: one point re-runs, bitwise-identical."""
        run_campaign(mini_specs(), tmp_path, workers=1)
        before = artifact_bytes(tmp_path)
        victim = sorted((tmp_path / "points").glob("*.json"))[1]
        victim.unlink()
        summary = run_campaign(mini_specs(), tmp_path, workers=1)
        assert summary.executed == 1
        assert summary.cached == 3
        assert artifact_bytes(tmp_path) == before

    def test_code_version_participates_in_key(self, tmp_path, monkeypatch):
        spec = mini_specs()[0]
        key = spec.cache_key()
        import repro
        import repro.api as api
        monkeypatch.setattr(api, "__version__", repro.__version__ + ".post1")
        assert spec.cache_key() != key


class TestFailureIsolation:
    def bad_spec(self):
        # mesh not divisible by block: fails inside the driver, not at
        # spec construction — exactly the class of per-point crash the
        # runner must survive.
        return RunSpec(
            params=SimulationParams(
                ndim=2, mesh_size=30, block_size=8, num_levels=2, num_scalars=1
            ),
            config=CONFIG,
            ncycles=2,
            warmup=0,
            label="broken",
        )

    def test_crash_becomes_error_artifact(self, tmp_path):
        specs = mini_specs() + [self.bad_spec()]
        summary = run_campaign(specs, tmp_path, workers=1, retries=2)
        assert summary.executed == 4
        assert summary.failed == 1
        assert len(artifact_bytes(tmp_path)) == 4  # errors are not cached
        errors = list((tmp_path / "errors").glob("*.json"))
        assert len(errors) == 1
        err = json.loads(errors[0].read_text())
        assert err["status"] == "error"
        assert err["attempts"] == 3  # bounded retry: 1 + 2 retries
        assert "traceback" in err["error"]
        assert err["label"] == "broken"

    def test_failed_points_retry_on_resume(self, tmp_path):
        specs = mini_specs() + [self.bad_spec()]
        run_campaign(specs, tmp_path, workers=1, retries=0)
        summary = run_campaign(specs, tmp_path, workers=1, retries=0)
        assert summary.cached == 4
        assert summary.failed == 1  # retried (and failed) again, not cached

    def test_worker_pool_isolates_failures(self, tmp_path):
        specs = mini_specs() + [self.bad_spec()]
        summary = run_campaign(specs, tmp_path, workers=2, retries=0)
        assert summary.executed == 4 and summary.failed == 1

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs POSIX timers"
    )
    def test_timeout_becomes_error_artifact(self, tmp_path):
        slow = RunSpec(
            params=SimulationParams(
                ndim=2, mesh_size=128, block_size=8, num_levels=3, num_scalars=8
            ),
            config=CONFIG,
            ncycles=8,
            warmup=2,
            label="slow",
        )
        artifact = execute_point(
            PointTask(spec=slow, retries=0, timeout_s=0.01)
        )
        assert artifact["status"] == "error"
        assert artifact["error"]["type"] == "PointTimeout"

    def test_execute_point_never_raises(self):
        artifact = execute_point(PointTask(spec=self.bad_spec(), retries=0))
        assert artifact["status"] == "error"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX timers")
class TestDeadline:
    @staticmethod
    def _spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_timeout_swallowed_in_gc_callback_fires_again(self):
        """A PointTimeout raised inside a gc callback is only printed as
        unraisable; the timer must fire again and stop the body."""

        def slow_callback(phase, info):
            if phase == "start":
                self._spin(0.05)

        gc.callbacks.append(slow_callback)
        try:
            with pytest.raises(PointTimeout):
                with _deadline(0.01):
                    gc.collect()
                    self._spin(0.5)
        finally:
            gc.callbacks.remove(slow_callback)

    def test_handler_restored_after_body(self):
        previous = signal.getsignal(signal.SIGALRM)
        with _deadline(5.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestRunCache:
    def test_store_routes_by_status(self, tmp_path):
        cache = RunCache(tmp_path)
        ok = {"cache_key": "k1", "status": "ok"}
        bad = {"cache_key": "k1", "status": "error"}
        cache.store(bad)
        assert not cache.has("k1")
        cache.store(ok)
        assert cache.has("k1")
        assert not cache.error_path("k1").is_file()  # success clears error
        assert cache.load("k1")["status"] == "ok"
        # a later failure never shadows the cached success
        cache.store(bad)
        assert cache.load("k1")["status"] == "ok"

    def test_missing_key(self, tmp_path):
        assert RunCache(tmp_path).load("nope") is None


class TestCampaignReports:
    def test_summary_renders_all_points(self, tmp_path):
        run_campaign(mini_specs(), tmp_path, workers=1)
        text = render_campaign_summary(load_campaign(tmp_path))
        for spec in mini_specs():
            assert spec.label in text
        assert "FOM" in text

    def test_sweep_rendering_groups_series(self, tmp_path):
        specs = axis_specs(
            BASE, {"GPU-1R": CONFIG}, "mesh", (32, 64), ncycles=2, warmup=1
        )
        run_campaign(specs, tmp_path, workers=1)
        text = render_campaign_sweep(
            load_campaign(tmp_path), "mesh size", "FOM vs mesh"
        )
        assert "GPU-1R" in text
        assert "32" in text and "64" in text

    def test_load_campaign_follows_manifest_order(self, tmp_path):
        run_campaign(mini_specs(), tmp_path, workers=1)
        labels = [a["label"] for a in load_campaign(tmp_path)]
        assert labels == [s.label for s in mini_specs()]


def _hammer_worker(root, deck, rounds, barrier, worker_id):
    """One cache-hammer process: execute the same point and store it,
    writing the bytes it produced to a per-worker file for the parent's
    byte-identity check."""
    from pathlib import Path

    from repro.orchestration.artifacts import dumps_artifact

    spec = RunSpec.from_deck(deck)
    cache = RunCache(root)
    for r in range(rounds):
        barrier.wait()  # line all workers up on every round
        artifact = execute_point(PointTask(spec=spec))
        cache.store(artifact)
        Path(root, f"worker{worker_id}_round{r}.bytes").write_bytes(
            dumps_artifact(artifact).encode()
        )


class TestConcurrentCache:
    def test_same_key_hammer_is_single_canonical_file(self, tmp_path):
        """Several workers resolving one cache_key concurrently must
        leave exactly one canonical artifact, byte-identical across
        every producer — the property the service's dedup and the
        campaign resume path both stand on."""
        import multiprocessing

        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        spec = RunSpec(
            params=BASE, config=CONFIG, ncycles=2, warmup=1, label="hammer"
        )
        workers, rounds = 3, 2
        barrier = ctx.Barrier(workers)
        procs = [
            ctx.Process(
                target=_hammer_worker,
                args=(str(tmp_path), spec.to_deck(), rounds, barrier, i),
            )
            for i in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=300)
            assert p.exitcode == 0

        cache = RunCache(tmp_path)
        key = spec.cache_key()
        # One canonical file, no torn tmp litter.
        points = list((tmp_path / "points").iterdir())
        assert [p.name for p in points] == [f"{key}.json"]
        canonical = cache.path(key).read_bytes()
        # Every producer emitted exactly the canonical bytes.
        produced = sorted(tmp_path.glob("worker*_round*.bytes"))
        assert len(produced) == workers * rounds
        for path in produced:
            assert path.read_bytes() == canonical, path.name
        # And the survivor parses and round-trips.
        assert cache.load(key)["cache_key"] == key
