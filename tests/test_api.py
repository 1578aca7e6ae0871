"""The repro.api surface: RunSpec identity, Simulation facade, builders."""

import dataclasses
import pickle

import pytest

from repro.api import (
    ConfigError,
    ProgressEvent,
    RunSpec,
    Simulation,
    build_execution_config,
    build_optimization_flags,
    build_simulation_params,
    iter_progress,
    run,
)
from repro.core.characterize import characterize
from repro.driver.execution import ExecutionConfig, OptimizationFlags
from repro.driver.input import InputError, params_from_input
from repro.driver.params import SimulationParams

#: A valid non-default value for every numeric SimulationParams field
#: (a new field without one fails its round-trip case with a KeyError).
NUMERIC_PARAM_CHANGES = {
    "ndim": 2,
    "mesh_size": 64,
    "block_size": 8,
    "num_levels": 2,
    "num_scalars": 2,
    "cfl": 0.3,
    "refine_every": 2,
    "derefine_gap": 5,
    "load_balance_every": 2,
    "refine_tol": 0.2,
    "derefine_tol": 0.05,
    "block_budget": 7,
    "wavefront_speed": 0.02,
    "wavefront_width": 0.02,
    "wavefront_r0": 0.2,
}


def small_spec(**overrides) -> RunSpec:
    fields = dict(
        params=SimulationParams(
            ndim=2, mesh_size=32, block_size=8, num_levels=2, num_scalars=1
        ),
        config=ExecutionConfig(backend="gpu", num_gpus=1, ranks_per_gpu=1),
        ncycles=2,
        warmup=1,
        label="small",
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestRunSpecRoundTrips:
    def test_pickle_round_trip(self):
        """Worker pools ship RunSpecs between processes."""
        spec = small_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_deck_round_trip(self):
        spec = small_spec()
        clone = RunSpec.from_deck(spec.to_deck())
        assert clone.params == spec.params
        assert clone.config == spec.config
        assert (clone.ncycles, clone.warmup) == (2, 1)
        assert clone.label == "small"
        assert clone.cache_key() == spec.cache_key()

    def test_deck_round_trip_cpu(self):
        spec = small_spec(
            config=ExecutionConfig(backend="cpu", cpu_ranks=4), label=""
        )
        clone = RunSpec.from_deck(spec.to_deck())
        assert clone.config == spec.config
        assert clone.cache_key() == spec.cache_key()

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(SimulationParams)
            if type(f.default) in (int, float)
        ],
    )
    def test_numeric_param_survives_deck(self, name):
        """Every params field must survive the deck, or a spec journaled
        in deck form comes back under a different cache key."""
        spec = RunSpec(
            params=SimulationParams(**{name: NUMERIC_PARAM_CHANGES[name]})
        )
        clone = RunSpec.from_deck(spec.to_deck())
        assert clone.params == spec.params
        assert clone.cache_key() == spec.cache_key()

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.vibe"
        path.write_text(small_spec().to_deck())
        assert RunSpec.from_file(path) == small_spec()

    def test_explicit_overrides_beat_deck(self):
        clone = RunSpec.from_deck(small_spec().to_deck(), ncycles=7, warmup=0)
        assert (clone.ncycles, clone.warmup) == (7, 0)

    def test_invalid_cycles_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(ncycles=0)
        with pytest.raises(ConfigError):
            small_spec(warmup=-1)


class TestCacheKey:
    def test_stable_across_instances(self):
        assert small_spec().cache_key() == small_spec().cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"ncycles": 3},
            {"warmup": 0},
            {"params": SimulationParams(
                ndim=2, mesh_size=64, block_size=8, num_levels=2, num_scalars=1
            )},
            {"params": SimulationParams(
                ndim=2, mesh_size=32, block_size=16, num_levels=2, num_scalars=1
            )},
            {"params": SimulationParams(
                ndim=2, mesh_size=32, block_size=8, num_levels=3, num_scalars=1
            )},
            {"config": ExecutionConfig(backend="cpu", cpu_ranks=4)},
            {"config": ExecutionConfig(ranks_per_gpu=2)},
            {"config": ExecutionConfig(kernel_mode="per_block")},
            {"config": ExecutionConfig(
                optimizations=OptimizationFlags(pooled_block_allocation=True)
            )},
        ],
        ids=[
            "ncycles", "warmup", "mesh", "block", "levels",
            "backend", "ranks", "kernel_mode", "optimizations",
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert small_spec(**change).cache_key() != small_spec().cache_key()

    def test_label_is_identity_neutral(self):
        """Relabeling must not invalidate cached artifacts."""
        assert (
            small_spec(label="renamed").cache_key() == small_spec().cache_key()
        )


class TestBuilders:
    def test_happy_path_matches_direct_construction(self):
        built = build_execution_config(
            backend="cpu", cpu_ranks=8, kernel_mode="per_block"
        )
        assert built == ExecutionConfig(
            backend="cpu", cpu_ranks=8, kernel_mode="per_block"
        )

    def test_kernel_mode_typo_lists_choices(self):
        with pytest.raises(ConfigError, match="packed, per_block"):
            build_execution_config(kernel_mode="paked")
        with pytest.raises(ConfigError, match="did you mean 'packed'"):
            build_execution_config(kernel_mode="paked")

    def test_unknown_option_suggests_fix(self):
        with pytest.raises(ConfigError, match="did you mean 'kernel_mode'"):
            build_execution_config(kernal_mode="packed")

    def test_mode_and_backend_typos(self):
        with pytest.raises(ConfigError, match="modeled, numeric"):
            build_execution_config(mode="modelled")
        with pytest.raises(ConfigError, match="gpu, cpu"):
            build_execution_config(backend="gpus")

    def test_range_errors_still_config_errors(self):
        with pytest.raises(ConfigError):
            build_execution_config(backend="cpu", cpu_ranks=0)

    def test_optimizations_dict_and_typo(self):
        cfg = build_execution_config(
            optimizations={"pooled_block_allocation": True}
        )
        assert cfg.optimizations.pooled_block_allocation
        with pytest.raises(ConfigError, match="pooled_block_allocation"):
            build_optimization_flags(pooled_blok_allocation=True)
        with pytest.raises(ConfigError, match="must be a bool"):
            build_optimization_flags(pooled_block_allocation=1)

    def test_speedup_constants_not_settable(self):
        with pytest.raises(ConfigError):
            build_optimization_flags(POOL_SPEEDUP=2.0)

    def test_simulation_params_builder(self):
        with pytest.raises(ConfigError, match="did you mean 'mesh_size'"):
            build_simulation_params(mesh_sze=64)
        with pytest.raises(ConfigError, match="weno5, plm"):
            build_simulation_params(reconstruction="weno")


class TestSimulationFacade:
    def test_run_and_result(self):
        sim = Simulation(small_spec())
        result = sim.run()
        assert result.fom > 0
        assert sim.result() is result  # cached, no rerun

    def test_result_runs_lazily(self):
        sim = Simulation(small_spec())
        assert sim.result().fom > 0

    def test_from_deck_text(self):
        sim = Simulation.from_deck(small_spec().to_deck())
        assert sim.spec == small_spec()

    def test_from_deck_path(self, tmp_path):
        path = tmp_path / "a.vibe"
        path.write_text(small_spec().to_deck())
        assert Simulation.from_deck(str(path)).spec == small_spec()

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigError, match="RunSpec"):
            Simulation({"mesh": 64})

    def test_run_convenience_matches_facade(self):
        assert run(small_spec()).fom == Simulation(small_spec()).run().fom

    def test_mpi_counters_populated(self):
        result = run(small_spec())
        assert result.mpi_counters["allreduce_calls"] > 0
        assert "remote_bytes" in result.mpi_counters


class TestDeprecatedShim:
    def test_characterize_warns_and_matches(self):
        spec = small_spec()
        with pytest.warns(DeprecationWarning, match="RunSpec"):
            old = characterize(spec.params, spec.config, 2, 1)
        assert old.fom == Simulation(spec).run().fom


class TestJsonWire:
    """RunSpec.to_json / from_json — the service's submission schema."""

    def test_round_trip(self):
        spec = small_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.cache_key() == spec.cache_key()

    def test_round_trip_with_optimizations(self):
        spec = small_spec(
            config=build_execution_config(
                backend="gpu",
                num_gpus=1,
                ranks_per_gpu=2,
                optimizations={"parallel_host_tasks": True},
            )
        )
        doc = spec.to_json()
        assert doc["config"]["optimizations"] == {"parallel_host_tasks": True}
        assert RunSpec.from_json(doc) == spec

    def test_deck_form(self):
        spec = small_spec()
        clone = RunSpec.from_json(
            {"deck": spec.to_deck(), "ncycles": 7}
        )
        assert clone.ncycles == 7
        assert clone.params == spec.params

    def test_deck_form_excludes_structured_form(self):
        with pytest.raises(ConfigError, match="not both"):
            RunSpec.from_json(
                {"deck": "x", "params": {"mesh_size": 32}}
            )

    def test_unknown_fields_rejected_at_every_layer(self):
        base = small_spec().to_json()
        for sabotage in (
            {"bogus": 1},
            {"params": dict(base["params"], bogus=1)},
            {"config": dict(base["config"], bogus=1)},
        ):
            doc = dict(base)
            doc.update(sabotage)
            with pytest.raises(ConfigError, match="bogus"):
                RunSpec.from_json(doc)

    def test_bad_types_become_config_errors(self):
        with pytest.raises(ConfigError):
            RunSpec.from_json("not an object")
        doc = small_spec().to_json()
        doc["ncycles"] = "three"
        with pytest.raises(ConfigError):
            RunSpec.from_json(doc)


def test_removed_kernel_backend_only_accepted_as_numpy():
    """Old decks, JSON specs and journals may still name an engine:
    ``numpy`` (the only one) loads unchanged, any other name fails with
    an error that says the engines were removed."""
    deck = small_spec().to_deck().replace(
        "kernel_mode = packed\n",
        "kernel_mode = packed\nkernel_backend = numpy\n",
    )
    doc = small_spec().to_json()
    doc["config"]["kernel_backend"] = "numpy"
    assert build_execution_config(kernel_backend="numpy") == ExecutionConfig()
    assert RunSpec.from_json(doc) == small_spec()
    assert RunSpec.from_deck(deck) == small_spec()
    for engine in ("jit", "gpu"):
        with pytest.raises(ConfigError, match="removed"):
            build_execution_config(kernel_backend=engine)
        doc["config"]["kernel_backend"] = engine
        with pytest.raises(ConfigError, match="removed"):
            RunSpec.from_json(doc)
        bad_deck = deck.replace("= numpy", f"= {engine}")
        with pytest.raises(InputError, match="removed"):
            params_from_input(bad_deck)
        with pytest.raises(ConfigError, match="removed"):
            RunSpec.from_deck(bad_deck)


class TestProgress:
    """iter_progress(): per-cycle events from MetricsRegistry snapshots."""

    def test_events_cover_warmup_and_measured_cycles(self):
        spec = small_spec()  # ncycles=2, warmup=1
        events = list(iter_progress(Simulation(spec)))
        assert len(events) == 3
        assert [e.cycle for e in events] == [1, 2, 3]
        assert events[0].warmup and not events[-1].warmup
        assert events[0].measured == 0
        assert events[-1].measured == spec.ncycles
        assert events[-1].done and not events[0].done

    def test_events_carry_metrics_counters(self):
        events = list(iter_progress(Simulation(small_spec())))
        final = events[-1]
        assert final.blocks > 0
        assert isinstance(final.counters, dict) and final.counters

    def test_observed_run_matches_plain_run(self):
        spec = small_spec()
        sim = Simulation(spec)
        for _ in iter_progress(sim):
            pass
        assert sim.result() == Simulation(spec).run()

    def test_event_dict_round_trip(self):
        event = list(iter_progress(Simulation(small_spec())))[-1]
        clone = ProgressEvent.from_dict(event.to_dict())
        assert clone == event

    def test_run_exception_surfaces_on_consumer(self, monkeypatch):
        sim = Simulation(small_spec())

        def explode(on_cycle=None):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(sim, "run", explode)
        with pytest.raises(RuntimeError, match="mid-run failure"):
            list(iter_progress(sim))
