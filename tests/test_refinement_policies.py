"""Policy-registry tests: criteria, budget policy, bookkeeping, properties.

Covers the refinement-policy registry (did-you-mean validation, every
named policy constructible), the recovered-gradient criterion, the
block-budget policy's hard cap / hysteresis / determinism properties
(hypothesis), the derefine-gap rate limit under arbitrary flag
sequences, and the ``forget_stale`` bookkeeping contract.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.block import FieldSpec
from repro.mesh.mesh import Mesh, MeshGeometry
from repro.mesh.refinement import (
    KNOWN_POLICIES,
    AmrFlag,
    BlockBudgetPolicy,
    FirstDerivativeCriterion,
    RecoveredGradientCriterion,
    RefinementPolicy,
    SecondDerivativeCriterion,
    SphericalWavefrontTagger,
    TagReport,
    UnknownPolicyError,
    build_policy,
    check_policy,
    policy_names,
)


def make_mesh(levels=3, mesh=32, block=8, allocate=True):
    geo = MeshGeometry(
        ndim=2,
        mesh_size=(mesh, mesh, 1),
        block_size=(block, block, 1),
        ng=2,
        num_levels=levels,
    )
    return Mesh(geo, field_specs=[FieldSpec("q", 1)], allocate=allocate)


class UidIndicatorTagger:
    """Deterministic per-uid indicator for policy-level tests."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.overrides = {}

    def _value(self, uid: int, cycle: int) -> float:
        if uid in self.overrides:
            return self.overrides[uid]
        return (hash((self.seed, uid, cycle)) % 1000) / 1000.0

    def indicator(self, blk, cycle=0):
        return self._value(blk.uid, cycle)

    def flag_from(self, ind):
        if ind > 0.7:
            return AmrFlag.REFINE
        if ind < 0.3:
            return AmrFlag.DEREFINE
        return AmrFlag.SAME

    def tag(self, blk, cycle):
        return self.flag_from(self.indicator(blk, cycle))


class HashFlagTagger:
    """tag()-only tagger (no indicator): arbitrary deterministic flags."""

    def __init__(self, seed: int):
        self.seed = seed

    def tag(self, blk, cycle):
        return AmrFlag(hash((self.seed, blk.uid, cycle)) % 3 - 1)


# ------------------------------------------------------------- registry


class TestRegistry:
    def test_known_names(self):
        assert policy_names() == KNOWN_POLICIES
        assert "first_derivative" in KNOWN_POLICIES
        assert "second_derivative" in KNOWN_POLICIES
        assert "recovered_gradient" in KNOWN_POLICIES
        assert "block_budget" in KNOWN_POLICIES

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownPolicyError, match="did you mean"):
            check_policy("blok_budget")
        with pytest.raises(UnknownPolicyError):
            build_policy(
                "nope", numeric=True, refine_tol=0.3, derefine_tol=0.03
            )

    @pytest.mark.parametrize("name", KNOWN_POLICIES)
    def test_every_name_builds_numeric(self, name):
        policy = build_policy(
            name,
            numeric=True,
            refine_tol=0.3,
            derefine_tol=0.03,
            block_budget=10,
            field_name="q",
        )
        assert isinstance(policy, RefinementPolicy)
        if name == "block_budget":
            assert isinstance(policy, BlockBudgetPolicy)
            assert policy.target_blocks == 10

    @pytest.mark.parametrize("name", KNOWN_POLICIES)
    def test_every_name_builds_modeled(self, name):
        policy = build_policy(
            name,
            numeric=False,
            refine_tol=0.3,
            derefine_tol=0.03,
            block_budget=10,
            wavefront=SphericalWavefrontTagger(),
        )
        assert isinstance(policy.tagger, SphericalWavefrontTagger)

    def test_modeled_needs_wavefront(self):
        with pytest.raises(ValueError, match="SphericalWavefrontTagger"):
            build_policy(
                "first_derivative",
                numeric=False,
                refine_tol=0.3,
                derefine_tol=0.03,
            )

    def test_budget_policy_needs_budget(self):
        with pytest.raises(ValueError, match="block_budget >= 1"):
            build_policy(
                "block_budget",
                numeric=True,
                refine_tol=0.3,
                derefine_tol=0.03,
            )

    def test_criterion_selection(self):
        kinds = {
            "first_derivative": FirstDerivativeCriterion,
            "second_derivative": SecondDerivativeCriterion,
            "recovered_gradient": RecoveredGradientCriterion,
        }
        for name, cls in kinds.items():
            policy = build_policy(
                name,
                numeric=True,
                refine_tol=0.4,
                derefine_tol=0.04,
                field_name="q",
                component=2,
            )
            assert isinstance(policy.tagger, cls)
            assert policy.tagger.component == 2


# ----------------------------------------------------- recovered gradient


class TestRecoveredGradient:
    def test_flat_field_derefines(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 3.0
        crit = RecoveredGradientCriterion("q")
        assert crit.tag(blk, cycle=0) == AmrFlag.DEREFINE

    def test_linear_ramp_recovers_exactly(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        x = blk.cell_centers(0)
        y = blk.cell_centers(1)
        blk.fields["q"][...] = 2.0 * x[None, None, None, :] + y[None, :, None]
        crit = RecoveredGradientCriterion("q")
        # A linear profile has a constant gradient; the box filter
        # reproduces it exactly, so the indicator is ~0.
        assert crit.indicator(blk) < 0.05

    def test_step_is_flagged(self):
        mesh = make_mesh()
        blk = mesh.block_list[0]
        blk.fields["q"][...] = 1.0
        blk.fields["q"][:, :, :, 6:] = 10.0
        crit = RecoveredGradientCriterion("q")
        assert crit.indicator(blk) > crit.refine_tol
        assert crit.tag(blk, cycle=0) == AmrFlag.REFINE

    def test_component_restriction(self):
        mesh = make_mesh()
        geo = mesh.geometry
        blk = Mesh(geo, field_specs=[FieldSpec("q", 3)]).block_list[0]
        blk.fields["q"][...] = 1.0
        blk.fields["q"][0, :, :, 6:] = 10.0  # step only in component 0
        full = RecoveredGradientCriterion("q").indicator(blk)
        c0 = RecoveredGradientCriterion("q", component=0).indicator(blk)
        c2 = RecoveredGradientCriterion("q", component=2).indicator(blk)
        assert full == c0
        assert c2 < c0

    def test_second_derivative_component_restriction(self):
        mesh = make_mesh()
        blk = Mesh(mesh.geometry, field_specs=[FieldSpec("q", 2)]).block_list[0]
        blk.fields["q"][...] = 1.0
        blk.fields["q"][1, :, :, 6:] = 10.0
        assert (
            SecondDerivativeCriterion("q", component=0).indicator(blk)
            < SecondDerivativeCriterion("q", component=1).indicator(blk)
        )


# ------------------------------------------------------ wavefront ranking


class TestWavefrontIndicator:
    def test_sign_matches_legacy_intersection_tag(self):
        mesh = make_mesh(allocate=False)
        tagger = SphericalWavefrontTagger(center=(0.5, 0.5, 0.0))
        for cycle in range(0, 40, 3):
            r = tagger.radius(cycle)
            for blk in mesh.block_list:
                dmin, dmax = tagger._distance_to_box(blk)
                intersects = (
                    dmin <= r + tagger.width and dmax >= r - tagger.width
                )
                ind = tagger.indicator(blk, cycle)
                assert (ind >= 0.0) == intersects
                expected = AmrFlag.REFINE if intersects else AmrFlag.DEREFINE
                assert tagger.tag(blk, cycle) == expected

    def test_indicator_ranks_by_distance(self):
        mesh = make_mesh(allocate=False)
        tagger = SphericalWavefrontTagger(center=(0.0, 0.0, 0.0), r0=0.05)
        inds = [tagger.indicator(b, 0) for b in mesh.block_list]
        # The block containing the center overlaps most.
        assert max(inds) == tagger.indicator(mesh.block_list[0], 0)


# ----------------------------------------------------------- TagReport


class TestTagReport:
    def test_legacy_tuple_unpacking(self):
        mesh = make_mesh(allocate=False)
        policy = RefinementPolicy(UidIndicatorTagger())
        refine, derefine, checked = policy.collect_flags(mesh, cycle=0)
        assert checked == mesh.num_blocks
        assert isinstance(refine, list) and isinstance(derefine, list)

    def test_counts_and_indicator(self):
        mesh = make_mesh(allocate=False)
        tagger = UidIndicatorTagger()
        for blk in mesh.block_list:
            tagger.overrides[blk.uid] = 0.9
        report = RefinementPolicy(tagger).collect_flags(mesh, cycle=0)
        assert report.refine_requests == mesh.num_blocks
        assert report.indicator_max == 0.9
        assert report.derefine_requests == 0

    def test_tag_only_tagger_has_no_indicator(self):
        mesh = make_mesh(allocate=False)
        report = RefinementPolicy(HashFlagTagger(1)).collect_flags(mesh, 0)
        assert report.indicator_max == 0.0

    def test_gap_blocked_counter(self):
        mesh = make_mesh(allocate=False)
        tagger = UidIndicatorTagger()
        policy = RefinementPolicy(tagger, derefine_gap=10)
        for blk in mesh.block_list:
            tagger.overrides[blk.uid] = 0.9
        report = policy.collect_flags(mesh, 0)
        mesh.remesh(report.refine, [])
        policy.forget_stale(mesh)
        for blk in mesh.block_list:
            tagger.overrides[blk.uid] = 0.0  # everyone wants out now
        report = policy.collect_flags(mesh, 1)
        assert report.derefine == []
        assert report.derefine_blocked > 0


# -------------------------------------------------- budget policy (props)


def run_budget_cycles(mesh, policy, tagger, cycles):
    counts = []
    for cycle in range(cycles):
        tagger.seed += 1  # fresh indicator landscape each cycle
        report = policy.collect_flags(mesh, cycle)
        mesh.remesh(report.refine, report.derefine)
        policy.forget_stale(mesh)
        mesh.tree.check_valid()
        counts.append(mesh.num_blocks)
    return counts


class TestBlockBudget:
    @settings(max_examples=15)
    @given(
        target=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_never_exceeds_budget_after_cascade(self, target, seed):
        mesh = make_mesh(levels=3, allocate=False)
        initial = mesh.num_blocks
        tagger = UidIndicatorTagger(seed)
        policy = BlockBudgetPolicy(
            tagger, derefine_gap=2, target_blocks=target
        )
        counts = run_budget_cycles(mesh, policy, tagger, cycles=6)
        cap = max(target, initial)
        assert all(c <= cap for c in counts), (counts, target, initial)

    @settings(max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_hysteresis_band_is_quiet(self, seed):
        mesh = make_mesh(levels=3, allocate=False)
        n = mesh.num_blocks
        # Pick a target whose band [floor(0.9 t), t] contains n.
        target = n + 1
        assert math.floor(target * 0.9) <= n <= target
        policy = BlockBudgetPolicy(
            UidIndicatorTagger(seed), target_blocks=target
        )
        report = policy.collect_flags(mesh, 0)
        assert report.refine == [] and report.derefine == []

    def test_refines_toward_target(self):
        mesh = make_mesh(levels=3, allocate=False)
        initial = mesh.num_blocks
        tagger = UidIndicatorTagger(3)
        policy = BlockBudgetPolicy(tagger, target_blocks=3 * initial)
        counts = run_budget_cycles(mesh, policy, tagger, cycles=4)
        assert counts[-1] <= 3 * initial
        assert counts[-1] > initial

    def test_derefines_excess_respecting_gap(self):
        mesh = make_mesh(levels=3, allocate=False)
        initial = mesh.num_blocks
        tagger = UidIndicatorTagger(5)
        grow = BlockBudgetPolicy(tagger, target_blocks=4 * initial)
        run_budget_cycles(mesh, grow, tagger, cycles=3)
        grown = mesh.num_blocks
        assert grown > initial
        shrink = BlockBudgetPolicy(
            tagger, derefine_gap=0, target_blocks=initial
        )
        # Young blocks block derefinement under a long gap.
        gapped = BlockBudgetPolicy(
            tagger, derefine_gap=1000, target_blocks=initial
        )
        report = gapped.collect_flags(mesh, cycle=3)
        assert report.derefine == []
        assert report.derefine_blocked > 0
        counts = run_budget_cycles(mesh, shrink, tagger, cycles=4)
        assert counts[-1] < grown

    def test_order_independent_and_deterministic(self):
        mesh = make_mesh(levels=3, allocate=False)
        tagger = UidIndicatorTagger(9)
        policy_a = BlockBudgetPolicy(tagger, target_blocks=40)
        policy_b = BlockBudgetPolicy(tagger, target_blocks=40)
        shuffled = list(mesh.block_list)
        rng = np.random.default_rng(0)
        rng.shuffle(shuffled)
        fake = SimpleNamespace(
            block_list=shuffled,
            geometry=mesh.geometry,
            tree=mesh.tree,
            num_blocks=mesh.num_blocks,
            ndim=mesh.ndim,
            remesh_generation=mesh.remesh_generation,
        )
        report_a = policy_a.collect_flags(mesh, 0)
        report_b = policy_b.collect_flags(fake, 0)
        assert set(report_a.refine) == set(report_b.refine)
        assert set(report_a.derefine) == set(report_b.derefine)

    def test_threshold_tagging_order_independent(self):
        mesh = make_mesh(allocate=False)
        tagger = UidIndicatorTagger(11)
        shuffled = list(mesh.block_list)
        np.random.default_rng(1).shuffle(shuffled)
        fake = SimpleNamespace(
            block_list=shuffled,
            geometry=mesh.geometry,
            remesh_generation=mesh.remesh_generation,
        )
        a = RefinementPolicy(tagger).collect_flags(mesh, 0)
        b = RefinementPolicy(tagger).collect_flags(fake, 0)
        assert set(a.refine) == set(b.refine)
        assert set(a.derefine) == set(b.derefine)

    def test_budget_requires_target(self):
        mesh = make_mesh(allocate=False)
        policy = BlockBudgetPolicy(UidIndicatorTagger())
        with pytest.raises(ValueError, match="target_blocks"):
            policy.collect_flags(mesh, 0)

    def test_budget_requires_indicator_tagger(self):
        mesh = make_mesh(allocate=False)
        policy = BlockBudgetPolicy(HashFlagTagger(0), target_blocks=1000)
        with pytest.raises(TypeError, match="indicator"):
            policy.collect_flags(mesh, 0)


# ----------------------------------------------- derefine-gap rate limit


class TestDerefineGapProperty:
    @settings(max_examples=10)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gap=st.integers(min_value=1, max_value=6),
    )
    def test_gap_holds_under_arbitrary_flags(self, seed, gap):
        mesh = make_mesh(levels=3, allocate=False)
        policy = RefinementPolicy(HashFlagTagger(seed), derefine_gap=gap)
        births = {}  # independent ledger: uid -> first cycle seen
        for cycle in range(10):
            for blk in mesh.block_list:
                births.setdefault(blk.uid, cycle)
            report = policy.collect_flags(mesh, cycle)
            by_loc = {b.lloc: b for b in mesh.block_list}
            for loc in report.derefine:
                age = cycle - births[by_loc[loc].uid]
                assert age >= gap, (cycle, loc, age, gap)
            mesh.remesh(report.refine, report.derefine)
            policy.forget_stale(mesh)


# --------------------------------------------- forget_stale bookkeeping


class TestForgetStale:
    def test_missed_cleanup_is_loud(self):
        mesh = make_mesh(allocate=False)
        policy = RefinementPolicy(UidIndicatorTagger())
        policy.collect_flags(mesh, 0)
        policy.forget_stale(mesh)
        mesh.remesh([], [])  # a remesh the policy never hears about
        with pytest.raises(RuntimeError, match="forget_stale"):
            policy.collect_flags(mesh, 1)

    def test_remeshes_observed_counts(self):
        mesh = make_mesh(allocate=False)
        policy = RefinementPolicy(UidIndicatorTagger())
        assert policy.remeshes_observed == 0
        for cycle in range(3):
            report = policy.collect_flags(mesh, cycle)
            mesh.remesh(report.refine, report.derefine)
            policy.forget_stale(mesh)
        assert policy.remeshes_observed == 3

    def test_no_dead_uids_over_remesh_heavy_run(self):
        """_birth_cycle never retains dead block uids (the satellite)."""
        from repro.api import RunSpec, Simulation, build_simulation_params
        from repro.api import build_execution_config

        params = build_simulation_params(
            ndim=2, mesh_size=32, block_size=8, num_levels=3,
            derefine_gap=2,
        )
        config = build_execution_config(backend="gpu", mode="modeled")
        sim = Simulation(
            RunSpec(params=params, config=config, ncycles=25, warmup=0)
        )
        sim.run()
        driver = sim.driver
        live = {b.uid for b in driver.mesh.block_list}
        assert set(driver.policy._birth_cycle) <= live
        assert driver.policy.consistent_with(driver.mesh)
        assert driver.policy.remeshes_observed == 25
        # The run actually churned the tree, so the check had teeth.
        assert driver.metrics.counters.get("remesh_events", 0) > 0
