"""Property suite for the shard partitioner (ISSUE 8 satellite).

The partition pipeline — ``compute_units`` (the serial engine's chunk
grid), ``partition_lpt`` (longest-processing-time over unit costs) and
``plan_shards`` (their composition) — carries the bitwise contract of
sharded execution, so its structural invariants are pinned by property
tests rather than examples:

* every block is assigned to exactly one shard, whatever the costs;
* LPT's makespan bound: ``max_load <= mean_load + max(unit_costs)``;
* repartitioning after a refine/derefine (any new block population)
  still covers the new block set exactly once;
* the plan is a pure function of (costs, interior_cells, num_shards) —
  deterministic across calls and process boundaries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.loadbalance import partition_lpt
from repro.parallel import compute_units, plan_shards
from repro.solver.packed_kernels import PACK_CHUNK_CELLS

#: Positive, finite, not-absurdly-large block costs (cost models emit
#: cells or seconds; both are bounded in practice).
costs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=64,
)
shards_strategy = st.integers(min_value=1, max_value=8)
cells_strategy = st.sampled_from([64, 512, 4096, 32768])


# ------------------------------------------------------------ chunk grid


@given(
    nblocks=st.integers(min_value=1, max_value=500),
    cells=cells_strategy,
)
def test_units_tile_the_block_axis_exactly(nblocks, cells):
    units = compute_units(nblocks, cells)
    assert units[0][0] == 0
    assert units[-1][1] == nblocks
    for (lo_a, hi_a), (lo_b, hi_b) in zip(units, units[1:]):
        assert hi_a == lo_b, "units must abut: no gap, no overlap"
        assert lo_a < hi_a
    assert all(lo < hi for lo, hi in units)


@given(
    nblocks=st.integers(min_value=1, max_value=500),
    cells=cells_strategy,
)
def test_units_match_the_serial_chunk_step(nblocks, cells):
    """Unit boundaries are exactly the serial engine's chunk boundaries —
    the bitwise-parity precondition."""
    step = max(1, PACK_CHUNK_CELLS // cells)
    units = compute_units(nblocks, cells)
    assert units == [
        (lo, min(nblocks, lo + step)) for lo in range(0, nblocks, step)
    ]


# ------------------------------------------------------------------- LPT


@given(costs=costs_strategy, nshards=shards_strategy)
def test_lpt_assigns_every_item_exactly_once(costs, nshards):
    assignments = partition_lpt(costs, nshards)
    assert len(assignments) == len(costs)
    assert all(0 <= s < nshards for s in assignments)


@given(costs=costs_strategy, nshards=shards_strategy)
def test_lpt_respects_the_makespan_bound(costs, nshards):
    """Graham's LPT guarantee: no shard exceeds the mean load by more
    than one item."""
    assignments = partition_lpt(costs, nshards)
    loads = [0.0] * nshards
    for cost, shard in zip(costs, assignments):
        loads[shard] += float(cost)
    mean = sum(float(c) for c in costs) / nshards
    assert max(loads) <= mean + max(float(c) for c in costs) + 1e-9


@given(costs=costs_strategy, nshards=shards_strategy)
def test_lpt_is_deterministic(costs, nshards):
    assert partition_lpt(costs, nshards) == partition_lpt(costs, nshards)
    assert partition_lpt(list(costs), nshards) == partition_lpt(
        np.asarray(costs), nshards
    )


# ------------------------------------------------------------ plan_shards


@given(costs=costs_strategy, nshards=shards_strategy, cells=cells_strategy)
def test_plan_covers_every_block_exactly_once(costs, nshards, cells):
    plan = plan_shards(costs, cells, nshards)
    seen = []
    for units in plan.units_by_shard:
        for lo, hi in units:
            seen.extend(range(lo, hi))
    assert sorted(seen) == list(range(len(costs)))
    assert sum(plan.shard_blocks()) == len(costs)


@given(costs=costs_strategy, nshards=shards_strategy, cells=cells_strategy)
def test_plan_respects_the_lpt_bound_over_units(costs, nshards, cells):
    plan = plan_shards(costs, cells, nshards)
    unit_costs = [
        float(sum(costs[lo:hi])) for lo, hi in plan.units
    ]
    loads = plan.shard_costs(costs)
    mean = sum(unit_costs) / nshards
    assert max(loads) <= mean + max(unit_costs) + 1e-9
    np.testing.assert_allclose(sum(loads), sum(unit_costs), rtol=1e-12)


@given(
    costs=costs_strategy,
    nshards=shards_strategy,
    cells=cells_strategy,
    refined=st.integers(min_value=0, max_value=32),
    data=st.data(),
)
@settings(max_examples=50)
def test_repartition_after_remesh_preserves_the_block_set(
    costs, nshards, cells, refined, data
):
    """A remesh changes the block population; the *new* plan must cover
    the new population exactly once (the rebind invariant)."""
    plan_shards(costs, cells, nshards)  # old generation
    new_costs = list(costs)
    for _ in range(refined):  # refine: children append
        new_costs.append(
            data.draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
        )
    if len(new_costs) > 1:  # derefine: drop one
        del new_costs[data.draw(st.integers(0, len(new_costs) - 1))]
    new_plan = plan_shards(new_costs, cells, nshards)
    seen = []
    for units in new_plan.units_by_shard:
        for lo, hi in units:
            seen.extend(range(lo, hi))
    assert sorted(seen) == list(range(len(new_costs)))


@given(costs=costs_strategy, nshards=shards_strategy, cells=cells_strategy)
def test_plan_is_deterministic_for_fixed_topology(costs, nshards, cells):
    a = plan_shards(costs, cells, nshards)
    b = plan_shards(costs, cells, nshards)
    assert a == b
