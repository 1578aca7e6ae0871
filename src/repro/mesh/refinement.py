"""Refinement tagging: per-block criteria, policies, and a named registry.

Mirrors Parthenon's ``Refinement::Tag`` / ``CheckAllRefinement`` phase
(Sections II-E and VIII-A): every cycle each block evaluates its refinement
criteria (a scalar loop over blocks in the host code — one of the serial
bottlenecks the paper profiles), flags are aggregated, and derefinement is
rate-limited by a minimum gap of 10 cycles (Section II-G).

Criteria (per-block scalar indicators with a hysteresis band):

* :class:`FirstDerivativeCriterion` — the numeric criterion used by the
  Burgers benchmark (and Table III's ``FirstDerivative`` kernel): refine
  where the normalized first derivative of a field exceeds a threshold.
* :class:`SecondDerivativeCriterion` — Löhner-style normalized second
  derivative (Parthenon's ``derivative_order_2``).
* :class:`RecoveredGradientCriterion` — Zienkiewicz–Zhu-style recovered
  gradient error indicator: compare the raw cell-centered gradient against
  a locally smoothed ("recovered") gradient; large mismatch marks cells the
  grid under-resolves.  The goal-oriented family from the
  pyroteus/goalie line of work, adapted to block-structured AMR.
* :class:`SphericalWavefrontTagger` — a synthetic workload generator for the
  platform-model execution mode: an expanding spherical wavefront (the
  paper's stone-dropped-in-water picture) sweeps the domain and keeps the
  tree churning with realistic block counts without numeric data.

Policies (mesh-wide flag collection on top of a criterion):

* :class:`RefinementPolicy` — classic threshold tagging with the
  derefinement rate limit.
* :class:`BlockBudgetPolicy` — budget-targeted regridding (AMReX-style):
  rank blocks by indicator and refine/derefine toward a fixed block-count
  target; the 2:1 cascade is simulated on a cloned tree so the budget is a
  hard cap, never exceeded.

The registry (:data:`KNOWN_POLICIES`, :func:`build_policy`) names these for
decks / ``repro.api`` / the CLI, with the same did-you-mean validation as
every other ``repro.api`` choice.
"""

from __future__ import annotations

import difflib
import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.mesh.block import MeshBlock
from repro.mesh.logical_location import LogicalLocation
from repro.mesh.mesh import Mesh

DEREFINE_GAP_CYCLES = 10

#: Registry of policy names accepted by decks, the API builders and the
#: CLI.  ``first_derivative`` is the seed behavior and the default.
KNOWN_POLICIES: Tuple[str, ...] = (
    "first_derivative",
    "second_derivative",
    "recovered_gradient",
    "block_budget",
)

DEFAULT_POLICY = "first_derivative"


class UnknownPolicyError(ValueError):
    """A refinement-policy name not present in the registry."""


def policy_names() -> Tuple[str, ...]:
    """Every registered refinement-policy name."""
    return KNOWN_POLICIES


def _suggest(given: str) -> str:
    close = difflib.get_close_matches(given, KNOWN_POLICIES, n=1, cutoff=0.5)
    return f" (did you mean {close[0]!r}?)" if close else ""


def check_policy(name: str) -> str:
    """Validate ``name`` against the registry (with a did-you-mean hint)."""
    if name not in KNOWN_POLICIES:
        raise UnknownPolicyError(
            f"unknown refinement policy {name!r}; known policies: "
            f"{', '.join(KNOWN_POLICIES)}{_suggest(str(name))}"
        )
    return name


class AmrFlag(enum.IntEnum):
    """Per-block refinement request."""

    DEREFINE = -1
    SAME = 0
    REFINE = 1


class Tagger(Protocol):
    """A refinement criterion: maps a block (at a cycle) to a flag."""

    def tag(self, block: MeshBlock, cycle: int) -> AmrFlag: ...


def _component_view(data: np.ndarray, component: Optional[int]) -> np.ndarray:
    """Restrict a 4-axis (comp, x3, x2, x1) field to one component.

    The leading axis is kept (length 1) so the indicator arithmetic is
    element-identical to scanning the raw 3-axis component view — the
    bitwise contract that lets the driver's legacy ``FirstDerivative``
    tagger collapse into :class:`FirstDerivativeCriterion`.
    """
    if component is None:
        return data
    return data[component : component + 1]


@dataclass
class FirstDerivativeCriterion:
    """Refine where the normalized first derivative of ``field`` is steep.

    The indicator is ``max |q[i+1] - q[i-1]| / (2 * (|q| + offset))`` over the
    interior and all active dimensions and components (or the single
    ``component`` when set).  ``refine_tol`` and ``derefine_tol`` bracket a
    hysteresis band, as in Parthenon's first-derivative refinement package.
    """

    field_name: str
    refine_tol: float = 0.3
    derefine_tol: float = 0.03
    offset: float = 1e-10
    component: Optional[int] = None

    def indicator(self, block: MeshBlock, cycle: int = 0) -> float:
        data = _component_view(block.fields[self.field_name], self.component)
        sl = block.shape.interior_slices()
        interior = data[(slice(None),) + sl]
        worst = 0.0
        for a in range(block.ndim):
            axis = 3 - a  # array axis holding dimension a
            hi = np.roll(data, -1, axis=axis)[(slice(None),) + sl]
            lo = np.roll(data, 1, axis=axis)[(slice(None),) + sl]
            denom = np.abs(interior) + self.offset
            worst = max(worst, float(np.max(np.abs(hi - lo) / (2 * denom))))
        return worst

    def flag_from(self, ind: float) -> AmrFlag:
        if ind > self.refine_tol:
            return AmrFlag.REFINE
        if ind < self.derefine_tol:
            return AmrFlag.DEREFINE
        return AmrFlag.SAME

    def tag(self, block: MeshBlock, cycle: int) -> AmrFlag:
        return self.flag_from(self.indicator(block, cycle))


@dataclass
class SecondDerivativeCriterion:
    """Löhner-style estimator: normalized second derivative of ``field``.

    ``E = |q[i+1] - 2 q[i] + q[i-1]| /
    (|q[i+1] - q[i]| + |q[i] - q[i-1]| + eps * (|q[i+1]| + 2|q[i]| + |q[i-1]|))``

    maximized over the interior, components and active dimensions — the
    curvature-sensitive criterion Parthenon exposes as
    ``refinement/method = derivative_order_2``.  Less trigger-happy than the
    first-derivative check on smooth steep ramps, sharper on kinks.
    """

    field_name: str
    refine_tol: float = 0.5
    derefine_tol: float = 0.2
    filter_eps: float = 0.01
    component: Optional[int] = None

    def indicator(self, block: MeshBlock, cycle: int = 0) -> float:
        data = _component_view(block.fields[self.field_name], self.component)
        sl = block.shape.interior_slices()
        center = data[(slice(None),) + sl]
        # Absolute floor scaled to the block's data range: keeps noise in
        # near-zero background regions from reading as infinite curvature.
        scale = float(np.max(np.abs(data)))
        floor = self.filter_eps * max(scale, 1e-12)
        worst = 0.0
        for a in range(block.ndim):
            axis = 3 - a
            hi = np.roll(data, -1, axis=axis)[(slice(None),) + sl]
            lo = np.roll(data, 1, axis=axis)[(slice(None),) + sl]
            num = np.abs(hi - 2.0 * center + lo)
            den = (
                np.abs(hi - center)
                + np.abs(center - lo)
                + self.filter_eps
                * (np.abs(hi) + 2.0 * np.abs(center) + np.abs(lo))
                + floor
            )
            worst = max(worst, float(np.max(num / den)))
        return worst

    def flag_from(self, ind: float) -> AmrFlag:
        if ind > self.refine_tol:
            return AmrFlag.REFINE
        if ind < self.derefine_tol:
            return AmrFlag.DEREFINE
        return AmrFlag.SAME

    def tag(self, block: MeshBlock, cycle: int) -> AmrFlag:
        return self.flag_from(self.indicator(block, cycle))


@dataclass
class RecoveredGradientCriterion:
    """Zienkiewicz–Zhu-style recovered-gradient error indicator.

    The raw cell-centered gradient ``g = (q[i+1] - q[i-1]) / 2`` is compared
    against a *recovered* gradient ``g*`` — ``g`` smoothed by a separable
    3-point box filter over the block's active dimensions (the
    block-structured analogue of patchwise gradient recovery).  Where the
    solution is well resolved the two agree (recovery reproduces the
    gradient of any locally linear-in-gradient profile exactly); near
    under-resolved features they diverge.  The indicator is::

        E = max |g - g*| / (|g| + |g*| + eps * scale)

    over components (or the single ``component``), interior cells and
    active dimensions, with ``scale`` the block's data range — dimensionless
    and in ``[0, 1)`` like the Löhner estimator.
    """

    field_name: str
    refine_tol: float = 0.35
    derefine_tol: float = 0.08
    filter_eps: float = 0.01
    component: Optional[int] = None

    def indicator(self, block: MeshBlock, cycle: int = 0) -> float:
        data = _component_view(block.fields[self.field_name], self.component)
        sl = (slice(None),) + block.shape.interior_slices()
        scale = float(np.max(np.abs(data)))
        floor = self.filter_eps * max(scale, 1e-12)
        worst = 0.0
        for a in range(block.ndim):
            axis = 3 - a
            grad = (
                np.roll(data, -1, axis=axis) - np.roll(data, 1, axis=axis)
            ) * 0.5
            recovered = grad
            for b in range(block.ndim):
                ax = 3 - b
                recovered = (
                    np.roll(recovered, -1, axis=ax)
                    + recovered
                    + np.roll(recovered, 1, axis=ax)
                ) / 3.0
            num = np.abs(grad - recovered)[sl]
            den = (np.abs(grad) + np.abs(recovered))[sl] + floor
            worst = max(worst, float(np.max(num / den)))
        return worst

    def flag_from(self, ind: float) -> AmrFlag:
        if ind > self.refine_tol:
            return AmrFlag.REFINE
        if ind < self.derefine_tol:
            return AmrFlag.DEREFINE
        return AmrFlag.SAME

    def tag(self, block: MeshBlock, cycle: int) -> AmrFlag:
        return self.flag_from(self.indicator(block, cycle))


@dataclass
class SphericalWavefrontTagger:
    """Synthetic tagger: refine blocks intersecting an expanding shell.

    The shell has center ``center``, initial radius ``r0``, expansion speed
    ``speed`` (radius units per cycle) and half-width ``width``.  The radius
    wraps so refinement activity is sustained over arbitrarily long runs.
    Blocks whose bounding box intersects the shell annulus request the finest
    level; everything else requests derefinement — the 2:1 cascade then
    builds the intermediate levels, which produces level distributions very
    similar to the numeric criterion on an outgoing wave.
    """

    center: Tuple[float, float, float] = (0.5, 0.5, 0.5)
    r0: float = 0.12
    speed: float = 0.03
    width: float = 0.08
    r_max: float = 0.75

    def radius(self, cycle: int) -> float:
        span = max(self.r_max - self.r0, 1e-12)
        return self.r0 + (self.speed * cycle) % span

    def _distance_to_box(self, block: MeshBlock) -> Tuple[float, float]:
        """(min, max) distance from the shell center to the block's box."""
        dmin_sq = 0.0
        dmax_sq = 0.0
        for a in range(block.ndim):
            lo, hi = block.bounds[a]
            c = self.center[a]
            dmin = max(lo - c, c - hi, 0.0)
            dmax = max(abs(lo - c), abs(hi - c))
            dmin_sq += dmin * dmin
            dmax_sq += dmax * dmax
        return math.sqrt(dmin_sq), math.sqrt(dmax_sq)

    def indicator(self, block: MeshBlock, cycle: int = 0) -> float:
        """Signed overlap margin with the shell annulus.

        Non-negative exactly when the block's box intersects the annulus
        (the legacy refine condition); more positive means deeper overlap,
        more negative means farther away — a total order the budget policy
        can rank on.
        """
        r = self.radius(cycle)
        dmin, dmax = self._distance_to_box(block)
        return min((r + self.width) - dmin, dmax - (r - self.width))

    def flag_from(self, ind: float) -> AmrFlag:
        if ind >= 0.0:
            return AmrFlag.REFINE
        return AmrFlag.DEREFINE

    def tag(self, block: MeshBlock, cycle: int) -> AmrFlag:
        """Refine blocks whose box intersects the shell annulus."""
        return self.flag_from(self.indicator(block, cycle))


@dataclass
class TagReport:
    """What one ``Refinement::Tag`` pass decided, plus observability counts."""

    refine: List[LogicalLocation]
    derefine: List[LogicalLocation]
    checked: int
    #: Raw REFINE / DEREFINE requests from the criterion, before the
    #: max-level cap, level-0 floor and the derefine-gap rate limit.
    refine_requests: int = 0
    derefine_requests: int = 0
    #: DEREFINE requests suppressed by the rate limit (Section II-G).
    derefine_blocked: int = 0
    #: Largest per-block indicator this pass (0.0 when the criterion
    #: exposes no indicator, e.g. a bare ``tag``-only tagger).
    indicator_max: float = 0.0


def _loc_key(loc: LogicalLocation) -> Tuple[int, int, int, int]:
    """Deterministic, data-independent tie-break order for locations."""
    return (loc.level, loc.lx3, loc.lx2, loc.lx1)


@dataclass
class RefinementPolicy:
    """Collects per-block flags and applies mesh-wide rules.

    Handles the derefinement rate limit: a block may only be derefined once
    it has survived ``derefine_gap`` cycles since its creation or since the
    last derefinement touched its location (Section II-G: "a minimum gap of
    10 cycles between successive derefinements").

    Bookkeeping contract: :meth:`forget_stale` must run after every remesh
    (the driver does this at the end of ``LoadBalancingAndAMR``); the policy
    tracks the mesh's remesh generation and :meth:`collect_flags` raises if
    a remesh slipped past without the cleanup, so ``_birth_cycle`` can never
    silently accumulate dead block uids.
    """

    tagger: Tagger
    derefine_gap: int = DEREFINE_GAP_CYCLES
    check_refinement_interval: int = 1
    _birth_cycle: Dict[int, int] = field(default_factory=dict)
    #: How many times forget_stale has run — one per remesh when the
    #: driver honors the bookkeeping contract.
    remeshes_observed: int = 0
    _seen_generation: Optional[int] = field(default=None, repr=False)

    def note_new_blocks(self, mesh: Mesh, cycle: int) -> None:
        """Record creation cycles for blocks not yet seen."""
        for blk in mesh.block_list:
            self._birth_cycle.setdefault(blk.uid, cycle)

    def _check_bookkeeping(self, mesh: Mesh) -> None:
        gen = getattr(mesh, "remesh_generation", None)
        if (
            gen is not None
            and self._seen_generation is not None
            and gen != self._seen_generation
        ):
            raise RuntimeError(
                "RefinementPolicy.forget_stale was not invoked after the "
                f"last remesh (mesh generation {gen}, policy saw "
                f"{self._seen_generation})"
            )

    def _classify(self, blk: MeshBlock, cycle: int) -> Tuple[AmrFlag, Optional[float]]:
        """(flag, indicator) for one block; indicator None for tag-only taggers."""
        indicator = getattr(self.tagger, "indicator", None)
        flag_from = getattr(self.tagger, "flag_from", None)
        if indicator is not None and flag_from is not None:
            ind = indicator(blk, cycle)
            return flag_from(ind), ind
        return self.tagger.tag(blk, cycle), None

    def collect_flags(self, mesh: Mesh, cycle: int) -> TagReport:
        """Evaluate the tagger on every block.

        Returns a :class:`TagReport` (iterable as the legacy
        ``(refine_locs, derefine_locs, blocks_checked)`` tuple).  The scalar
        per-block loop here is exactly the serial ``CheckAllRefinement``
        pattern Section VIII-A calls out.
        """
        self._check_bookkeeping(mesh)
        self.note_new_blocks(mesh, cycle)
        report = TagReport(refine=[], derefine=[], checked=0)
        worst: Optional[float] = None
        for blk in mesh.block_list:
            flag, ind = self._classify(blk, cycle)
            if ind is not None:
                worst = ind if worst is None else max(worst, ind)
            report.checked += 1
            if flag == AmrFlag.REFINE:
                report.refine_requests += 1
                if blk.lloc.level < mesh.geometry.num_levels - 1:
                    report.refine.append(blk.lloc)
            elif flag == AmrFlag.DEREFINE:
                report.derefine_requests += 1
                if blk.lloc.level == 0:
                    continue
                age = cycle - self._birth_cycle.get(blk.uid, cycle)
                if age >= self.derefine_gap:
                    report.derefine.append(blk.lloc)
                else:
                    report.derefine_blocked += 1
        if worst is not None:
            report.indicator_max = worst
        return report

    def forget_stale(self, mesh: Mesh) -> None:
        """Drop birth records for blocks that no longer exist."""
        live = {blk.uid for blk in mesh.block_list}
        self._birth_cycle = {
            uid: c for uid, c in self._birth_cycle.items() if uid in live
        }
        self.remeshes_observed += 1
        self._seen_generation = getattr(mesh, "remesh_generation", None)

    def consistent_with(self, mesh: Mesh) -> bool:
        """True when no dead block uid survives in ``_birth_cycle``."""
        live = {blk.uid for blk in mesh.block_list}
        return set(self._birth_cycle).issubset(live)


@dataclass
class BlockBudgetPolicy(RefinementPolicy):
    """Budget-targeted regridding: rank indicators, hold a block-count target.

    Instead of a fixed threshold, the policy ranks every block by its
    criterion indicator and steers the mesh toward ``target_blocks`` leaves
    (AMReX-style ``max_grid``-budget regridding):

    * when the population drops below ``(1 - hysteresis) * target``, the
      highest-indicator blocks are refined — each candidate's 2:1 cascade
      is simulated on a cloned :class:`~repro.mesh.tree.BlockTree`, and a
      candidate is accepted only if the *post-cascade* population still
      fits the budget.  The budget is therefore a hard cap, never exceeded
      by cascade fan-out.
    * when the population exceeds ``target``, complete sibling groups with
      the lowest group-maximum indicator are merged (respecting the
      derefine-gap rate limit and the 2:1 rule) until the projected
      population fits again.
    * inside the band nothing changes — the hysteresis keeps the tree from
      thrashing around the target.

    Candidate order is deterministic and data-independent (indicator, then
    ``(level, lx3, lx2, lx1)``), so tagging is reproducible and independent
    of block traversal order.
    """

    target_blocks: int = 0
    hysteresis: float = 0.1

    def collect_flags(self, mesh: Mesh, cycle: int) -> TagReport:
        if self.target_blocks < 1:
            raise ValueError(
                "BlockBudgetPolicy needs target_blocks >= 1, got "
                f"{self.target_blocks}"
            )
        self._check_bookkeeping(mesh)
        self.note_new_blocks(mesh, cycle)
        entries = []
        for blk in mesh.block_list:
            _, ind = self._classify(blk, cycle)
            if ind is None:
                raise TypeError(
                    "BlockBudgetPolicy needs a tagger exposing "
                    "indicator()/flag_from(), got "
                    f"{type(self.tagger).__name__}"
                )
            entries.append((ind, _loc_key(blk.lloc), blk))
        report = TagReport(refine=[], derefine=[], checked=len(entries))
        if entries:
            report.indicator_max = max(e[0] for e in entries)
        n = mesh.num_blocks
        target = self.target_blocks
        refine_below = math.floor(target * (1.0 - self.hysteresis))
        if n < refine_below:
            self._plan_refinement(mesh, entries, report, target)
        elif n > target:
            self._plan_derefinement(mesh, entries, report, cycle, n - target)
        return report

    def _plan_refinement(self, mesh, entries, report, target) -> None:
        max_level = mesh.geometry.num_levels - 1
        sim = mesh.tree.clone()
        for ind, _key, blk in sorted(entries, key=lambda e: (-e[0], e[1])):
            if blk.lloc.level >= max_level:
                continue
            if len(sim) >= target:
                break
            if blk.lloc not in sim:
                # An earlier candidate's cascade already refined this leaf.
                continue
            trial = sim.clone()
            trial.refine(blk.lloc)
            if len(trial) <= target:
                sim = trial
                report.refine.append(blk.lloc)
                report.refine_requests += 1

    def _plan_derefinement(self, mesh, entries, report, cycle, excess) -> None:
        nchild = 2 ** mesh.ndim
        groups: Dict[LogicalLocation, list] = {}
        for ind, key, blk in entries:
            if blk.lloc.level == 0:
                continue
            groups.setdefault(blk.lloc.parent(), []).append((ind, key, blk))
        candidates = []
        for parent, members in groups.items():
            if len(members) != nchild:
                continue
            if not mesh.tree.can_derefine(parent):
                continue
            if any(
                cycle - self._birth_cycle.get(b.uid, cycle) < self.derefine_gap
                for _, _, b in members
            ):
                report.derefine_blocked += 1
                continue
            group_max = max(ind for ind, _, _ in members)
            candidates.append((group_max, _loc_key(parent), members))
        # Merging one group removes (2**ndim - 1) leaves.  Sibling-group
        # merges only ever make neighborhoods coarser, so a group that can
        # derefine now still can after the other selected merges —
        # apply_flags re-checks and the projection can only undershoot.
        removed = 0
        for _gmax, _key, members in sorted(candidates, key=lambda c: (c[0], c[1])):
            if removed >= excess:
                break
            report.derefine.extend(b.lloc for _, _, b in members)
            report.derefine_requests += nchild
            removed += nchild - 1


# ------------------------------------------------------------- registry


def build_policy(
    name: str,
    *,
    numeric: bool,
    refine_tol: float,
    derefine_tol: float,
    derefine_gap: int = DEREFINE_GAP_CYCLES,
    block_budget: int = 0,
    budget_hysteresis: float = 0.1,
    field_name: str = "u",
    component: Optional[int] = None,
    wavefront: Optional[SphericalWavefrontTagger] = None,
) -> RefinementPolicy:
    """Construct a named refinement policy from the registry.

    ``numeric`` selects the criterion family: numeric runs evaluate real
    per-block indicators on ``field_name`` (restricted to ``component``
    when given, matching the legacy driver tagger bitwise); modeled runs
    always rank/tag via the supplied synthetic ``wavefront`` (there is no
    numeric data to differentiate the criteria), so in modeled mode the
    names differ only in the *policy* wrapper — threshold vs. budget.

    ``first_derivative`` keeps the deck's ``refine_tol``/``derefine_tol``
    (the seed behavior); the other criteria use their own calibrated
    hysteresis bands documented on the classes.
    """
    check_policy(name)
    if numeric:
        if name == "second_derivative":
            tagger: Tagger = SecondDerivativeCriterion(
                field_name, component=component
            )
        elif name == "recovered_gradient":
            tagger = RecoveredGradientCriterion(
                field_name, component=component
            )
        else:  # first_derivative, and the budget policy's ranking indicator
            tagger = FirstDerivativeCriterion(
                field_name,
                refine_tol=refine_tol,
                derefine_tol=derefine_tol,
                component=component,
            )
    else:
        if wavefront is None:
            raise ValueError(
                "modeled-mode policies need a SphericalWavefrontTagger"
            )
        tagger = wavefront
    if name == "block_budget":
        if block_budget < 1:
            raise ValueError(
                "refinement policy 'block_budget' needs block_budget >= 1 "
                f"(got {block_budget}); set params.block_budget or the "
                "deck's <refinement> block_budget key"
            )
        return BlockBudgetPolicy(
            tagger,
            derefine_gap=derefine_gap,
            target_blocks=block_budget,
            hysteresis=budget_hysteresis,
        )
    return RefinementPolicy(tagger, derefine_gap=derefine_gap)
