"""Parthenon-style input decks.

Parthenon (and VIBE) configure runs from ini-like input files with
``<block>`` section headers::

    <parthenon/mesh>
    nx1 = 128
    nx2 = 128
    nx3 = 128
    numlevel = 3

    <parthenon/meshblock>
    nx1 = 16

    <burgers>
    num_scalars = 8
    recon = weno5        # or plm

    <platform>
    backend = gpu
    num_gpus = 1
    ranks_per_gpu = 12
    mode = modeled

This module parses that format into :class:`SimulationParams` and
:class:`ExecutionConfig`, so runs are reproducible from a deck exactly like
the original benchmark.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Tuple, Union

from repro.driver.execution import ExecutionConfig
from repro.driver.params import SimulationParams
from repro.mesh.refinement import UnknownPolicyError, check_policy

_SECTION_RE = re.compile(r"^<([^>]+)>$")

Value = Union[int, float, bool, str]

_DEFAULT_PARAMS = SimulationParams()

#: ``<refinement>`` keys for the modeled-mode wavefront generator.
_WAVEFRONT_FIELDS = ("wavefront_speed", "wavefront_width", "wavefront_r0")


class InputError(ValueError):
    """Malformed input deck."""


def check_kernel_backend(value: object) -> None:
    """Accept the removed ``kernel_backend`` option only as ``"numpy"``.

    Old decks, JSON specs and service journals may still carry the key;
    ``"numpy"`` names the one packed engine there is, so it is ignored.
    """
    if value != "numpy":
        raise InputError(
            f"kernel_backend {value!r} is not available: the optional kernel "
            "engines were removed (DESIGN §10); numpy is the only one"
        )


def _coerce(raw: str) -> Value:
    raw = raw.strip()
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_input(text: str) -> Dict[str, Dict[str, Value]]:
    """Parse deck text into ``{section: {key: value}}``."""
    sections: Dict[str, Dict[str, Value]] = {}
    current: Dict[str, Value] = {}
    current_name = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current_name = m.group(1).strip()
            current = sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {line!r}")
        if not current_name:
            raise InputError(
                f"line {lineno}: key/value before any <section> header"
            )
        key, _, raw = line.partition("=")
        current[key.strip()] = _coerce(raw)
    return sections


def _get(sections, section, key, default=None):
    return sections.get(section, {}).get(key, default)


def params_from_input(text: str) -> Tuple[SimulationParams, ExecutionConfig]:
    """Build run configuration from a deck.

    Unknown keys are ignored (like Parthenon, which lets packages read
    their own sections); inconsistent meshes raise :class:`InputError` via
    the underlying validation.
    """
    s = parse_input(text)
    nx1 = _get(s, "parthenon/mesh", "nx1", 128)
    nx2 = _get(s, "parthenon/mesh", "nx2", nx1)
    nx3 = _get(s, "parthenon/mesh", "nx3", nx1)
    ndim = 3 if nx3 > 1 else (2 if nx2 > 1 else 1)
    if ndim == 3 and not (nx1 == nx2 == nx3):
        raise InputError(
            "anisotropic meshes are not supported: "
            f"nx1={nx1} nx2={nx2} nx3={nx3}"
        )
    block = _get(s, "parthenon/meshblock", "nx1", 16)
    params = SimulationParams(
        ndim=ndim,
        mesh_size=nx1,
        block_size=block,
        num_levels=_get(s, "parthenon/mesh", "numlevel", 3),
        num_scalars=_get(s, "burgers", "num_scalars", 8),
        reconstruction=str(_get(s, "burgers", "recon", "weno5")),
        riemann=str(_get(s, "burgers", "riemann", "hll")),
        cfl=float(_get(s, "parthenon/time", "cfl", 0.4)),
        refine_every=_get(s, "parthenon/mesh", "refine_every", 1),
        derefine_gap=_get(s, "parthenon/mesh", "derefine_count", 10),
        load_balance_every=_get(s, "parthenon/mesh", "load_balance_every", 1),
        refine_tol=float(_get(s, "burgers", "refine_tol", 0.15)),
        derefine_tol=float(_get(s, "burgers", "derefine_tol", 0.03)),
        refinement_policy=str(
            _get(s, "refinement", "policy", "first_derivative")
        ),
        block_budget=_get(s, "refinement", "block_budget", 0),
        **{
            name: float(
                _get(s, "refinement", name, getattr(_DEFAULT_PARAMS, name))
            )
            for name in _WAVEFRONT_FIELDS
        },
    )
    try:
        check_policy(params.refinement_policy)
    except UnknownPolicyError as exc:
        raise InputError(str(exc)) from exc
    if params.refinement_policy == "block_budget" and params.block_budget < 1:
        raise InputError(
            "<refinement> policy = block_budget needs block_budget >= 1"
        )
    check_kernel_backend(_get(s, "platform", "kernel_backend", "numpy"))
    backend = str(_get(s, "platform", "backend", "gpu"))
    config = ExecutionConfig(
        backend=backend,
        num_gpus=_get(s, "platform", "num_gpus", 1),
        ranks_per_gpu=_get(s, "platform", "ranks_per_gpu", 1),
        cpu_ranks=_get(s, "platform", "cpu_ranks", 96),
        num_nodes=_get(s, "platform", "num_nodes", 1),
        mode=str(_get(s, "platform", "mode", "modeled")),
        kernel_mode=str(_get(s, "platform", "kernel_mode", "packed")),
        num_shards=_get(s, "platform", "num_shards", 1),
        checkpoint_every=_get(s, "checkpoint", "every", 0),
    )
    return params, config


def load_input(path: Union[str, Path]) -> Tuple[SimulationParams, ExecutionConfig]:
    """Parse a deck from disk."""
    return params_from_input(Path(path).read_text())


def render_input(params: SimulationParams, config: ExecutionConfig) -> str:
    """The inverse: write a deck reproducing this configuration."""
    lines = [
        "<parthenon/mesh>",
        f"nx1 = {params.mesh_size}",
        f"nx2 = {params.mesh_size if params.ndim >= 2 else 1}",
        f"nx3 = {params.mesh_size if params.ndim >= 3 else 1}",
        f"numlevel = {params.num_levels}",
        f"refine_every = {params.refine_every}",
        f"derefine_count = {params.derefine_gap}",
        "",
        "<parthenon/meshblock>",
        f"nx1 = {params.block_size}",
        "",
        "<parthenon/time>",
        f"cfl = {params.cfl}",
        "",
        "<burgers>",
        f"num_scalars = {params.num_scalars}",
        f"recon = {params.reconstruction}",
        f"riemann = {params.riemann}",
        f"refine_tol = {params.refine_tol}",
        f"derefine_tol = {params.derefine_tol}",
        "",
        "<platform>",
        f"backend = {config.backend}",
        f"mode = {config.mode}",
        f"kernel_mode = {config.kernel_mode}",
        f"num_nodes = {config.num_nodes}",
    ]
    # Optional keys are emitted only when non-default, so decks rendered
    # before a key existed — and their cache keys — stay byte-identical.
    if params.load_balance_every != _DEFAULT_PARAMS.load_balance_every:
        lines.insert(
            lines.index(f"derefine_count = {params.derefine_gap}") + 1,
            f"load_balance_every = {params.load_balance_every}",
        )
    if config.num_shards > 1:
        lines.insert(
            lines.index(f"kernel_mode = {config.kernel_mode}") + 1,
            f"num_shards = {config.num_shards}",
        )
    if config.is_gpu:
        lines += [
            f"num_gpus = {config.num_gpus}",
            f"ranks_per_gpu = {config.ranks_per_gpu}",
        ]
    else:
        lines.append(f"cpu_ranks = {config.cpu_ranks}")
    wavefront = [
        f"{name} = {getattr(params, name)}"
        for name in _WAVEFRONT_FIELDS
        if getattr(params, name) != getattr(_DEFAULT_PARAMS, name)
    ]
    if (
        params.refinement_policy != _DEFAULT_PARAMS.refinement_policy
        or params.block_budget
        or wavefront
    ):
        lines += ["", "<refinement>", f"policy = {params.refinement_policy}"]
        if params.block_budget:
            lines.append(f"block_budget = {params.block_budget}")
        lines += wavefront
    if config.checkpoint_every > 0:
        lines += ["", "<checkpoint>", f"every = {config.checkpoint_every}"]
    return "\n".join(lines) + "\n"
