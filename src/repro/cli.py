"""Command-line interface: run decks, characterize configs, sweep axes.

Usage::

    python -m repro run input.vibe [--cycles N]
    python -m repro run input.vibe --checkpoint-every 2 --checkpoint-dir ck
    python -m repro run input.vibe --restart-from ck   # bitwise resume
    python -m repro characterize --mesh 128 --block 16 --levels 3 \
        --backend gpu --gpus 1 --ranks 12 [--cycles N]
    python -m repro sweep {block,mesh,levels,gpu-ranks,cpu-ranks} [options]
    python -m repro campaign --dir out --mesh 64,96 --block 8,16 \
        --workers 4            # parallel + resumable; rerun to resume
    python -m repro deck --mesh 128 --block 16 ...   # emit an input deck
    python -m repro trace input.vibe --format canonical   # golden-file JSON
    python -m repro trace input.vibe --format chrome -o t.json  # Perfetto
    python -m repro trace --diff a.json b.json --tolerance 0.05
    python -m repro serve --dir svc --port 8321   # campaign-as-a-service

Everything routes through :mod:`repro.api` (``RunSpec`` + ``Simulation``
+ the validating builders), so a typo like ``--kernel-mode paked`` fails
up front with the valid choices listed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import (
    ConfigError,
    RunSpec,
    Simulation,
    build_execution_config,
    build_simulation_params,
)
from repro.core.characterize import kernel_fraction
from repro.driver.outputs import RestartError
from repro.core.report import (
    render_breakdown,
    render_campaign_summary,
    render_memory,
    render_sweep,
    render_table,
)
from repro.driver.input import render_input
from repro.mesh.refinement import policy_names


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", type=int, default=128, help="cells per dimension")
    p.add_argument("--block", type=int, default=16, help="MeshBlock size")
    p.add_argument("--levels", type=int, default=3, help="#AMR levels")
    p.add_argument("--ndim", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--scalars", type=int, default=8, help="passive scalars")
    p.add_argument(
        "--backend", choices=("gpu", "cpu"), default="gpu"
    )
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument("--ranks", type=int, default=1, help="ranks per GPU / CPU ranks")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument(
        "--mode", choices=("modeled", "numeric"), default="modeled",
        help="cost-only synthetic run, or real PDE math (small configs)",
    )
    p.add_argument(
        "--kernel-mode", choices=("packed", "per_block"), default="packed",
        help="one fused launch per MeshBlockPack, or one per block "
        "(the launch-overhead ablation)",
    )
    p.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="run numeric packed stages across N shared-memory worker "
        "processes (bitwise-identical to serial; inert outside "
        "numeric+packed)",
    )
    _add_policy_args(p)


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--refinement-policy", choices=policy_names(),
        default="first_derivative",
        help="named refinement policy from the repro.mesh.refinement "
        "registry (default: the seed first_derivative criterion)",
    )
    p.add_argument(
        "--block-budget", type=int, default=0, metavar="N",
        help="leaf-count target for --refinement-policy block_budget "
        "(required >= 1 for that policy; ignored otherwise)",
    )


def _build_config(args, **overrides):
    options = dict(
        backend=args.backend,
        num_nodes=args.nodes,
        mode=getattr(args, "mode", "modeled"),
        kernel_mode=getattr(args, "kernel_mode", "packed"),
        num_shards=getattr(args, "shards", 1),
    )
    if args.backend == "gpu":
        options.update(num_gpus=args.gpus, ranks_per_gpu=args.ranks)
    else:
        options.update(cpu_ranks=args.ranks)
    options.update(overrides)
    return build_execution_config(**options)


def _build(args) -> tuple:
    params = build_simulation_params(
        ndim=args.ndim,
        mesh_size=args.mesh,
        block_size=args.block,
        num_levels=args.levels,
        num_scalars=args.scalars,
        refinement_policy=getattr(
            args, "refinement_policy", "first_derivative"
        ),
        block_budget=getattr(args, "block_budget", 0),
    )
    return params, _build_config(args)


def _spec(args) -> RunSpec:
    params, config = _build(args)
    return RunSpec(
        params=params, config=config, ncycles=args.cycles, warmup=args.warmup
    )


def _print_result(result) -> None:
    print(f"configuration : {result.config.describe()}")
    print(
        f"mesh {result.params.mesh_size}^{result.params.ndim}, "
        f"block {result.params.block_size}, "
        f"{result.params.num_levels} levels"
    )
    print(f"cycles        : {result.cycles} (final blocks {result.final_blocks})")
    print(f"FOM           : {result.fom:.4e} zone-cycles/s")
    print(
        f"time          : {result.wall_seconds:.3f}s "
        f"(kernel {result.kernel_seconds:.3f}s / serial {result.serial_seconds:.3f}s, "
        f"kernel fraction {kernel_fraction(result) * 100:.1f}%)"
    )
    print(
        f"communication : {result.cells_communicated:,} ghost cells, "
        f"{result.remote_messages:,} remote messages"
    )
    if result.oom:
        print("!! configuration ran out of device memory")
    print()
    print(render_breakdown(result, "Function breakdown", top=10))
    print()
    print(render_memory(result, "Device memory (most-loaded device)"))


def cmd_run(args) -> int:
    import dataclasses

    spec = RunSpec.from_file(args.input, ncycles=args.cycles, warmup=args.warmup)
    if args.checkpoint_every is not None:
        try:
            spec = spec.replace(
                config=dataclasses.replace(
                    spec.config, checkpoint_every=args.checkpoint_every
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    if args.shards is not None:
        try:
            spec = spec.replace(
                config=dataclasses.replace(
                    spec.config, num_shards=args.shards
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    if args.refinement_policy is not None or args.block_budget is not None:
        changes = {}
        if args.refinement_policy is not None:
            changes["refinement_policy"] = args.refinement_policy
        if args.block_budget is not None:
            changes["block_budget"] = args.block_budget
        merged = dataclasses.asdict(spec.params)
        merged.update(changes)
        # Route through the validating builder so a budget-less
        # block_budget override fails here, not deep in the driver.
        spec = spec.replace(params=build_simulation_params(**merged))
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and spec.config.checkpoint_every > 0:
        checkpoint_dir = "checkpoints"
    sim = Simulation(
        spec,
        checkpoint_dir=checkpoint_dir,
        restart_from=args.restart_from,
    )
    result = sim.run()
    if sim.resumed_from_cycle is not None:
        print(
            f"resumed from checkpoint at cycle {sim.resumed_from_cycle} "
            f"({args.restart_from})",
            file=sys.stderr,
        )
    _print_result(result)
    if sim.checkpointer is not None and sim.checkpointer.written:
        print(
            f"\n{len(sim.checkpointer.written)} checkpoint(s) in "
            f"{sim.checkpointer.directory}/ "
            f"(latest: {sim.checkpointer.written[-1].name})"
        )
    return 0


def cmd_characterize(args) -> int:
    import json

    from repro.observability import to_chrome_trace

    want_trace = bool(getattr(args, "trace", None))
    sim = Simulation(_spec(args), trace=want_trace)
    result = sim.run()
    _print_result(result)
    if want_trace:
        with open(args.trace, "w") as f:
            json.dump(to_chrome_trace(sim.trace()), f)
        print(f"\nchrome trace written to {args.trace} "
              "(open in chrome://tracing or Perfetto)")
    return 0


def cmd_trace(args) -> int:
    """Export a run's span tree, or diff two canonical trace files."""
    import dataclasses
    import json

    from repro.observability import (
        diff_region_totals,
        render_trace_diff,
        to_canonical_dict,
        to_canonical_json,
        to_chrome_trace,
    )
    from repro.observability.exporters import (
        render_trace_summary,
        within_tolerance,
    )

    if args.diff:
        path_a, path_b = args.diff
        with open(path_a) as f:
            doc_a = json.load(f)
        with open(path_b) as f:
            doc_b = json.load(f)
        try:
            deltas = diff_region_totals(doc_a, doc_b)
        except ValueError as exc:
            raise ConfigError(str(exc))
        print(render_trace_diff(deltas, args.tolerance,
                                title=f"Trace diff: {path_a} vs {path_b}"))
        ok = within_tolerance(deltas, args.tolerance)
        worst = max((abs(d.rel) for d in deltas), default=0.0)
        print(f"\nlargest relative delta: {worst * 100:.2f}% "
              f"(tolerance {args.tolerance * 100:.2f}%)")
        return 0 if ok else 1

    if not args.input:
        raise ConfigError("trace needs an input deck (or --diff A B)")
    overrides = {}
    if args.cycles is not None:
        overrides["ncycles"] = args.cycles
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    spec = RunSpec.from_file(args.input, **overrides)
    if args.kernel_mode:
        spec = spec.replace(
            config=dataclasses.replace(spec.config, kernel_mode=args.kernel_mode)
        )
    if args.shards is not None:
        try:
            spec = spec.replace(
                config=dataclasses.replace(spec.config, num_shards=args.shards)
            )
        except ValueError as exc:
            raise ConfigError(str(exc))
    sim = Simulation(spec, trace=True)
    sim.run()
    trace = sim.trace()
    if args.format == "canonical":
        text = to_canonical_json(trace)
    elif args.format == "chrome":
        text = json.dumps(to_chrome_trace(trace), sort_keys=True, indent=2) + "\n"
    else:  # summary
        text = render_trace_summary(to_canonical_dict(trace)) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"{args.format} trace written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_deck(args) -> int:
    params, config = _build(args)
    sys.stdout.write(render_input(params, config))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import QuotaPolicy, SweepServer, TenantQuotas

    try:
        policy = QuotaPolicy(
            rate_per_s=args.rate,
            burst=args.burst,
            max_inflight=args.max_inflight,
            blocked=frozenset(args.block or ()),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    server = SweepServer(
        args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
        timeout_s=args.timeout,
        quotas=TenantQuotas(policy),
        execution=args.execution,
    )

    async def _serve() -> None:
        await server.start()
        if server.queue.recovered:
            print(
                f"recovered {len(server.queue.recovered)} interrupted "
                "job(s) from the journal",
                file=sys.stderr,
            )
        print(f"sweep service listening on {server.url} (data: {server.data_dir})")
        print(f"  submit:  curl -X POST {server.url}/runs -d @spec.json")
        print(f"  status:  curl {server.url}/runs/<id>")
        print(f"  events:  curl -N {server.url}/runs/<id>/events")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down (journal keeps pending jobs)", file=sys.stderr)
    return 0


def cmd_recommend(args) -> int:
    from repro.core.recommendations import render_recommendations

    result = Simulation(_spec(args)).run()
    print(render_recommendations(result))
    return 0


def cmd_sweep(args) -> int:
    from repro.core import sweeps

    params, config = _build(args)
    if args.axis == "block":
        series = sweeps.block_size_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "block size", "FOM vs MeshBlockSize"))
    elif args.axis == "mesh":
        series = sweeps.mesh_size_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "mesh size", "FOM vs mesh size"))
    elif args.axis == "levels":
        series = sweeps.amr_level_sweep(
            params, {config.describe(): config}, ncycles=args.cycles
        )
        print(render_sweep(series, "#AMR levels", "FOM vs AMR depth"))
    elif args.axis == "gpu-ranks":
        points = sweeps.gpu_rank_sweep(
            params, num_gpus=args.gpus, ncycles=args.cycles
        )
        rows = [
            [int(p.x), "OOM" if p.oom else f"{p.fom:.3e}"] for p in points
        ]
        print(render_table(["ranks/GPU", "FOM"], rows, "FOM vs ranks per GPU"))
    else:  # cpu-ranks
        points = sweeps.cpu_rank_sweep(params, ncycles=args.cycles)
        rows = [
            [int(p.x), f"{p.fom:.3e}", f"{p.result.serial_seconds:.3f}"]
            for p in points
        ]
        print(
            render_table(
                ["cores", "FOM", "serial_s"], rows, "CPU strong scaling"
            )
        )
    return 0


def _int_list(raw: str) -> List[int]:
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        )


#: The CI mini-sweep: two mesh sizes x two block sizes at a scale where
#: each point costs enough for worker-pool parallelism to pay off, and
#: the two expensive block-8 points are near-equal so LPT scheduling
#: splits them across workers (~2x on two workers).
MINI_CAMPAIGN = dict(
    mesh=[80, 96], block=[8, 16], levels=2, ndim=3, scalars=8,
    cycles=2, warmup=1,
)

#: The AMR-policy characterization campaign (ROADMAP item 3): one
#: modeled config, swept along the refinement-policy axis — the
#: threshold baseline against block-budget targets bracketing the
#: wavefront's natural block population, so the summary exposes the
#: FOM / block-count / ghost-traffic / remesh-cost tradeoff per policy.
POLICY_CAMPAIGN = dict(
    mesh=64, block=8, levels=2, ndim=3, scalars=8,
    policies=["first_derivative"], budgets=[640, 1024, 1536],
    cycles=6, warmup=1,
)


def cmd_campaign(args) -> int:
    from repro.core.sweeps import grid_specs, policy_specs
    from repro.orchestration import load_campaign, run_campaign

    if args.report_only:
        artifacts = load_campaign(args.dir)
        print(render_campaign_summary(artifacts))
        return 0

    if args.preset == "policies":
        preset = POLICY_CAMPAIGN
        params = build_simulation_params(
            ndim=preset["ndim"],
            mesh_size=preset["mesh"],
            block_size=preset["block"],
            num_levels=preset["levels"],
            num_scalars=preset["scalars"],
        )
        specs = policy_specs(
            params,
            _build_config(args),
            policies=preset["policies"],
            budgets=preset["budgets"],
            ncycles=preset["cycles"],
            warmup=preset["warmup"],
        )
    elif args.preset == "mini":
        preset = MINI_CAMPAIGN
        mesh_sizes, block_sizes = preset["mesh"], preset["block"]
        params = build_simulation_params(
            ndim=preset["ndim"],
            mesh_size=mesh_sizes[0],
            block_size=block_sizes[0],
            num_levels=preset["levels"],
            num_scalars=preset["scalars"],
        )
        config = _build_config(args)
        ncycles, warmup = preset["cycles"], preset["warmup"]
    else:
        mesh_sizes, block_sizes = args.mesh, args.block
        params = build_simulation_params(
            ndim=args.ndim,
            mesh_size=mesh_sizes[0],
            block_size=block_sizes[0],
            num_levels=args.levels,
            num_scalars=args.scalars,
        )
        config = _build_config(args)
        ncycles, warmup = args.cycles, args.warmup

    if args.preset != "policies":
        specs = grid_specs(
            params, config, mesh_sizes, block_sizes,
            ncycles=ncycles, warmup=warmup,
        )

    def progress(outcome) -> None:
        if outcome.from_cache:
            status = "cached"
        elif outcome.ok:
            status = "done"
        else:
            status = "FAILED"
        print(f"  [{status:>6}] {outcome.label}")

    summary = run_campaign(
        specs,
        args.dir,
        workers=args.workers,
        retries=args.retries,
        timeout_s=args.timeout,
        progress=progress,
        checkpoint_every=args.checkpoint_every,
    )
    print()
    print(render_campaign_summary(summary.artifacts))
    print()
    print(f"campaign: {summary.describe()}")
    print(f"artifacts: {summary.campaign_dir}/points/")
    return 1 if summary.failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parthenon-VIBE AMR characterization (IISWC 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Parthenon-style input deck")
    p_run.add_argument("input", help="path to the input deck")
    p_run.add_argument("--cycles", type=int, default=5)
    p_run.add_argument("--warmup", type=int, default=0)
    p_run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="write a crash-consistent checkpoint every N cycles "
        "(overrides the deck's <checkpoint> section; 0 disables)",
    )
    p_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint directory (default: ./checkpoints when enabled)",
    )
    p_run.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="override the deck's num_shards: run the numeric packed "
        "stages across N shared-memory worker processes (bitwise "
        "identical to serial; 1 = in-process)",
    )
    p_run.add_argument(
        "--refinement-policy", choices=policy_names(), default=None,
        help="override the deck's <refinement> policy",
    )
    p_run.add_argument(
        "--block-budget", type=int, default=None, metavar="N",
        help="override the deck's <refinement> block_budget target",
    )
    p_run.add_argument(
        "--restart-from", default=None, metavar="PATH",
        help="resume from a checkpoint: a manifest .json, payload .pkl, "
        "or a checkpoint directory (resolves to the latest valid one); "
        "the resumed run is bitwise identical to an uninterrupted one",
    )
    p_run.set_defaults(fn=cmd_run)

    p_char = sub.add_parser(
        "characterize", help="run one configuration and print its report"
    )
    _add_config_args(p_char)
    p_char.add_argument(
        "--trace", help="write a chrome://tracing timeline JSON here"
    )
    p_char.set_defaults(fn=cmd_characterize)

    p_deck = sub.add_parser("deck", help="emit an input deck for a config")
    _add_config_args(p_deck)
    p_deck.set_defaults(fn=cmd_deck)

    p_trace = sub.add_parser(
        "trace",
        help="run a deck with tracing and export the span tree, or diff "
        "two canonical traces region by region",
    )
    p_trace.add_argument(
        "input", nargs="?",
        help="input deck to run (omit when using --diff)",
    )
    p_trace.add_argument(
        "--format", choices=("canonical", "chrome", "summary"),
        default="canonical",
        help="canonical = schema-versioned golden-file JSON; chrome = "
        "Perfetto/chrome://tracing timeline; summary = human tables",
    )
    p_trace.add_argument(
        "-o", "--output", help="write here instead of stdout"
    )
    p_trace.add_argument("--cycles", type=int, default=None)
    p_trace.add_argument("--warmup", type=int, default=None)
    p_trace.add_argument(
        "--kernel-mode", choices=("packed", "per_block"), default=None,
        help="override the deck's kernel mode",
    )
    p_trace.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="override the deck's num_shards (sharded traces differ from "
        "serial only in meta.num_shards and the meta.shards section)",
    )
    p_trace.add_argument(
        "--diff", nargs=2, metavar=("A", "B"),
        help="compare two canonical trace JSON files; exit 1 if any "
        "region's total differs by more than --tolerance",
    )
    p_trace.add_argument(
        "--tolerance", type=float, default=0.0,
        help="relative per-region tolerance for --diff (default: exact)",
    )
    p_trace.set_defaults(fn=cmd_trace)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    p_sweep.add_argument(
        "axis", choices=("block", "mesh", "levels", "gpu-ranks", "cpu-ranks")
    )
    _add_config_args(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_camp = sub.add_parser(
        "campaign",
        help="run a mesh x block campaign: parallel workers, per-point "
        "failure isolation, resumable via the artifact cache",
    )
    p_camp.add_argument(
        "--mesh", type=_int_list, default=[128],
        help="comma-separated mesh sizes (the campaign's first axis)",
    )
    p_camp.add_argument(
        "--block", type=_int_list, default=[16],
        help="comma-separated MeshBlock sizes (the second axis)",
    )
    p_camp.add_argument("--levels", type=int, default=3, help="#AMR levels")
    p_camp.add_argument("--ndim", type=int, default=3, choices=(1, 2, 3))
    p_camp.add_argument("--scalars", type=int, default=8, help="passive scalars")
    p_camp.add_argument("--backend", choices=("gpu", "cpu"), default="gpu")
    p_camp.add_argument("--gpus", type=int, default=1)
    p_camp.add_argument(
        "--ranks", type=int, default=1, help="ranks per GPU / CPU ranks"
    )
    p_camp.add_argument("--nodes", type=int, default=1)
    p_camp.add_argument("--cycles", type=int, default=3)
    p_camp.add_argument("--warmup", type=int, default=2)
    p_camp.add_argument("--mode", choices=("modeled", "numeric"), default="modeled")
    p_camp.add_argument(
        "--kernel-mode", choices=("packed", "per_block"), default="packed"
    )
    p_camp.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shared-memory shard workers per numeric packed point "
        "(inert for modeled points)",
    )
    p_camp.add_argument(
        "--dir", required=True, help="campaign directory (artifacts + cache)"
    )
    p_camp.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: os.cpu_count())",
    )
    p_camp.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing point before recording an error",
    )
    p_camp.add_argument(
        "--timeout", type=float, default=None,
        help="per-point wall-clock limit in seconds",
    )
    p_camp.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="checkpoint each point every N cycles under "
        "<dir>/checkpoints/<key>/ and resume crashed points from their "
        "last checkpoint on retry (0 disables)",
    )
    p_camp.add_argument(
        "--preset", choices=("mini", "policies"), default=None,
        help="'mini' = the CI 2x2 mesh x block quick campaign; "
        "'policies' = the AMR-policy characterization sweep "
        "(threshold baseline vs. block-budget targets on one config)",
    )
    _add_policy_args(p_camp)
    p_camp.add_argument(
        "--report-only", action="store_true",
        help="render the summary from existing artifacts without running",
    )
    p_camp.set_defaults(fn=cmd_campaign)

    p_rec = sub.add_parser(
        "recommend", help="rank serial bottlenecks with §VIII advice"
    )
    _add_config_args(p_rec)
    p_rec.set_defaults(fn=cmd_recommend)

    p_serve = sub.add_parser(
        "serve",
        help="run the sweep service: an HTTP server with a persistent, "
        "dedup-by-cache-key job queue over a campaign directory",
    )
    p_serve.add_argument(
        "--dir", required=True,
        help="service data directory (queue journal + artifact cache)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = ephemeral; default 8321)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent run executors (default 2)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing run before recording an error",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-run wall-clock limit in seconds",
    )
    p_serve.add_argument(
        "--execution", choices=("process", "thread"), default="process",
        help="run executor: forked processes (crash isolation) or "
        "threads (lighter; for tests and constrained hosts)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=50.0,
        help="sustained submissions/s per tenant (token-bucket refill)",
    )
    p_serve.add_argument(
        "--burst", type=int, default=100,
        help="token-bucket burst capacity per tenant",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="max live (pending+running) jobs per tenant",
    )
    p_serve.add_argument(
        "--block", action="append", metavar="TENANT",
        help="refuse this tenant outright (repeatable)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RestartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
