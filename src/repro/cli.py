"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows a user of the original system would have:
inspect the benchmark catalog, run one benchmark and read its metric,
characterize a whole suite, or regenerate a paper experiment.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core.metric import smtsm_from_run
from repro.sim.engine import RunSpec
from repro.simos import SystemSpec
from repro.util.tables import format_table
from repro.workloads import all_workloads, get_workload


def _system_names() -> List[str]:
    """Every name ``--system``/``--arch`` accepts: the short aliases
    plus the full architecture registry (hetero clusters included)."""
    from repro.arch import list_architectures

    return ["p7", "p7x2"] + list_architectures()


def _system_help() -> str:
    return " | ".join(_system_names())


def _system(name: str) -> SystemSpec:
    from repro.arch import get_architecture

    if name == "p7x2":
        return SystemSpec(get_architecture("power7"), 2)
    if name == "p7":
        return SystemSpec(get_architecture("power7"), 1)
    try:
        return SystemSpec(get_architecture(name), 1)
    except KeyError:
        raise SystemExit(
            f"unknown system {name!r} (use one of: {', '.join(_system_names())})"
        )


def cmd_list_workloads(args: argparse.Namespace) -> int:
    rows = []
    for spec in sorted(all_workloads().values(), key=lambda s: s.name):
        if args.suite and args.suite.lower() not in spec.suite.lower():
            continue
        rows.append([spec.name, spec.suite, spec.problem_size, spec.description])
    print(format_table(["name", "suite", "size", "description"], rows,
                       title="workload catalog"))
    return 0


def cmd_show_workload(args: argparse.Namespace) -> int:
    spec = get_workload(args.name)
    mix = spec.stream.mix
    print(f"{spec.name} ({spec.suite}, {spec.problem_size})")
    print(f"  {spec.description}")
    print(f"  mix: {mix}")
    print(f"  ilp={spec.stream.ilp} mlp={spec.stream.mlp} "
          f"branch_mispredict={spec.stream.branch_mispredict_rate}")
    mem = spec.stream.memory
    print(f"  MPKI (ref): L1={mem.l1_mpki} L2={mem.l2_mpki} L3={mem.l3_mpki} "
          f"alpha={mem.locality_alpha} sharing={mem.data_sharing}")
    print(f"  sync: {spec.sync}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.runcache import RunCache, cache_enabled_by_default

    telemetry_path: Optional[Path] = None
    if args.telemetry is not None:
        from repro.obs import configure, default_telemetry_path

        telemetry_path = (
            Path(args.telemetry)
            if isinstance(args.telemetry, str)
            else default_telemetry_path()
        )
        configure(enabled=True, sink_path=telemetry_path)

    system = _system(args.system)
    spec = get_workload(args.name)
    levels = [args.smt] if args.smt else list(system.arch.smt_levels)
    use_cache = args.cache if args.cache is not None else cache_enabled_by_default()
    cache = RunCache() if use_cache else None
    run_specs = [
        RunSpec(system, level, spec.stream, spec.sync, seed=args.seed)
        for level in levels
    ]
    from repro.obs import get_tracer

    results: List[Optional[object]] = [None] * len(run_specs)
    with get_tracer().span(
        "cli.run",
        workload=spec.name,
        system=f"{system.arch.name} x{system.n_chips}",
        runs=len(run_specs),
    ) as span:
        missing = []
        for i, run_spec in enumerate(run_specs):
            if cache is not None:
                results[i] = cache.get(run_spec)
            if results[i] is None:
                missing.append(i)
        span.set(cache_hits=len(run_specs) - len(missing),
                 cache_misses=len(missing))
        if missing:
            from repro.sim.table import simulate_many_columnar

            fresh = simulate_many_columnar([run_specs[i] for i in missing])
            for i, result in zip(missing, fresh):
                results[i] = result
                if cache is not None:
                    cache.put(run_specs[i], result)

    rows = []
    metric_row = None
    for level, result in zip(levels, results):
        metric = smtsm_from_run(result)
        rows.append([f"SMT{level}", result.n_threads, result.wall_time_s,
                     result.performance / 1e9, metric.value])
        if level == system.arch.max_smt:
            metric_row = metric
    print(format_table(
        ["level", "threads", "wall (s)", "Ginstr/s", "SMTsm"], rows,
        title=f"{spec.name} on {system.arch.name} x{system.n_chips}",
    ))
    if metric_row is not None:
        print(f"\nSMTsm@SMT{system.arch.max_smt} factors: "
              f"mix={metric_row.mix_deviation:.4f} "
              f"dispHeld={metric_row.dispatch_held:.4f} "
              f"wall/cpu={metric_row.scalability_ratio:.4f}")
    if telemetry_path is not None:
        from repro.obs import get_tracer

        get_tracer().close()
        print(f"\ntelemetry written to {telemetry_path} "
              f"(summarize with: python -m repro stats {telemetry_path})")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run one fleet simulation and print its aggregate summary.

    Precedence for every knob: CLI flag > ``REPRO_FLEET_*`` env var >
    :class:`repro.fleet.FleetConfig` default.  Exit status is the
    settlement gate: 0 only when every submitted job is accounted for
    (completed + rejected + crash-lost).
    """
    import dataclasses
    import json

    from repro.fleet import FleetConfig, simulate_fleet

    if args.nodes is not None and args.arch_mix is not None:
        raise SystemExit(
            "fleet: --nodes is an alias for --arch-mix; pass one, not both"
        )
    arch_mix = args.nodes if args.nodes is not None else args.arch_mix

    base = FleetConfig.from_env()
    overrides = {
        name: value
        for name, value in (
            ("chips", args.chips), ("jobs", args.jobs),
            ("policy", args.policy), ("severity", args.severity),
            ("seed", args.seed), ("arch_mix", arch_mix),
            ("load", args.load),
            ("arrival", args.arrival), ("mix", args.mix),
            ("workloads", args.workloads),
            ("queue_depth", args.queue_depth),
        )
        if value is not None
    }
    try:
        config = dataclasses.replace(base, **overrides) if overrides else base
        result = simulate_fleet(config)
    except ValueError as exc:
        raise SystemExit(f"fleet: {exc}")

    if args.json:
        print(json.dumps(result.payload(), indent=2, sort_keys=False))
    else:
        counts = ", ".join(
            f"{arch} x{n}" for arch, n in sorted(result.arch_counts.items())
        )
        print(
            f"fleet: {result.n_nodes} chips ({counts}), "
            f"policy={config.policy}, severity={config.severity}"
        )
        print(
            f"jobs: submitted={result.jobs_submitted} "
            f"completed={result.jobs_completed} "
            f"rejected={result.rejected_admission} "
            f"crashed={result.rejected_crashed} "
            f"settled={'yes' if result.settled else 'NO'}"
        )
        print(
            f"throughput: {result.throughput_jobs_s:.3f} jobs/s over "
            f"{result.horizon_s:.1f}s offered "
            f"(drained at {result.makespan_s:.1f}s)"
        )
        print(
            f"latency: mean={result.latency_mean_s:.3f}s "
            f"p50={result.latency_p50_s:.3f}s "
            f"p95={result.latency_p95_s:.3f}s "
            f"p99={result.latency_p99_s:.3f}s"
        )
        levels = ", ".join(
            f"SMT{level}: {n}" for level, n in sorted(result.level_jobs.items())
        )
        print(f"smt: switches={result.smt_switches} jobs per level [{levels}]")
        print(
            f"faults: crashes={result.node_crashes} hangs={result.node_hangs}"
        )
    return 0 if result.settled else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        default_telemetry_dir,
        latest_telemetry_file,
        render_summary,
        summarize_file,
    )

    path: Optional[Path] = Path(args.path) if args.path else None
    if path is None or not path.is_file():
        found = latest_telemetry_file(path) if (path is None or path.is_dir()) \
            else None
        if found is None:
            # Having recorded no telemetry yet is a normal state, not an
            # error: report it clearly and exit 0 (no traceback, no red CI).
            where = path if path is not None else default_telemetry_dir()
            print(f"no telemetry found under {where} "
                  f"(record some with --telemetry or REPRO_TELEMETRY=1)")
            return 0
        path = found
    try:
        summary = summarize_file(path)
    except OSError as exc:
        print(f"cannot read telemetry file {path}: {exc.strerror or exc}")
        return 0
    print(f"telemetry: {path}\n")
    print(render_summary(summary, top=args.top))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction service until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal

    from repro.serve import PredictionServer, ServeConfig

    from repro.obs import configure, get_tracer

    session: Dict[str, object] = {"seed": args.seed}
    if args.no_cache:
        session["use_cache"] = False
    chaos = None
    if args.chaos:
        from repro.faults.chaos import ChaosConfig

        chaos = ChaosConfig.parse(args.chaos)
        if args.workers <= 1:
            print("warning: --chaos requires --workers > 1; ignoring",
                  flush=True)
            chaos = None
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_linger_ms=args.max_linger_ms,
        queue_size=args.queue_size,
        workers=args.workers,
        max_inflight_per_worker=args.max_inflight_per_worker,
        hot_cache_size=args.hot_cache_size,
        hang_timeout_s=args.hang_timeout_s,
        chaos=chaos,
        session=session,
    )
    # In-process telemetry so the settlement line below is always
    # available (a JSONL sink still attaches via REPRO_TELEMETRY).
    configure(enabled=True)

    async def _serve() -> None:
        server = PredictionServer(config)
        host, port = await server.start()
        mode = (f"{config.workers} worker processes"
                if config.workers > 1 else "in-process")
        if config.chaos is not None and config.chaos.any_chaos:
            mode += ", chaos armed"
        print(f"serving on {host}:{port} ({mode})", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("draining...", flush=True)
        await server.stop()
        counters = get_tracer().counters()
        admitted = int(counters.get("serve.admitted", 0))
        settled = int(counters.get("serve.settled", 0))
        print(f"stopped admitted={admitted} settled={settled}", flush=True)

    asyncio.run(_serve())
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import noise_ablation

    results = []
    for arch in args.arch:
        result = noise_ablation.run(
            seed=args.seed,
            arch=arch,
            severities=(
                tuple(args.severities)
                if args.severities is not None
                else noise_ablation.NOISE_SEVERITIES
            ),
            samples=args.samples or noise_ablation.SAMPLES_PER_TRIAL,
            trials=args.trials or noise_ablation.TRIALS,
        )
        results.append(result)
        print(result.render())
        print()
    if args.json is not None:
        import json

        payload = {r.arch: r.payload() for r in results}
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the conformance checker (see docs/testing.md)."""
    from repro.check import CheckOptions, run_check
    from repro.check.goldens import update_goldens
    from repro.check.report import PILLARS

    if args.update_goldens:
        for path in update_goldens(args.figures, seed=args.seed):
            print(f"wrote {path}")
        return 0

    selected = [p for p in PILLARS if getattr(args, p)]
    if args.all or not selected:
        selected = list(PILLARS)
    options = CheckOptions(
        arch=args.arch,
        seed=args.seed,
        figures=args.figures,
        fuzz_cases=args.fuzz_cases,
        fuzz_seed=args.fuzz_seed,
    )
    report = run_check(selected, options)
    if args.json is True:
        import json

        print(json.dumps(report.payload(), indent=2))
    else:
        if args.json is not None:
            import json

            Path(args.json).write_text(
                json.dumps(report.payload(), indent=2) + "\n"
            )
        print(report.render())
    return report.exit_code


def _experiment_registry() -> Dict[str, Callable[[], str]]:
    from repro import experiments as ex

    def scatter(module, **kwargs):
        return lambda: module.run(**kwargs).render()

    return {
        "fig01": lambda: ex.fig01_motivation.run().render(),
        "fig02": lambda: ex.fig02_naive_metrics.run().render(),
        "fig06": scatter(ex.fig06_smt4v1_at4),
        "fig07": lambda: ex.fig07_instruction_mix.run().render(),
        "fig08": scatter(ex.fig08_smt4v2_at4),
        "fig09": scatter(ex.fig09_smt2v1_at2),
        "fig10": scatter(ex.fig10_nehalem),
        "fig11": scatter(ex.fig11_at_smt1_p7),
        "fig12": scatter(ex.fig12_at_smt1_nehalem),
        "fig13": scatter(ex.fig13_two_chip_41),
        "fig14": scatter(ex.fig14_two_chip_42),
        "fig15": scatter(ex.fig15_two_chip_21),
        "fig16": lambda: ex.fig16_gini.run().render(),
        "fig17": lambda: ex.fig17_ppi.run().render(),
        "table1": lambda: ex.table1.run(),
        "optimizer": lambda: ex.online_optimizer.run().render(),
        "coschedule": lambda: ex.coschedule_symbiosis.run().render(),
        "priorities": lambda: ex.priority_shielding.run().render(),
        "transfer": lambda: ex.threshold_transfer.run().render(),
        "offline-vs-online": lambda: ex.offline_vs_online.run().render(),
        "batch": lambda: ex.batch_scheduler.run().render(),
        "scaling": lambda: ex.scaling_cores.run().render(),
        "mathis-power5": lambda: ex.related_mathis_power5.run().render(),
        "robustness": lambda: ex.noise_ablation.run().render(),
        "armsmt-transfer": lambda: ex.armsmt_transfer.run().render(),
        "hetero": lambda: ex.hetero_biglittle.run().render(),
    }


def cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.name == "list" or args.name not in registry:
        print("available experiments:", ", ".join(sorted(registry)))
        return 0 if args.name == "list" else 1
    print(registry[args.name]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMT-selection metric reproduction (IPDPS 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-workloads", help="list the Table I catalog")
    p.add_argument("--suite", help="filter by suite substring")
    p.set_defaults(func=cmd_list_workloads)

    p = sub.add_parser("show-workload", help="show one workload's model")
    p.add_argument("name")
    p.set_defaults(func=cmd_show_workload)

    p = sub.add_parser("run", help="simulate one workload and read SMTsm")
    p.add_argument("name")
    p.add_argument("--system", default="p7", help=_system_help())
    p.add_argument("--smt", type=int, default=None, help="single SMT level")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="reuse/store converged runs under results/.runcache/ "
        "(default: on unless REPRO_RUNCACHE=0)",
    )
    p.add_argument(
        "--telemetry", nargs="?", const=True, default=None, metavar="PATH",
        help="record telemetry for this invocation to a JSONL file "
        "(default: a fresh file under results/.telemetry/)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "fleet",
        help="simulate a datacenter of SMT chips under a placement policy",
    )
    p.add_argument("--chips", type=int, default=None,
                   help="fleet size, one node per chip (default 24)")
    p.add_argument("--jobs", type=int, default=None,
                   help="synthetic trace length (default 2000)")
    p.add_argument("--policy", default=None,
                   help="placement policy: smtsm, least_loaded, "
                        "round_robin, random")
    p.add_argument("--severity", type=float, default=None,
                   help="fault severity in [0,1]: counter noise + node "
                        "crash/hang rates (default 0.0)")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed for trace, faults, and policy draws")
    p.add_argument("--arch-mix", default=None,
                   help="fleet composition, e.g. 'power7' or "
                        "'power7:3,nehalem:1'; hetero chip names expand "
                        "to their clusters")
    p.add_argument("--nodes", default=None, metavar="MIX",
                   help="alias for --arch-mix, e.g. 'power7:2,armsmt:2'")
    p.add_argument("--load", type=float, default=None,
                   help="offered load vs max-level capacity (default 1.05)")
    p.add_argument("--arrival", default=None,
                   help="arrival process: poisson or uniform")
    p.add_argument("--mix", default=None,
                   help="workload-mix distribution: uniform or zipf")
    p.add_argument("--workloads", default=None,
                   help="comma-separated catalog names (default: the "
                        "POWER7 set)")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="per-node queue bound; a full node sheds "
                        "(default 8)")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON payload instead of the summary")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser("stats", help="summarize a telemetry JSONL file")
    p.add_argument(
        "path", nargs="?", default=None,
        help="telemetry file or directory "
        "(default: the latest file under results/.telemetry/)",
    )
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slowest runs to list")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="run the batched SMTsm prediction service (NDJSON over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: an ephemeral port, printed on start)")
    p.add_argument("--max-batch", type=int, default=16,
                   help="micro-batch size ceiling")
    p.add_argument("--max-linger-ms", type=float, default=2.0,
                   help="how long a batch waits to coalesce more requests")
    p.add_argument("--queue-size", type=int, default=256,
                   help="admission queue bound (full queue => overloaded)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes running handlers "
                        "(1 = in-process, >1 = sharded pool)")
    p.add_argument("--max-inflight-per-worker", type=int, default=64,
                   help="shed requests once the routed worker is this deep")
    p.add_argument("--hot-cache-size", type=int, default=1024,
                   help="dispatcher hot-key LRU entries, pool mode "
                        "(0 disables)")
    p.add_argument("--seed", type=int, default=11,
                   help="simulation seed applied to every session")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the persistent run cache for this server")
    p.add_argument("--hang-timeout-s", type=float, default=30.0,
                   help="watchdog: declare a worker hung after this much "
                        "silence with jobs in flight (pool mode)")
    p.add_argument("--chaos", default="",
                   help="inject worker faults (pool mode): a preset "
                        "('worker_hang'), 'severity=0.4', or "
                        "'hang=0.02,crash=0.04,slow=0.2,corrupt=0.1,seed=7'")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "robustness",
        help="sweep SMT decision accuracy vs injected counter noise",
    )
    p.add_argument(
        "--arch", nargs="+", default=["p7"], choices=_system_names(),
        help="architectures to sweep (default: p7)",
    )
    p.add_argument("--seed", type=int, default=11)
    p.add_argument(
        "--severities", nargs="+", type=float, default=None, metavar="S",
        help="fault severities in [0, 1] (default: the documented sweep)",
    )
    p.add_argument("--samples", type=int, default=None, metavar="N",
                   help="sampling intervals per workload trial")
    p.add_argument("--trials", type=int, default=None, metavar="N",
                   help="independent trials per workload")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the full sweep as JSON")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser(
        "check",
        help="verify simulator physics, strategy equivalence, golden "
        "snapshots and serve-protocol robustness",
    )
    p.add_argument("--all", action="store_true",
                   help="run every pillar (the default when none is selected)")
    p.add_argument("--invariants", action="store_true",
                   help="simulator physics invariants over a catalog sweep")
    p.add_argument("--differential", action="store_true",
                   help="serial vs columnar/cache/predict_many")
    p.add_argument("--goldens", action="store_true",
                   help="compare figure summaries to tests/goldens/")
    p.add_argument("--fuzz", action="store_true",
                   help="fuzz the prediction service's NDJSON protocol")
    p.add_argument("--arch", default="p7", help=_system_help())
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--figures", nargs="+", default=None, metavar="FIG",
                   help="golden subset, e.g. fig06 fig16 (default: all)")
    p.add_argument("--fuzz-cases", type=int, default=500, metavar="N",
                   help="malformed/valid frames to fire at the server")
    p.add_argument("--fuzz-seed", type=int, default=1207)
    p.add_argument(
        "--update-goldens", action="store_true",
        help="recompute and rewrite the golden snapshots, then exit",
    )
    p.add_argument(
        "--json", nargs="?", const=True, default=None, metavar="PATH",
        help="emit the machine-readable report (to stdout, or to PATH)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("experiment", help="regenerate a paper experiment")
    p.add_argument("name", help="fig01..fig17, table1, optimizer, "
                                "coschedule, priorities, transfer, scaling, "
                                "or 'list'")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
