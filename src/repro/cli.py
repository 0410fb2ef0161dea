"""Command-line interface: run deployments and print reports.

Usage (also via ``python -m repro``)::

    python -m repro run --mode confidential --f 1 --duration 30
    python -m repro run --mode spire --f 2 --duration 60 --seed 9
    python -m repro run --attack leader-site --duration 120
    python -m repro table1
    python -m repro compare --duration 30
    python -m repro obs --duration 20 --out obs-bundle/

``run`` builds a deployment, drives the paper's workload, and prints the
latency row, the traffic summary, and the confidentiality audit. The
``--csv`` flag dumps the per-update latency record for plotting. ``obs``
runs the same workload and exports the full observability bundle
(Prometheus text, JSONL metrics/spans/trace, Chrome trace_event JSON);
``run``/``scenario`` accept ``--trace-out`` and ``--obs-out`` for the
same artifacts alongside their normal reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import analysis
from repro.core.distribution import plan_spire, table_one
from repro.faultlab.runner import FaultLabConfig
from repro.rt.bootstrap import RtConfig
from repro.system import Mode, SystemConfig, build
from repro.system.config import add_config_flags, config_from_args

ATTACKS = ("none", "leader-site", "non-leader-site", "data-center", "leader-recovery")

# The config fields each subcommand exposes as options. The options are
# generated from the fields (repro.system.config.add_config_flags) and read
# back by name (config_from_args), so a knob is spelled once, on its field.
_OBS_KNOBS = ("mode", "f", "data_centers", "num_clients", "seed", "update_interval")
_RUN_KNOBS = _OBS_KNOBS + (
    "intro_batch_size", "intro_batch_window", "key_renewal_enabled",
    "wan_loss_probability",
)
_COMPARE_KNOBS = ("f", "seed")
_RT_KNOBS = (
    "mode", "f", "data_centers", "num_clients", "updates_per_client",
    "update_interval", "seed", "base_port", "latency", "out_dir",
    "intro_batch_size", "intro_batch_window", "crypto_workers",
    "checkpoint_delta_interval", "store_compaction_interval",
    "store_compaction_budget", "trace_wire", "telemetry_interval", "detectors",
    "load_profile", "load_rate", "load_aliases", "load_duration",
)
_FAULTLAB_KNOBS = ("mode", "f", "intro_batch_size", "key_renewal_enabled", "detectors")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Confidential Spire reproduction (Khan & Babay, DSN 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one deployment and report")
    add_config_flags(run, SystemConfig, _RUN_KNOBS, help={
        "f": "tolerated intrusions",
        "update_interval": "per-client update period",
    })
    run.add_argument("--duration", type=float, default=30.0, help="workload seconds")
    run.add_argument("--attack", choices=ATTACKS, default="none")
    run.add_argument("--csv", action="store_true", help="dump latency CSV instead of a report")
    run.add_argument("--histogram", action="store_true", help="include an ASCII latency histogram")
    run.add_argument("--html", metavar="PATH", help="also write a self-contained HTML report")
    _add_obs_args(run)

    sub.add_parser("table1", help="print Table I (replica distributions)")

    obs = sub.add_parser(
        "obs", help="run a deployment and export the observability bundle; "
                    "'obs top'/'obs tail' attach to a live fleet"
    )
    add_config_flags(obs, SystemConfig, _OBS_KNOBS)
    obs.add_argument("--duration", type=float, default=30.0)
    obs.add_argument("--attack", choices=ATTACKS, default="none")
    obs.add_argument("--out", metavar="DIR",
                     help="directory for metrics.prom / *.jsonl / trace.json "
                          "(required unless using 'obs top' / 'obs tail')")
    obs_sub = obs.add_subparsers(dest="obs_command")

    obs_top = obs_sub.add_parser(
        "top", help="live per-node telemetry table for a running rt fleet"
    )
    obs_top.add_argument("--spec", required=True, metavar="PATH",
                         help="deployment spec.json written by 'rt run'")
    obs_top.add_argument("--interval", type=float, default=1.0,
                         help="refresh period in seconds")
    obs_top.add_argument("--duration", type=float, default=0.0,
                         help="exit after this many seconds (0 = until the "
                              "fleet goes away or Ctrl-C)")
    obs_top.add_argument("--once", action="store_true",
                         help="print one snapshot and exit")

    obs_tail = obs_sub.add_parser(
        "tail", help="stream a live fleet's telemetry rows as JSONL "
                     "(spans, snapshots, health events, milestones)"
    )
    obs_tail.add_argument("--spec", required=True, metavar="PATH",
                          help="deployment spec.json written by 'rt run'")
    obs_tail.add_argument("--duration", type=float, default=0.0,
                          help="exit after this many seconds (0 = until the "
                               "fleet goes away or Ctrl-C)")
    obs_tail.add_argument("--wait", type=float, default=1.0,
                          help="server-side long-poll hold per request")
    obs_tail.add_argument("--kinds", default="",
                          help="comma-separated row kinds to emit "
                               "(trace,span,snapshot,health; default all)")

    scenario = sub.add_parser("scenario", help="run a declarative scenario file")
    scenario.add_argument("path", help="JSON scenario (see repro.system.scenario)")
    scenario.add_argument("--html", metavar="PATH", help="write an HTML report")
    _add_obs_args(scenario)

    compare = sub.add_parser("compare", help="Spire vs Confidential Spire, side by side")
    add_config_flags(compare, SystemConfig, _COMPARE_KNOBS)
    compare.add_argument("--duration", type=float, default=30.0)

    rt = sub.add_parser(
        "rt", help="live runtime: real processes over real sockets"
    )
    rt_sub = rt.add_subparsers(dest="rt_command", required=True)

    rt_run = rt_sub.add_parser(
        "run", help="launch a live deployment and drive a workload"
    )
    add_config_flags(rt_run, RtConfig, _RT_KNOBS)
    rt_run.add_argument("--timeout", type=float, default=300.0,
                        help="workload wall-clock limit in seconds")

    rt_node = rt_sub.add_parser(
        "node", help="run one node process (spawned by the launcher)"
    )
    rt_node.add_argument("--spec", required=True, help="deployment spec JSON path")
    group = rt_node.add_mutually_exclusive_group(required=True)
    group.add_argument("--host", help="replica host to run")
    group.add_argument("--client", help="client id to run (proxy + driver)")

    faultlab = sub.add_parser(
        "faultlab",
        help="sweep seeded fault schedules and check safety/liveness invariants",
    )
    faultlab.add_argument("--substrate", choices=["sim", "live"], default="sim",
                          help="sim: deterministic simulation (all fault kinds); "
                               "live: real processes — crash/partition faults only")
    faultlab.add_argument("--schedule", metavar="PATH",
                          help="replay a JSON schedule file instead of "
                               "generating from seeds")
    faultlab.add_argument("--out", default="rt-faultlab", metavar="DIR",
                          help="live substrate: artifact directory")
    faultlab.add_argument("--base-port", type=int, default=18000,
                          help="live substrate: first TCP port")
    faultlab.add_argument("--seeds", type=int, default=25,
                          help="number of seeds to sweep")
    faultlab.add_argument("--start-seed", type=int, default=1,
                          help="first seed of the sweep")
    faultlab.add_argument("--seed", type=int, default=None,
                          help="replay exactly one seed (overrides --seeds)")
    add_config_flags(faultlab, FaultLabConfig, _FAULTLAB_KNOBS)
    faultlab.add_argument("--plant-leak", action="store_true",
                          help="inject a deliberate plaintext leak "
                               "(validates the checker; run MUST fail)")
    faultlab.add_argument("--no-shrink", dest="shrink", action="store_false",
                          help="report failures without minimizing them")
    faultlab.add_argument("--emit-test", action="store_true",
                          help="print a regression test for the first "
                               "shrunk failure")
    faultlab.add_argument("--json", action="store_true",
                          help="print failing schedules as JSON")
    faultlab.add_argument("--windows", action="store_true",
                          help="print per-fault-window metric deltas")
    faultlab.add_argument("--obs-out", metavar="DIR",
                          help="write an observability bundle per seed "
                               "(DIR/seed-N/)")

    perf = sub.add_parser(
        "perf", help="hot-path benchmarks and the speedup regression guard"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_run = perf_sub.add_parser(
        "run", help="run the benchmark suite and write BENCH_hotpath.json"
    )
    perf_run.add_argument("--quick", action="store_true",
                          help="small sim scenario + fewer repeats (CI smoke)")
    perf_run.add_argument("--live", action="store_true",
                          help="also benchmark the live process fleet")
    perf_run.add_argument("--no-batch", dest="batch", action="store_false",
                          help="skip the batched-intro scenarios")
    perf_run.add_argument("--out", default=None, metavar="PATH",
                          help="results path (default: "
                               "benchmarks/results/BENCH_hotpath.json)")
    perf_check = perf_sub.add_parser(
        "check", help="re-run and compare speedups against a baseline; "
                      "exit 1 on regression"
    )
    perf_check.add_argument("--quick", action="store_true",
                            help="small sim scenario + fewer repeats")
    perf_check.add_argument("--baseline", default=None, metavar="PATH",
                            help="baseline JSON (default: the committed "
                                 "results file)")
    perf_check.add_argument("--no-batch", dest="batch", action="store_false",
                            help="skip the batched-intro scenarios")
    perf_check.add_argument("--tolerance", type=float, default=0.35,
                            help="allowed fractional speedup erosion")

    store = sub.add_parser(
        "store", help="inspect or verify a durable store directory"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect", help="report segments, records, and checkpoints"
    )
    store_inspect.add_argument("path", metavar="DIR",
                               help="store root (contains segments/, checkpoints/)")
    store_inspect.add_argument("--json", action="store_true",
                               help="print the full report as JSON")
    store_verify = store_sub.add_parser(
        "verify", help="check CRCs and decodability; exit 1 on corruption"
    )
    store_verify.add_argument("path", metavar="DIR")

    shard = sub.add_parser(
        "shard",
        help="ShardLab: multi-group sharded sim and the shard fault sweep",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shard_run = shard_sub.add_parser(
        "run", help="run one sharded sim with a cross-shard workload"
    )
    shard_run.add_argument("--shards", type=int, default=2)
    shard_run.add_argument("--seed", type=int, default=19)
    shard_run.add_argument("--clients", type=int, default=8)
    shard_run.add_argument("--duration", type=float, default=8.0)
    shard_run.add_argument("--interval", type=float, default=0.35,
                           help="per-client update interval (seconds)")
    shard_run.add_argument("--cross-every", type=int, default=4,
                           help="every Nth update per client crosses shards "
                                "(0 disables the cross-shard path)")
    _add_obs_args(shard_run)
    shard_sweep = shard_sub.add_parser(
        "sweep", help="shard-scoped fault sweep with per-shard invariants"
    )
    shard_sweep.add_argument("--seeds", type=int, default=20,
                             help="number of seeds (schedules) to run")
    shard_sweep.add_argument("--start-seed", type=int, default=1)
    shard_sweep.add_argument("--shards", type=int, default=2)
    shard_sweep.add_argument("--clients", type=int, default=8)

    load = sub.add_parser(
        "load",
        help="LoadLab: open-loop load generation, saturation sweeps, and "
             "the scenario zoo",
    )
    load_sub = load.add_subparsers(dest="load_command", required=True)
    load_run = load_sub.add_parser(
        "run", help="one open-loop run at a fixed offered rate"
    )
    load_run.add_argument("--profile", default="poisson",
                          choices=("poisson", "bursty", "diurnal", "storm"))
    load_run.add_argument("--rate", type=float, default=20.0,
                          help="mean offered rate, arrivals/second")
    load_run.add_argument("--aliases", type=int, default=1000,
                          help="distinct client aliases multiplexed over "
                               "the proxy pool")
    load_run.add_argument("--duration", type=float, default=8.0)
    load_run.add_argument("--clients", type=int, default=10,
                          help="real proxies in the pool")
    load_run.add_argument("--seed", type=int, default=11)
    load_run.add_argument("--batch", type=int, default=1,
                          help="intro_batch_size (1 = singleton path)")
    load_run.add_argument("--shards", type=int, default=1)
    load_run.add_argument("--max-inflight", type=int, default=4,
                          help="admission bound per proxy; arrivals past "
                               "it are dropped and counted")
    load_run.add_argument("--deadline", type=float, default=4.0,
                          help="latency SLO (seconds) for goodput")
    load_run.add_argument("--drain", type=float, default=4.0,
                          help="extra virtual seconds after arrivals stop")
    _add_obs_args(load_run)
    load_sweep = load_sub.add_parser(
        "sweep", help="saturation sweep: step offered load, detect the knee"
    )
    load_sweep.add_argument("--quick", action="store_true",
                            help="2-point CI ladder, fewer aliases")
    load_sweep.add_argument("--check", action="store_true",
                            help="enforce knee floors (and the committed "
                                 "baseline when comparable); exit 1 on "
                                 "failure")
    load_sweep.add_argument("--baseline", default=None,
                            help="baseline BENCH_load.json for --check")
    load_sweep.add_argument("--out", default=None,
                            help="where to write results (default: the "
                                 "committed results file, full runs only)")
    load_sweep.add_argument("--tolerance", type=float, default=0.25)
    load_sweep.add_argument("--seed", type=int, default=11)
    load_sweep.add_argument("--profile", default="poisson",
                            choices=("poisson", "bursty", "diurnal", "storm"))
    load_sweep.add_argument("--rates", default=None,
                            help="comma-separated offered-rate ladder "
                                 "overriding the default")
    load_scenario = load_sub.add_parser(
        "scenario", help="run a named load+fault scenario (or --all / --list)"
    )
    load_scenario.add_argument("name", nargs="?", default=None,
                               help="scenario name (see --list)")
    load_scenario.add_argument("--list", action="store_true",
                               help="print the scenario catalog and exit")
    load_scenario.add_argument("--all", action="store_true",
                               help="run every scenario in the zoo")
    load_scenario.add_argument("--quick", action="store_true",
                               help="halved rate, fewer aliases")
    load_scenario.add_argument("--seed", type=int, default=11)
    load_scenario.add_argument("--json", action="store_true",
                               help="emit the full result document as JSON")
    return parser


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the raw trace-event stream as JSONL")
    parser.add_argument("--obs-out", metavar="DIR",
                        help="write the observability bundle "
                             "(metrics.prom, *.jsonl, trace.json)")


def _write_obs_outputs(deployment, trace_out=None, obs_out=None) -> None:
    if trace_out:
        from repro.obs import tracer_jsonl_rows, write_jsonl

        count = write_jsonl(trace_out, tracer_jsonl_rows(deployment.tracer.events))
        print(f"trace: {count} events written to {trace_out}")
    if obs_out:
        from repro.obs import write_bundle

        paths = write_bundle(deployment, obs_out)
        print(f"obs bundle: {len(paths)} artifacts written to {obs_out}")


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "faultlab":
        return _cmd_faultlab(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "rt":
        return _cmd_rt(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "shard":
        return _cmd_shard(args)
    if args.command == "load":
        return _cmd_load(args)
    return _cmd_run(args)


def _cmd_load(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    if args.load_command == "run":
        from repro.load import LoadConfig, LoadGenerator
        from repro.shard.builder import build_sharded

        config = SystemConfig(
            seed=args.seed,
            f=1,
            num_clients=args.clients,
            update_interval=1.0,
            checkpoint_interval=50,
            intro_batch_size=args.batch,
            shards=args.shards,
        )
        deployment = build_sharded(config) if args.shards > 1 else build(config)
        deployment.start()
        generator = LoadGenerator(
            deployment,
            LoadConfig(
                profile=args.profile,
                rate=args.rate,
                aliases=args.aliases,
                duration=args.duration,
                max_inflight=args.max_inflight,
                deadline=args.deadline,
            ),
        )
        generator.start()
        deployment.run(
            until=generator.config.start_at + args.duration + args.drain
        )
        stats = generator.stats()
        print(stats.describe())
        print(_json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        _write_obs_outputs(deployment, args.trace_out, args.obs_out)
        deployment.shutdown()
        return 0

    if args.load_command == "sweep":
        from repro.load import (
            DEFAULT_RESULTS_PATH,
            check_load,
            load_results,
            run_sweep,
            write_results,
        )
        from repro.load.sweep import REPO_ROOT

        rates = None
        if args.rates:
            rates = [float(r) for r in args.rates.split(",") if r.strip()]
        result = run_sweep(quick=args.quick, seed=args.seed,
                           profile=args.profile, rates=rates)
        print(_json.dumps(result, indent=2, sort_keys=True))
        # Read before writing: a full run's default --out is the baseline.
        baseline = load_results(Path(args.baseline) if args.baseline else None)
        out = Path(args.out) if args.out else None
        if out is None and not args.quick:
            out = REPO_ROOT / DEFAULT_RESULTS_PATH
        if out is not None:
            write_results(result, out)
            print(f"wrote {out}", file=sys.stderr)
        if args.check:
            failures = check_load(result, baseline, tolerance=args.tolerance)
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            if not failures:
                print("load check passed", file=sys.stderr)
            return 1 if failures else 0
        return 0

    # scenario
    from repro.load import SCENARIOS, run_load_scenario, scenario_names

    if args.list or (args.name is None and not args.all):
        for name in scenario_names():
            scenario = SCENARIOS[name]
            substrate = "sim+live" if scenario.live_ok else "sim"
            print(f"{name:32s} [{substrate}] {scenario.summary}")
        return 0
    names = scenario_names() if args.all else [args.name]
    failures = 0
    for name in names:
        result = run_load_scenario(name, seed=args.seed, quick=args.quick)
        if args.json:
            print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(result.summary())
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def _cmd_shard(args: argparse.Namespace) -> int:
    if args.shard_command == "sweep":
        from repro.faultlab.shardfaults import ShardFaultLabConfig, shard_sweep

        lab = ShardFaultLabConfig(shards=args.shards, num_clients=args.clients)
        seeds = range(args.start_seed, args.start_seed + args.seeds)
        results = shard_sweep(
            seeds, lab, on_result=lambda r: print(r.summary(), flush=True)
        )
        green = sum(1 for r in results if r.ok)
        committed = sum(r.cross_committed for r in results)
        print(f"\nshard sweep: {green}/{len(results)} seeds green, "
              f"{committed} cross-shard commits")
        return 0 if green == len(results) else 1

    from repro.shard.builder import build_sharded
    from repro.system.config import SystemConfig

    config = SystemConfig(
        seed=args.seed,
        num_clients=args.clients,
        update_interval=args.interval,
        shards=args.shards,
    )
    deployment = build_sharded(config)
    deployment.start()
    deployment.start_workload(
        duration=args.duration, cross_shard_every=args.cross_every
    )
    deployment.run(until=args.duration + 4.0)

    print(f"shards={deployment.num_shards} clients={len(deployment.client_ids)} "
          f"duration={args.duration:g}s")
    for shard_id in range(deployment.num_shards):
        local = [
            cid for cid, router in sorted(deployment.routers.items())
            if router.shard_id == shard_id
        ]
        done = sum(len(deployment.routers[cid].proxy.completed) for cid in local)
        print(f"  s{shard_id}: {len(local)} clients, {done} updates completed")
    coordinator = deployment.coordinator
    if coordinator is not None:
        print(f"  cross-shard: {len(coordinator.completed)} committed, "
              f"{len(coordinator.rejected)} rejected, "
              f"{coordinator.outstanding} in flight")
    latencies = sorted(deployment.latencies())
    if latencies:
        print(f"  p50 latency: {latencies[len(latencies) // 2] * 1000:.1f} ms")
    _write_obs_outputs(deployment, trace_out=args.trace_out, obs_out=args.obs_out)
    deployment.shutdown()
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro import perf

    result = perf.run_suite(quick=args.quick,
                            live=getattr(args, "live", False),
                            batch=getattr(args, "batch", True))
    print(_json.dumps(result, indent=2, sort_keys=True))

    if args.perf_command == "check":
        baseline_path = Path(args.baseline) if args.baseline else perf.DEFAULT_RESULTS_PATH
        baseline = perf.load_results(baseline_path)
        failures = perf.compare_results(result, baseline, tolerance=args.tolerance)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print("regression check passed", file=sys.stderr)
        return 1 if failures else 0

    out = Path(args.out) if args.out else perf.DEFAULT_RESULTS_PATH
    perf.write_results(result, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.store.inspect import inspect_store, verify_store

    root = Path(args.path)
    if not (root / "segments").is_dir() and not (root / "checkpoints").is_dir():
        print(f"{root}: not a store directory "
              "(expected segments/ and/or checkpoints/ inside)")
        return 2

    if args.store_command == "verify":
        report, ok = verify_store(root)
        status = "OK" if ok else "CORRUPT"
        print(f"{status}: {root} — {report['total_records']} records in "
              f"{len(report['segments'])} segments, "
              f"{len(report['checkpoints'])} checkpoints, "
              f"{len(report['chain']['deltas'])} deltas")
        if report["torn_segments"]:
            print(f"  torn tail in newest segment (survivable crash artifact)")
        if report["compaction_artifacts"]:
            print(f"  {report['compaction_artifacts']} leftover compaction "
                  "artifact(s) (resolved by open-time repair)")
        for segment in report["segments"]:
            if segment["status"] == "corrupt":
                print(f"  corrupt segment {segment['file']}: {segment['detail']}")
        for ckpt in report["checkpoints"]:
            if not ckpt["verified"]:
                print(f"  corrupt checkpoint {ckpt['file']}")
        for delta in report["chain"]["deltas"]:
            if not delta["verified"]:
                print(f"  corrupt delta {delta['file']}")
            elif (delta["full_ordinal"] == report["chain"]["anchor_ordinal"]
                  and not delta.get("in_chain")):
                print(f"  orphan delta {delta['file']}: does not extend the "
                      f"chain anchored at {report['chain']['anchor_ordinal']}")
        return 0 if ok else 1

    report = inspect_store(root)
    if getattr(args, "json", False):
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"store: {root}")
    print(f"  {len(report['segments'])} segments, "
          f"{report['total_records']} records "
          f"({report['live_records']} live / {report['dead_records']} dead), "
          f"max batch_seq {report['max_seq']}")
    for segment in report["segments"]:
        span = ""
        if segment["min_seq"] is not None:
            span = f" seq {segment['min_seq']}..{segment['max_seq']}"
        detail = f" ({segment['detail']})" if segment["detail"] else ""
        print(f"    {segment['file']}: {segment['records']} records"
              f" ({segment['live_records']} live, "
              f"ratio {segment['live_ratio']:.2f}),"
              f"{span} [{segment['status']}]{detail}")
    print(f"  {len(report['checkpoints'])} checkpoints")
    for ckpt in report["checkpoints"]:
        mark = "ok" if ckpt["verified"] else "CORRUPT"
        extra = (f" batch_seq {ckpt['batch_seq']} signer {ckpt['signer']}"
                 if ckpt["verified"] else "")
        print(f"    {ckpt['file']}: ordinal {ckpt['ordinal']}{extra} [{mark}]")
    chain = report["chain"]
    if chain["deltas"]:
        print(f"  {len(chain['deltas'])} delta checkpoints "
              f"(chain: anchor {chain['anchor_ordinal']} -> "
              f"tip {chain['chain_tip']}, {chain['chain_length']} links, "
              f"{chain['orphan_deltas']} orphan, {chain['stale_deltas']} stale)")
        for delta in chain["deltas"]:
            if delta["verified"]:
                mark = "chain" if delta.get("in_chain") else (
                    "stale"
                    if delta["full_ordinal"] != chain["anchor_ordinal"]
                    else "ORPHAN"
                )
                print(f"    {delta['file']}: ordinal {delta['ordinal']} "
                      f"base {delta['base_ordinal']} "
                      f"full {delta['full_ordinal']} [{mark}]")
            else:
                print(f"    {delta['file']}: [CORRUPT]")
    if report["compaction_artifacts"]:
        print(f"  {report['compaction_artifacts']} leftover compaction artifact(s)")
    return 0


def _cmd_rt(args: argparse.Namespace) -> int:
    if args.rt_command == "node":
        from repro.errors import ConfigurationError
        from repro.rt.node import run_client_node, run_replica_node

        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                config = RtConfig.from_json(fh.read())
        except ConfigurationError as exc:
            print(f"repro rt node: {args.spec}: {exc}", file=sys.stderr)
            return 2
        try:
            if args.host:
                return run_replica_node(config, args.host)
            return run_client_node(config, args.client)
        except ConfigurationError as exc:  # a host or key file not of this fleet
            print(f"repro rt node: {exc}", file=sys.stderr)
            return 2

    # rt run
    from repro.rt.launcher import run_deployment

    config = config_from_args(RtConfig, args, _RT_KNOBS)
    summary = run_deployment(config, timeout=args.timeout)
    total = summary["updates_submitted"]
    done = summary["updates_completed"]
    print(f"rt run: {summary['clients']} clients, {done}/{total} updates "
          f"completed in {summary['workload_seconds']:.1f}s "
          f"({summary['throughput_per_s']:.1f}/s)")
    load = summary.get("load")
    if load:
        print(f"open loop ({load['profile']}): offered {load['offered']}, "
              f"admitted {load['admitted']}, dropped {load['dropped']}, "
              f"timeouts {load['timeouts']}, slo_miss {load['slo_miss']}, "
              f"aliases {load['aliases']}")
    print(f"latency: mean {summary['latency_mean'] * 1000:.1f} ms, "
          f"p50 {summary['latency_p50'] * 1000:.1f} ms, "
          f"p99 {summary['latency_p99'] * 1000:.1f} ms; "
          f"retransmissions {summary['retransmissions']}")
    print(f"merged bundle: {summary['merged_bundle']['metrics.prom']}")
    if load:
        # Open loop: drops/timeouts are legitimate outcomes — the run is
        # good when it finished, offered work, and completed some of it.
        ok = summary["finished"] and total > 0 and done > 0
    else:
        ok = summary["finished"] and done >= total and total > 0
    return 0 if ok else 1


def _cmd_faultlab(args: argparse.Namespace) -> int:
    from repro.faultlab import (
        plant_leak,
        regression_test_source,
        run_schedule,
        schedule_for_seed,
        shrink,
    )

    lab = config_from_args(FaultLabConfig, args, _FAULTLAB_KNOBS)
    if args.substrate == "live":
        return _cmd_faultlab_live(args, lab)
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.start_seed, args.start_seed + args.seeds))

    loaded = _load_schedule(args.schedule) if args.schedule else None
    if loaded is not None:
        seeds = [loaded.seed]

    failures = []
    for seed in seeds:
        schedule = loaded if loaded is not None else schedule_for_seed(seed, lab)
        if args.plant_leak:
            schedule = plant_leak(schedule)
        result = run_schedule(schedule, lab, keep_deployment=bool(args.obs_out))
        print(result.summary())
        if args.windows:
            for window in result.metric_windows:
                print("   ", window.describe())
        if args.detect:
            for match in result.detections:
                print("   ", match.describe())
        if args.obs_out:
            from repro.obs import write_bundle

            import os

            write_bundle(result.deployment, os.path.join(args.obs_out, f"seed-{seed}"))
        if not result.ok:
            failures.append((schedule, result))
            for violation in result.report.violations:
                print("   ", violation.describe())

    print(f"\nfaultlab: {len(seeds) - len(failures)}/{len(seeds)} seeds green")
    if not failures:
        return 0

    schedule, result = failures[0]
    if args.shrink:
        shrunk = shrink(schedule, lab)
        print(shrunk.summary())
        print(shrunk.minimal.describe())
        if args.json:
            print(shrunk.minimal.to_json())
        if args.emit_test:
            print()
            print(regression_test_source(shrunk))
    elif args.json:
        print(schedule.to_json())

    # A planted leak is SUPPOSED to fail: the checker catching it is the
    # pass condition, so invert the exit code.
    if args.plant_leak:
        caught = all(
            "confidentiality" in r.report.failing_invariants for _s, r in failures
        ) and len(failures) == len(seeds)
        return 0 if caught else 1
    return 1


def _load_schedule(path: str):
    from repro.faultlab.schedule import FaultSchedule

    with open(path, "r", encoding="utf-8") as fh:
        return FaultSchedule.from_json(fh.read())


def _cmd_faultlab_live(args: argparse.Namespace, lab) -> int:
    """Replay crash/partition faults against a real process fleet.

    Only ``recover`` (process kill + respawn) and ``isolate`` (partition)
    have live realisations; schedules carrying sim-only kinds are rejected
    with the offending kinds named (see repro.rt.faultlive).
    """
    from repro.faultlab import schedule_for_seed
    from repro.rt.faultlive import run_schedule_live, unsupported_kinds

    if args.schedule:
        schedule = _load_schedule(args.schedule)
    elif args.seed is not None:
        schedule = schedule_for_seed(args.seed, lab)
    else:
        print("faultlab --substrate live needs --seed or --schedule "
              "(live runs are too slow to sweep)")
        return 2
    bad = unsupported_kinds(schedule)
    if bad:
        print(f"schedule seed={schedule.seed} uses sim-only fault kinds "
              f"{bad}; the live substrate supports only crash/partition/"
              "store damage (recover/isolate/torn_write/corrupt_segment). "
              "Re-run with --substrate sim, or provide a --schedule "
              "restricted to those kinds.")
        return 2
    config = RtConfig(
        mode=lab.mode,
        f=lab.f,
        num_clients=lab.num_clients,
        seed=schedule.seed,
        out_dir=args.out,
        base_port=args.base_port,
    )
    print(schedule.describe())
    summary = run_schedule_live(schedule, config)
    status = "PASS" if summary["ok"] else "FAIL"
    print(f"{status} live seed={schedule.seed}: "
          f"{summary['updates_completed']}/{summary['updates_submitted']} "
          f"updates completed through {len(schedule.events)} fault events "
          f"in {summary['workload_seconds']:.1f}s")
    detections = summary.get("detections") or []
    if detections:
        hit = sum(1 for d in detections if d["detected"])
        print(f"detection: {hit}/{len(detections)} faults surfaced as "
              "health events")
        for row in detections:
            if row["detected"]:
                print(f"    {row['fault']}@{row['target']} -> "
                      f"{row['event']} on {row['host']} "
                      f"after {row['latency']:.2f}s")
            else:
                print(f"    {row['fault']}@{row['target']} -> MISSED")
    print(f"merged bundle: {summary['merged_bundle']['metrics.prom']}")
    return 0 if summary["ok"] else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.system.scenario import load_scenario, run_scenario

    result = run_scenario(load_scenario(args.path))
    print(result.summary())
    if args.html:
        from repro.report import write_report

        write_report(result.deployment, args.html, title=f"Scenario: {result.name}")
        print(f"HTML report written to {args.html}")
    _write_obs_outputs(result.deployment, args.trace_out, args.obs_out)
    return 0 if result.passed else 1


def _cmd_table1() -> int:
    print("Table I — system configurations (on-prem + data-center counts):")
    header = f"{'':8s}" + "".join(f"{f'{d} data centers':>18s}" for d in (1, 2, 3))
    print(header)
    for f, row in zip((1, 2, 3), table_one()):
        print(f"f = {f}   " + "".join(f"{cell:>18s}" for cell in row))
    print()
    print("Spire 1.2 baselines: "
          f"f=1 {plan_spire(1, 2).label()}, f=2 {plan_spire(2, 2).label()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(SystemConfig, args, _RUN_KNOBS)
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=args.duration)
    _install_attack(deployment, args.attack, args.duration)
    deployment.run(until=args.duration + 5.0)

    if args.csv:
        sys.stdout.write(analysis.latency_csv(deployment.recorder))
        return 0

    print(f"deployment: {args.mode} {deployment.plan.label()} "
          f"(quorum {deployment.plan.quorum}, seed {args.seed})")
    print(deployment.recorder.stats().row(f"{args.mode} f={args.f}"))
    traffic = analysis.traffic_summary(deployment.network)
    print(f"traffic: {traffic.messages_sent} msgs sent, "
          f"{traffic.delivery_rate * 100:.2f}% delivered, "
          f"{traffic.bytes_sent / 1e6:.1f} MB")
    views = sorted({r.engine.view for r in deployment.replicas.values()})
    print(f"views: {views}; outstanding updates: "
          f"{sum(p.outstanding for p in deployment.proxies.values())}")
    print(analysis.exposure_report(deployment.auditor, deployment.data_center_hosts))
    if deployment.spans is not None:
        print(analysis.span_phase_table(deployment.spans))
    if args.histogram:
        print()
        print(analysis.latency_histogram(deployment.recorder))
    if args.html:
        from repro.report import write_report

        write_report(deployment, args.html)
        print(f"HTML report written to {args.html}")
    _write_obs_outputs(deployment, args.trace_out, args.obs_out)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    obs_command = getattr(args, "obs_command", None)
    if obs_command == "top":
        return _cmd_obs_top(args)
    if obs_command == "tail":
        return _cmd_obs_tail(args)
    if not args.out:
        print("repro obs: --out is required (or use 'obs top' / 'obs tail' "
              "to attach to a live fleet)", file=sys.stderr)
        return 2

    from repro.obs import write_bundle

    config = config_from_args(SystemConfig, args, _OBS_KNOBS)
    deployment = build(config)
    deployment.start()
    deployment.start_workload(duration=args.duration)
    _install_attack(deployment, args.attack, args.duration)
    deployment.run(until=args.duration + 5.0)

    paths = write_bundle(deployment, args.out)
    print(f"deployment: {args.mode} {deployment.plan.label()} (seed {args.seed})")
    print(deployment.recorder.stats().row(f"{args.mode} f={args.f}"))
    print(analysis.span_phase_table(deployment.spans))
    for name in sorted(paths):
        print(f"  wrote {paths[name]}")
    return 0


#: How long ``obs top`` / ``obs tail`` wait for first contact with the
#: fleet before concluding it never came up. The live launcher holds the
#: control plane down for ~2s of warmup, so the grace must cover a slow
#: CI boot, not just the happy path.
_STARTUP_GRACE = 30.0


def _fleet_aggregator(spec_path: str):
    from repro.obs.watch import FleetAggregator

    with open(spec_path, "r", encoding="utf-8") as fh:
        config = RtConfig.from_json(fh.read())
    return FleetAggregator.for_config(config)


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Live fleet table: poll every node's /telemetry + /clock and render."""
    import asyncio
    import time as _time

    agg = _fleet_aggregator(args.spec)

    async def run() -> int:
        start = _time.time()
        deadline = start + args.duration if args.duration > 0 else None
        seen_fleet = False
        dark_polls = 0
        while True:
            await agg.poll_once()
            await agg.probe_clocks()
            print(agg.render_top(), flush=True)
            if args.once:
                return 0
            if len(agg.unreachable) == len(agg.nodes):
                # Whole fleet dark: before first contact that just means
                # the nodes are still warming up, so keep retrying within
                # the startup grace; after first contact it means the
                # fleet shut down.
                dark_polls += 1
                if seen_fleet and dark_polls >= 3:
                    print("obs top: fleet unreachable, exiting",
                          file=sys.stderr)
                    return 0
                if not seen_fleet and _time.time() - start > _STARTUP_GRACE:
                    print("obs top: fleet never came up, exiting",
                          file=sys.stderr)
                    return 1
            else:
                seen_fleet = True
                dark_polls = 0
            if deadline is not None and _time.time() >= deadline:
                return 0
            print(flush=True)
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """Stream the fleet's telemetry rows (JSONL on stdout) as they happen."""
    import asyncio
    import json as _json
    import time as _time

    agg = _fleet_aggregator(args.spec)
    kinds = {k.strip() for k in args.kinds.split(",") if k.strip()} or None

    async def run() -> int:
        start = _time.time()
        deadline = start + args.duration if args.duration > 0 else None
        seen_fleet = False
        dark_polls = 0
        while True:
            rows = await agg.poll_once(wait=args.wait)
            for row in rows:
                if kinds is not None and row.get("kind") not in kinds:
                    continue
                print(_json.dumps(row, sort_keys=True), flush=True)
            if len(agg.unreachable) == len(agg.nodes):
                # Dark before first contact = warming up (keep retrying
                # within the grace); dark after = the fleet shut down.
                dark_polls += 1
                if seen_fleet and dark_polls >= 3:
                    break
                if not seen_fleet and _time.time() - start > _STARTUP_GRACE:
                    print("obs tail: fleet never came up", file=sys.stderr)
                    return 1
                await asyncio.sleep(0.5)
            else:
                seen_fleet = True
                dark_polls = 0
            if deadline is not None and _time.time() >= deadline:
                break
        report = agg.stitch_report()
        print(f"obs tail: {len(agg.new_rows)} rows, "
              f"{report['completed']} spans stitched, "
              f"completeness {report['completeness'] * 100:.1f}%, "
              f"{len(agg.health)} health events",
              file=sys.stderr)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _install_attack(deployment, attack: str, duration: float) -> None:
    third = duration / 3.0
    if attack == "none":
        return
    if attack == "leader-recovery":
        deployment.recovery.schedule_recovery(
            deployment.current_leader(), third, min(8.0, third / 2)
        )
        return
    if attack == "leader-site":
        site = deployment.site_of_host(deployment.current_leader())
    elif attack == "non-leader-site":
        leader_site = deployment.site_of_host(deployment.current_leader())
        site = "cc-b" if leader_site != "cc-b" else "cc-a"
    else:  # data-center
        site = deployment.data_center_hosts[-1].rsplit("-r", 1)[0]
    deployment.kernel.call_at(third, deployment.attacks.isolate_site, site)
    deployment.kernel.call_at(2 * third, deployment.attacks.reconnect_site, site)


def _cmd_compare(args: argparse.Namespace) -> int:
    results = {}
    for mode in (Mode.SPIRE, Mode.CONFIDENTIAL):
        config = config_from_args(SystemConfig, args, _COMPARE_KNOBS, mode=mode)
        deployment = build(config)
        deployment.start()
        deployment.start_workload(duration=args.duration)
        deployment.run(until=args.duration + 5.0)
        results[mode] = deployment
        print(deployment.recorder.stats().row(f"{mode.value} f={args.f} "
                                              f"({deployment.plan.label()})"))
    spire, conf = results[Mode.SPIRE], results[Mode.CONFIDENTIAL]
    overhead = (conf.recorder.stats().average - spire.recorder.stats().average) * 1000
    print(f"confidentiality overhead: {overhead:+.2f} ms")
    for name, deployment in (("spire", spire), ("confidential", conf)):
        exposed = sorted(
            deployment.auditor.exposed_hosts & set(deployment.data_center_hosts)
        )
        print(f"{name}: exposed data-center hosts: {exposed if exposed else 'none'}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
