#!/usr/bin/env python3
"""LayerBench entry point: one command, every metric, checked outputs.

    python3 layerbench/run.py --workload sim_steady --seed 23 --seconds 20 --trace 0

runs one workload and prints its metrics by name with their units: the
end-to-end ones, and with ``--trace 1`` the per-layer ones as well. The
last line of stdout is one JSON object carrying the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). Without
``--workload`` all four run in turn. The exit code is non-zero when any
correctness check fails. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SECONDS = 5.0
SMOKE_PROBE_SCALE = 0.1

#: Declared per-layer metrics a substrate cannot measure; reported as 0.
NOT_MEASURED = {
    "sim": ("service_gap_s", "store.recovered_records", "recovery.respawn_to_healthy_s",
            "recovery.catchup_s", "load.generator_lag_s", "rt.cpu_ms_per_update.executing",
            "rt.cpu_ms_per_update.storage", "rt.cpu_ms_per_update.proxy",
            "rt.fleet_cores_busy"),
    "live": ("trace.self_s.crypto", "trace.self_s.prime", "trace.self_s.core",
             "trace.self_s.net", "trace.self_s.kernel", "trace.self_s.store",
             "trace.self_s.load", "trace.coverage_frac", "trace.overhead_frac"),
}


def bootstrap() -> None:
    """Make ``repro`` and ``layerbench`` importable, here and in the fleet's
    child processes, without installing anything."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"layerbench: {SRC}/repro not found; run from a checkout of the repository")
    # The script's own directory would let layerbench/trace.py shadow the
    # standard library's ``trace``; import through the package instead.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(SRC), str(ROOT)]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")


def load_spec() -> Dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, keep: bool,
                 probe_metrics: Dict[str, float]):
    """One workload. ``probe_metrics`` is filled by the first traced workload
    of an invocation and reused by the rest: probes do not depend on the
    workload, and several of the functions they time memoize their inputs."""
    from layerbench import livework, probes, simwork

    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        if name in simwork.WORKLOADS:
            substrate = "sim"
            if traced:
                result = simwork.run_traced(name, seed, seconds, OUT)
            else:
                result = simwork.run_timed(name, seed, seconds)
        else:
            substrate = "live"
            fleet_dir = work_dir / "fleet"
            run = livework.run_fleet(name, seed, seconds, fleet_dir)
            result = livework.analyse(name, run, fleet_dir, traced)
        if traced:
            if not probe_metrics:
                scale = SMOKE_PROBE_SCALE if smoke else 1.0
                probe_metrics.update(probes.run_all(seed, work_dir, scale))
            result.per_layer.update(probe_metrics)
            result.per_layer["failed_frac"] = result.failed_frac
            for missing in NOT_MEASURED[substrate]:
                result.per_layer.setdefault(missing, 0.0)
        return result
    finally:
        if keep:
            print(f"# kept {work_dir}", file=sys.stderr)
        else:
            shutil.rmtree(work_dir, ignore_errors=True)


def document(result, spec: Dict, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict:
    """The full record of one run (what ``--out`` stores and ``--compare`` reads)."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    emitted = result.per_layer if traced else result.end_to_end
    result.check("metric_names_match_spec", set(emitted) == declared,
                 f"missing {sorted(declared - set(emitted))}, "
                 f"undeclared {sorted(set(emitted) - declared)}")
    bad = [n for n in emitted if not METRIC_NAME.match(n)]
    result.check("metric_names_well_formed", not bad, f"bad names {bad}")
    return {
        "workload": result.workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "fingerprint": result.fingerprint,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in result.checks],
        "units": units,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in emitted.items()
        },
    }


def print_report(doc: Dict) -> None:
    flag = "  [smoke: not valid for a claim]" if doc["smoke"] else ""
    print(f"== {doc['workload']}  seed={doc['seed']} seconds={doc['seconds']:g}{flag}")
    for section in ("end_to_end", "per_layer"):
        for name, value in doc[section].items():
            print(f"  {name:44s} {value:16.6f} {doc['units'].get(name, '')}")
    print(f"  attempted={doc['attempted']} failed={doc['failed']}")
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")


def driver_line(doc: Dict) -> Dict:
    return {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}


def append_out(path: str, docs: List[Dict]) -> None:
    target = Path(path)
    existing = json.loads(target.read_text(encoding="utf-8")) if target.is_file() else []
    target.write_text(json.dumps(existing + docs, indent=1), encoding="utf-8")


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced pass; prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g}-second runs, probes at 1/10 iterations")
    parser.add_argument("--keep", action="store_true", help="keep the run's working directory")
    parser.add_argument("--out", metavar="FILE", help="append the full result records here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files against the bounds and exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workloads)
    if args.compare:
        from layerbench.compare import compare

        lines, all_ok = compare(args.compare[0], args.compare[1], spec)
        print("\n".join(lines))
        return 0 if all_ok else 1

    # SIGTERM unwinds like Ctrl-C, so the fleet is shut down and swept.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    seconds = SMOKE_SECONDS if args.smoke else (
        args.seconds if args.seconds is not None else float(spec["run_seconds"]))
    selected = [args.workload] if args.workload else workloads
    docs = []
    probe_metrics: Dict[str, float] = {}
    for name in selected:
        result = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, args.keep,
                              probe_metrics)
        doc = document(result, spec, args.seed, seconds, bool(args.trace), args.smoke)
        print_report(doc)
        docs.append(doc)
    if args.out:
        append_out(args.out, docs)
    if len(docs) == 1:
        print(json.dumps(driver_line(docs[0])))
    else:
        print(json.dumps({
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "workloads": {d["workload"]: driver_line(d) for d in docs},
        }))
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
