#!/usr/bin/env python3
"""Validate an observability bundle written by ``repro obs`` / ``--obs-out``.

Checks, per artifact:

* ``metrics.prom``  — parses as Prometheus text exposition: every sample
  line belongs to a ``# TYPE`` family, counters end in ``_total``, values
  are finite numbers, and the pipeline's four layers (net, prime, core,
  crypto) are all represented.
* ``metrics.jsonl`` / ``spans.jsonl`` / ``trace.jsonl`` — every line is a
  JSON object carrying the required keys for its ``kind``.
* ``trace.json``    — Chrome ``trace_event`` JSON: complete ("X") events
  with numeric ts/dur, and every phase slice nested inside its update
  slice's bounds.
* ``telemetry.jsonl`` / ``health.jsonl`` / ``merge_report.json`` — live
  (WatchLab) artifacts, validated only when present so sim bundles stay
  acceptable: telemetry rows are snapshot/health rows, health rows carry
  the structured-event schema, and the merge report accounts for every
  absorbed (torn) line.

Stream mode — ``check_obs_export.py --stream [FILE|-]`` — validates the
JSONL that ``repro obs tail`` prints: every line must be a JSON object
with a ``node`` annotation and a known ``kind`` (snapshot, health,
trace, span) carrying that kind's required keys. Used by the
``obs-live-smoke`` CI job.

Bench mode — ``check_obs_export.py --bench-load BENCH_load.json`` —
validates a LoadLab saturation-sweep artifact: both configuration
curves present, every point schema-complete with balanced accounting,
and a detected knee per curve. Used by the ``load-smoke`` CI job.

Bundles from open-loop runs additionally get their ``load_*`` metric
family checked: if any ``load_`` sample appears, the full accounting
family and phase-labelled latency histogram must be present.

Exit code 0 when the bundle/stream is well-formed; 1 with a per-file
error list otherwise. Used by CI (see .github/workflows/ci.yml) and by
the export tests.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)
TYPE_RE = re.compile(r"^# TYPE (?P<name>\S+) (?P<kind>counter|gauge|summary)$")

REQUIRED_JSONL_KEYS = {
    "counter": {"name", "labels", "value"},
    "gauge": {"name", "labels", "value"},
    "histogram": {"name", "labels", "count", "sum", "p50", "p99", "p99_9"},
    "span": {"alias", "client", "client_seq", "start", "status", "marks", "phases"},
    "trace": {"time", "category", "host", "detail"},
    "snapshot": {"time", "counters", "gauges", "histograms", "window"},
    "health": {"time", "event", "host", "severity", "detail"},
}

HEALTH_SEVERITIES = {"info", "warning", "critical"}

#: Top-level keys ``repro rt merge`` writes into merge_report.json.
REQUIRED_REPORT_KEYS = {
    "nodes", "trace_events", "health_events", "absorbed_total", "absorbed_lines",
}

#: Counter-name prefixes that prove each pipeline layer is instrumented.
REQUIRED_LAYERS = ("net_", "prime_", "intro_", "proxy_", "crypto_")

#: Hot-path cache instruments (PerfLab): created eagerly, so they must
#: appear in every export even when a cache saw no traffic.
REQUIRED_COUNTERS = (
    "net_frame_cache_hit_total",
    "net_frame_cache_miss_total",
    "crypto_verify_cache_hit_total",
    "crypto_verify_cache_miss_total",
)

LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')

#: Shard label values look like ``s0``, ``s1``, ...
SHARD_VALUE_RE = re.compile(r"^s\d+$")

#: LoadLab instruments: a bundle from an open-loop run (any ``load_``
#: sample present) must carry the complete accounting family — partial
#: presence means the generator's metric wiring broke.
LOAD_REQUIRED = (
    "load_offered_total",
    "load_admitted_total",
    "load_dropped_total",
    "load_completed_total",
    "load_slo_miss_total",
    "load_aliases",
)
#: The open-loop latency histogram is labelled by arrival phase.
LOAD_LATENCY_RE = re.compile(r'^load_latency\{[^}]*phase="[^"]+"')

#: CompactLab instruments: created eagerly on every store (volatile or
#: file-backed), so any bundle with store instrumentation at all (any
#: ``store_`` sample) must carry the complete family — partial presence
#: means the compaction/delta metric wiring broke.
STORE_REQUIRED = (
    "store_compaction_runs_total",
    "store_compaction_segments_total",
    "store_compaction_records_dropped_total",
    "store_compaction_bytes_reclaimed_total",
    "store_delta_checkpoints_saved_total",
    "store_delta_bytes_total",
)

#: ShardLab instruments that must carry a ``shard="sN"`` label per sample.
SHARD_LABELED = ("shard_updates_total", "shard_cross_shard_total")

#: Once a bundle is multi-shard (two or more distinct shard labels), the
#: routing tier's per-shard load counter must be present.
SHARD_MULTI_REQUIRED = ("shard_updates_total",)

#: A bundle with cross-shard traffic ran a coordinator, which creates its
#: outcome counters eagerly — both must appear (live fleets have no
#: coordinator: cross-shard ordering is a sim-substrate feature).
SHARD_CROSS_REQUIRED = (
    "shard_cross_committed_total",
    "shard_cross_rejected_total",
)


def check_prometheus(path: Path, errors: list) -> None:
    families: dict = {}
    layer_hits = set()
    sample_names = set()
    shard_ids = set()
    load_latency_phased = False
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line or line.startswith("#"):
            match = TYPE_RE.match(line)
            if match:
                families[match.group("name")] = match.group("kind")
            continue
        match = SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"{path.name}:{line_no}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError:
            errors.append(f"{path.name}:{line_no}: non-numeric value {line!r}")
            continue
        if not math.isfinite(value):
            errors.append(f"{path.name}:{line_no}: non-finite value {line!r}")
        family = name
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        if family not in families:
            errors.append(f"{path.name}:{line_no}: sample {name} has no # TYPE")
        elif families[family] == "counter" and not name.endswith("_total"):
            errors.append(f"{path.name}:{line_no}: counter {name} lacks _total")
        sample_names.add(name)
        for prefix in REQUIRED_LAYERS:
            if name.startswith(prefix):
                layer_hits.add(prefix)
        if name == "load_latency" and LOAD_LATENCY_RE.match(line):
            load_latency_phased = True
        if name in SHARD_LABELED:
            labels = dict(LABEL_RE.findall(match.group("labels") or ""))
            shard = labels.get("shard")
            if shard is None or not SHARD_VALUE_RE.match(shard):
                errors.append(
                    f'{path.name}:{line_no}: {name} sample lacks a shard="sN" label'
                )
            else:
                shard_ids.add(shard)
    for prefix in REQUIRED_LAYERS:
        if prefix not in layer_hits:
            errors.append(f"{path.name}: no metrics from layer {prefix!r}")
    for counter in REQUIRED_COUNTERS:
        if counter not in sample_names:
            errors.append(f"{path.name}: required counter {counter} absent")
    if len(shard_ids) >= 2:
        # Multi-shard bundle: the routing tier creates this eagerly, so
        # its absence means broken shard wiring.
        for counter in SHARD_MULTI_REQUIRED:
            if counter not in sample_names:
                errors.append(
                    f"{path.name}: multi-shard bundle lacks required counter {counter}"
                )
    if "shard_cross_shard_total" in sample_names:
        for counter in SHARD_CROSS_REQUIRED:
            if counter not in sample_names:
                errors.append(
                    f"{path.name}: cross-shard bundle lacks required counter {counter}"
                )
    if any(name.startswith("store_") for name in sample_names):
        # Store-instrumented bundle: the CompactLab family is created
        # eagerly alongside the append/checkpoint counters.
        for counter in STORE_REQUIRED:
            if counter not in sample_names:
                errors.append(
                    f"{path.name}: store-instrumented bundle lacks required "
                    f"counter {counter}"
                )
    if any(name.startswith("load_") for name in sample_names):
        # Open-loop bundle: the whole accounting family must be there.
        for counter in LOAD_REQUIRED:
            if counter not in sample_names:
                errors.append(
                    f"{path.name}: open-loop bundle lacks required metric {counter}"
                )
        if not load_latency_phased:
            errors.append(
                f"{path.name}: open-loop bundle has load_* metrics but no "
                'phase-labelled load_latency samples'
            )


def check_row(row, where: str, errors: list, kinds: set) -> bool:
    """Validate one JSONL row against its kind's schema; True when clean."""
    if not isinstance(row, dict):
        errors.append(f"{where}: row is not an object")
        return False
    kind = row.get("kind")
    if kind not in kinds:
        errors.append(f"{where}: unexpected kind {kind!r}")
        return False
    missing = REQUIRED_JSONL_KEYS[kind] - row.keys()
    if missing:
        errors.append(f"{where}: {kind} row missing {sorted(missing)}")
        return False
    if kind == "health" and row["severity"] not in HEALTH_SEVERITIES:
        errors.append(f"{where}: health severity {row['severity']!r} unknown")
        return False
    if kind in ("counter", "gauge", "histogram") and str(
        row.get("name", "")
    ) in ("shard.updates", "shard.cross_shard"):
        labels = row.get("labels") or {}
        shard = labels.get("shard") if isinstance(labels, dict) else None
        if not isinstance(shard, str) or not SHARD_VALUE_RE.match(shard):
            errors.append(f"{where}: {row['name']} row lacks a shard=sN label")
            return False
    if kind == "snapshot":
        for series in row.get("counters", {}):
            if series in ("shard.updates", "shard.cross_shard"):
                errors.append(
                    f"{where}: snapshot series {series!r} lacks its shard label"
                )
                return False
    return True


def check_jsonl(path: Path, errors: list, kinds: set, allow_empty: bool = False) -> None:
    seen = 0
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path.name}:{line_no}: invalid JSON ({exc})")
            continue
        if check_row(row, f"{path.name}:{line_no}", errors, kinds):
            seen += 1
    if seen == 0 and not allow_empty:
        errors.append(f"{path.name}: no rows")


def check_chrome_trace(path: Path, errors: list) -> None:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        errors.append(f"{path.name}: invalid JSON ({exc})")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append(f"{path.name}: traceEvents missing or empty")
        return
    updates = {}  # (tid, overlapping range) lookup is by containment below
    slices = []
    for index, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("X", "M"):
            errors.append(f"{path.name}: event {index} has unexpected ph {ph!r}")
            continue
        if ph == "M":
            continue
        for field in ("ts", "dur"):
            if not isinstance(event.get(field), (int, float)):
                errors.append(f"{path.name}: event {index} missing numeric {field}")
        if event.get("cat") == "update":
            updates.setdefault(event.get("tid"), []).append(event)
        elif event.get("cat") == "phase":
            slices.append(event)
        else:
            errors.append(f"{path.name}: event {index} has unknown cat")
    if not updates:
        errors.append(f"{path.name}: no update slices")
    if not slices:
        errors.append(f"{path.name}: no nested phase slices")
    eps = 1e-6
    for phase in slices:
        parents = updates.get(phase.get("tid"), [])
        start, end = phase["ts"], phase["ts"] + phase["dur"]
        if not any(
            parent["ts"] - eps <= start and end <= parent["ts"] + parent["dur"] + eps
            for parent in parents
        ):
            errors.append(
                f"{path.name}: phase slice {phase.get('name')!r} at ts={start} "
                "is not nested inside any update slice on its lane"
            )


def check_merge_report(path: Path, errors: list) -> None:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        errors.append(f"{path.name}: invalid JSON ({exc})")
        return
    missing = REQUIRED_REPORT_KEYS - report.keys()
    if missing:
        errors.append(f"{path.name}: missing keys {sorted(missing)}")
        return
    for key in ("nodes", "trace_events", "health_events", "absorbed_total"):
        value = report[key]
        if not isinstance(value, int) or value < 0:
            errors.append(f"{path.name}: {key} is not a non-negative int")
    absorbed = report["absorbed_lines"]
    if not isinstance(absorbed, dict):
        errors.append(f"{path.name}: absorbed_lines is not an object")
        return
    if sum(absorbed.values()) != report["absorbed_total"]:
        errors.append(
            f"{path.name}: absorbed_total={report['absorbed_total']} does not "
            f"match per-file tally {sum(absorbed.values())}"
        )


def check_bundle(bundle_dir: str) -> list:
    root = Path(bundle_dir)
    errors: list = []
    expected = {
        "metrics.prom": lambda p: check_prometheus(p, errors),
        "metrics.jsonl": lambda p: check_jsonl(
            p, errors, {"counter", "gauge", "histogram"}
        ),
        "spans.jsonl": lambda p: check_jsonl(p, errors, {"span"}),
        "trace.jsonl": lambda p: check_jsonl(p, errors, {"trace"}),
        "trace.json": lambda p: check_chrome_trace(p, errors),
    }
    for name, checker in expected.items():
        path = root / name
        if not path.is_file():
            errors.append(f"{name}: missing")
            continue
        checker(path)
    # Live (WatchLab) artifacts: written by ``rt merge`` but not by the
    # sim exporter, so they are validated only when present.
    live = {
        "telemetry.jsonl": lambda p: check_jsonl(
            p, errors, {"snapshot", "health"}, allow_empty=True
        ),
        "health.jsonl": lambda p: check_jsonl(
            p, errors, {"health"}, allow_empty=True
        ),
        "merge_report.json": lambda p: check_merge_report(p, errors),
    }
    for name, checker in live.items():
        path = root / name
        if path.is_file():
            checker(path)
    return errors


#: Keys every BENCH_load.json sweep point must carry.
BENCH_LOAD_POINT_KEYS = {
    "offered_rate", "offered", "admitted", "dropped", "completed",
    "slo_miss", "timeouts", "aliases_active", "offered_per_s",
    "goodput_per_s", "latency_p50_ms", "latency_p99_ms",
}
BENCH_LOAD_KNEE_KEYS = {
    "offered_rate", "offered_per_s", "goodput_per_s", "latency_p99_ms",
    "saturated",
}
BENCH_LOAD_CONFIGS = {"singleton", "batched"}


def check_bench_load(path: Path, errors: list) -> None:
    """Validate a BENCH_load.json saturation-sweep artifact.

    Structural only (no repro import): both configuration curves exist,
    every point carries the full accounting schema and balances
    (offered == admitted + dropped; timeouts == admitted − completed),
    and each curve has a detected knee.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return
    if doc.get("benchmark") != "load_sweep":
        errors.append(f"{path.name}: benchmark is not 'load_sweep'")
    configs = doc.get("configs")
    if not isinstance(configs, dict):
        errors.append(f"{path.name}: configs missing")
        return
    missing_configs = BENCH_LOAD_CONFIGS - configs.keys()
    if missing_configs:
        errors.append(f"{path.name}: configs missing {sorted(missing_configs)}")
    for name, curve in configs.items():
        points = curve.get("points")
        if not isinstance(points, list) or len(points) < 2:
            errors.append(f"{path.name}: {name} curve has fewer than 2 points")
            continue
        for index, point in enumerate(points):
            missing = BENCH_LOAD_POINT_KEYS - point.keys()
            if missing:
                errors.append(
                    f"{path.name}: {name} point {index} missing {sorted(missing)}"
                )
                continue
            if point["offered"] != point["admitted"] + point["dropped"]:
                errors.append(
                    f"{path.name}: {name} point {index} accounting imbalance"
                )
            if point["timeouts"] != point["admitted"] - point["completed"]:
                errors.append(
                    f"{path.name}: {name} point {index} timeout identity broken"
                )
        knee = curve.get("knee")
        if not isinstance(knee, dict):
            errors.append(f"{path.name}: {name} curve has no detected knee")
        elif BENCH_LOAD_KNEE_KEYS - knee.keys():
            errors.append(
                f"{path.name}: {name} knee missing "
                f"{sorted(BENCH_LOAD_KNEE_KEYS - knee.keys())}"
            )


STREAM_KINDS = {"snapshot", "health", "trace", "span"}


def check_stream(lines, errors: list) -> dict:
    """Validate ``repro obs tail`` output: node-annotated telemetry rows."""
    tally = {kind: 0 for kind in STREAM_KINDS}
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"stream:{line_no}: invalid JSON ({exc})")
            continue
        if not check_row(row, f"stream:{line_no}", errors, STREAM_KINDS):
            continue
        if "node" not in row:
            errors.append(f"stream:{line_no}: row lacks its node annotation")
            continue
        tally[row["kind"]] += 1
    if sum(tally.values()) == 0:
        errors.append("stream: no telemetry rows at all")
    elif tally["snapshot"] == 0:
        errors.append("stream: no snapshot rows — fleet never reported metrics")
    return tally


def main(argv) -> int:
    if len(argv) >= 2 and argv[1] == "--stream":
        source = argv[2] if len(argv) > 2 else "-"
        if source == "-":
            lines = sys.stdin.read().splitlines()
        else:
            lines = Path(source).read_text(encoding="utf-8").splitlines()
        errors: list = []
        tally = check_stream(lines, errors)
        if errors:
            for error in errors:
                print(f"FAIL {error}")
            return 1
        counts = ", ".join(f"{k}={v}" for k, v in sorted(tally.items()) if v)
        print(f"OK stream: telemetry rows are well-formed ({counts})")
        return 0
    if len(argv) == 3 and argv[1] == "--bench-load":
        errors = []
        check_bench_load(Path(argv[2]), errors)
        if errors:
            for error in errors:
                print(f"FAIL {error}")
            return 1
        print(f"OK {argv[2]}: load sweep artifact is well-formed")
        return 0
    if len(argv) != 2:
        print(
            f"usage: {argv[0]} BUNDLE_DIR | --stream [FILE|-] | "
            "--bench-load BENCH_load.json",
            file=sys.stderr,
        )
        return 2
    errors = check_bundle(argv[1])
    if errors:
        for error in errors:
            print(f"FAIL {error}")
        return 1
    print(f"OK {argv[1]}: observability bundle is well-formed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
