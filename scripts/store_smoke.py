#!/usr/bin/env python
"""CI store-smoke: SIGKILL a live node mid-run, respawn, recover from disk.

Launches a real f=1 fleet with file-backed stores, lets the workload put
records into every replica's segment log, SIGKILLs a data-center replica
(no shutdown, no flush), respawns it, and requires:

1. the respawned process replayed its pre-crash prefix from its own disk
   (``store.recovered_bytes`` > 0 in its metrics);
2. the workload still completed for every client.

Usage:

    PYTHONPATH=src python scripts/store_smoke.py --out store-smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.rt.bootstrap import RtConfig
from repro.rt.launcher import Launcher
from repro.system.config import add_config_flags, config_from_args

TARGET = "dc-1-r0"
KNOBS = ("out_dir", "seed", "num_clients", "updates_per_client",
         "update_interval", "base_port")


async def run(config: RtConfig, timeout: float) -> int:
    launcher = Launcher.with_epoch(config)
    try:
        await launcher.launch()
        started = time.time()
        print(f"fleet up; letting {TARGET} accumulate log records...", flush=True)
        await asyncio.sleep(4.0)
        print(f"SIGKILL {TARGET}", flush=True)
        launcher.crash(TARGET)
        await asyncio.sleep(1.0)
        print(f"respawning {TARGET}", flush=True)
        await launcher.restart(TARGET)
        finished = await launcher.wait_for_workload(
            timeout - (time.time() - started)
        )
    finally:
        await launcher.shutdown()
    launcher.merge()

    if not finished:
        print("FAIL: workload did not complete", file=sys.stderr)
        return 1
    results = launcher.client_results()
    incomplete = [
        cid for cid, r in results.items() if r["completed"] != r["updates"]
    ]
    if len(results) != config.num_clients or incomplete:
        print(f"FAIL: incomplete clients: {incomplete}", file=sys.stderr)
        return 1

    raw_path = Path(config.out_dir) / "nodes" / TARGET / "metrics_raw.json"
    raw = json.loads(raw_path.read_text(encoding="utf-8"))
    recovered = sum(
        c["value"] for c in raw["counters"] if c["name"] == "store.recovered_bytes"
    )
    if recovered <= 0:
        print(
            f"FAIL: {TARGET} respawned without replaying its disk "
            f"(store.recovered_bytes={recovered})",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {TARGET} recovered {recovered:.0f} bytes from disk; "
        f"{sum(r['completed'] for r in results.values())} updates completed"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_config_flags(parser, RtConfig, KNOBS)
    # Smoke-sized: two slow clients keep the log growing across the kill.
    parser.set_defaults(out="store-smoke", seed=7, clients=2, updates=60,
                        interval=0.15, base_port=23600)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()
    return asyncio.run(run(config_from_args(RtConfig, args, KNOBS), args.timeout))


if __name__ == "__main__":
    sys.exit(main())
