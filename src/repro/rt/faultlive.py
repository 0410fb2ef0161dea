"""FaultLab on the live substrate: real process kills, real partitions.

``repro faultlab --substrate live`` replays a fault schedule against a
real multi-process deployment instead of the simulation. Only the fault
kinds with a faithful physical realisation are supported:

=============== ======================================================
kind             live realisation
=============== ======================================================
recover          SIGKILL the replica's OS process (no goodbye, no
                 flush), then respawn it after the window: the fresh
                 process loads the key file the launcher dealt it and
                 catches up — from its durable store first when one is
                 configured, then state transfer for the suffix.
isolate          ``POST /partition`` to every node: traffic to and from
                 the site's hosts is dropped at both endpoints while
                 LAN traffic keeps flowing — the paper's
                 site-disconnection attack.
torn_write       SIGKILL, then truncate the tail of the newest store
                 segment on disk (a write that never finished), then
                 respawn: recovery must absorb the torn tail and still
                 replay the intact prefix.
corrupt_segment  SIGKILL, then flip a byte inside the newest store
                 segment (silent media corruption), then respawn:
                 recovery must *detect* the damage and fall back to
                 network state transfer rather than serve it.
crash_during_compaction
                 SIGKILL, then freeze the background compactor's atomic
                 swap mid-flight (leftover .compact.tmp/.old files),
                 then respawn: the open-time repair must resolve the
                 artifacts and lose no live record.
crash_mid_delta  SIGKILL, then tear the newest delta-checkpoint file
                 in half, then respawn: recovery must cut the delta
                 chain before the damage and degrade to the full
                 snapshot plus log tail.
=============== ======================================================

The two store-damage kinds require the fleet to run with file-backed
stores (``RtConfig.durable_store``, the default); they act on the
replica's segment files under ``out_dir/nodes/<host>/store``.

Everything else (``compromise``, ``degrade``, ``loss``, ``skew``,
``leak``) stays **sim-only**: Byzantine behaviour needs the adversary's
in-process message rewriting, and degradation/loss/skew model link-level
physics the localhost transport does not reproduce. The CLI rejects
schedules containing them rather than silently dropping events.

The live verdict is *liveness through turbulence*: every client finishing
its workload with threshold-verified responses. The safety and
confidentiality invariants need the simulation's omniscient in-process
checker and remain FaultLab-sim's job.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Dict, List

from repro.faultlab.schedule import FaultSchedule
from repro.rt.bootstrap import RtConfig
from repro.rt.launcher import Launcher
from repro.store.filestore import (
    _FRAME_HEADER,
    SEGMENT_MAGIC,
    _delta_files,
    flip_byte,
    interrupt_compaction_files,
    torn_write_file,
)

#: Fault kinds the live substrate can realise physically.
LIVE_KINDS = (
    "recover",
    "isolate",
    "torn_write",
    "corrupt_segment",
    "crash_during_compaction",
    "crash_mid_delta",
)


def _damage_store_files(out_dir: str, host: str, kind: str, event) -> bool:
    """Damage the newest on-disk store files of ``host``; True if applied.

    Runs only while the host's process is dead (we SIGKILL first), so
    nothing races the file writes.
    """
    store_dir = Path(out_dir) / "nodes" / host / "store"
    seg_dir = store_dir / "segments"
    if not seg_dir.is_dir():
        return False
    if kind == "crash_mid_delta":
        # Tear the newest delta-checkpoint file mid-write; with no deltas
        # on disk yet, leave an orphan temp file repair must sweep.
        deltas = _delta_files(store_dir / "checkpoints")
        if deltas:
            target = deltas[-1][0]
            torn_write_file(target, max(32, target.stat().st_size // 2))
        else:
            (store_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
            orphan = store_dir / "checkpoints" / "delta-000000000000-000000000000.tmp"
            orphan.write_bytes(b"RDLT\x01")
        return True
    header = len(SEGMENT_MAGIC)
    candidates = sorted(
        path for path in seg_dir.glob("seg-*.log") if path.stat().st_size > header
    )
    if not candidates:
        return False
    target = candidates[-1]
    if kind == "torn_write":
        torn_write_file(target, int(event.param("bytes", 64)))
    elif kind == "crash_during_compaction":
        # Freeze the atomic compaction swap at the chosen stage: the
        # respawned process's open-time repair must resolve the leftover
        # .compact.tmp/.old files deterministically.
        interrupt_compaction_files(target, int(event.param("stage", 2)))
    else:
        offset = event.param("offset")
        if offset is None:
            # First byte of the first record body: guaranteed CRC mismatch.
            offset = header + _FRAME_HEADER.size
        flip_byte(target, int(offset))
    return True


def unsupported_kinds(schedule: FaultSchedule) -> List[str]:
    """The (sorted, unique) fault kinds in ``schedule`` that live cannot run."""
    return sorted({e.kind for e in schedule.events} - set(LIVE_KINDS))


async def _apply_event(launcher: Launcher, event, t0: float) -> None:
    """Sleep until the event's window, then act on the real deployment."""

    async def at(when: float) -> None:
        delay = t0 + when - time.time()
        if delay > 0:
            await asyncio.sleep(delay)

    if event.kind == "recover":
        duration = float(event.param("duration", 3.0))
        await at(event.at)
        launcher.crash(event.target)
        await at(event.at + duration)
        await launcher.restart(event.target)
    elif event.kind in (
        "torn_write",
        "corrupt_segment",
        "crash_during_compaction",
        "crash_mid_delta",
    ):
        duration = float(event.param("duration", 3.0))
        await at(event.at)
        launcher.crash(event.target)
        _damage_store_files(
            launcher.config.out_dir, event.target, event.kind, event
        )
        await at(event.at + duration)
        await launcher.restart(event.target)
    elif event.kind == "isolate":
        await at(event.at)
        await launcher.partition(event.target, True)
        await at(event.until)
        await launcher.partition(event.target, False)
    else:
        raise ValueError(f"fault kind {event.kind!r} is sim-only "
                         f"(live supports {LIVE_KINDS})")


async def _run_live_async(
    schedule: FaultSchedule, config: RtConfig, timeout: float
) -> Dict:
    bad = unsupported_kinds(schedule)
    if bad:
        raise ValueError(
            f"schedule uses sim-only fault kinds {bad}; the live substrate "
            f"supports only {list(LIVE_KINDS)}"
        )
    launcher = Launcher.with_epoch(config)
    fault_tasks: List[asyncio.Future] = []
    t0 = time.time()
    try:
        await launcher.launch()
        t0 = time.time()
        fault_tasks = [
            asyncio.ensure_future(_apply_event(launcher, event, t0))
            for event in schedule.events
        ]
        finished = await launcher.wait_for_workload(timeout)
        elapsed = time.time() - t0
        await asyncio.gather(*fault_tasks, return_exceptions=True)
    finally:
        for task in fault_tasks:
            task.cancel()
        await launcher.shutdown()
    paths = launcher.merge()
    summary = launcher.summary()
    ok = (
        finished
        and summary["updates_completed"] >= summary["updates_submitted"]
        and summary["clients"] == config.num_clients
    )
    summary.update(
        {
            "ok": ok,
            "finished": finished,
            "schedule_seed": schedule.seed,
            "events": [e.describe() for e in schedule.events],
            "workload_seconds": elapsed,
            "merged_bundle": paths,
        }
    )
    summary["detections"] = _score_detections(schedule, config, paths, t0)
    return summary


def _score_detections(
    schedule: FaultSchedule, config: RtConfig, paths: Dict[str, str], t0: float
) -> List[Dict]:
    """Match the merged health-event stream against the injected faults.

    Fault times are relative to ``t0`` (post-launch) while nodes stamp
    health events relative to the shared epoch; the difference is the
    launch duration, passed as the matching offset.
    """
    from repro.obs.watch.detectors import match_detections
    from repro.obs.watch.events import health_event_from_row
    from repro.rt.merge import load_jsonl_rows

    health_path = paths.get("health.jsonl")
    if not health_path:
        return []
    rows, _absorbed = load_jsonl_rows(Path(health_path))
    health = [health_event_from_row(row) for row in rows if row.get("kind") == "health"]
    offset = t0 - config.epoch if config.epoch else 0.0
    matches = match_detections(schedule.events, health, offset=offset)
    return [
        {
            "fault": match.fault_kind,
            "target": match.fault_target,
            "detected": match.detected,
            "event": match.event_kind,
            "host": match.event_host,
            "latency": match.latency,
        }
        for match in matches
    ]


def run_schedule_live(
    schedule: FaultSchedule, config: RtConfig, timeout: float = 300.0
) -> Dict:
    """Replay ``schedule``'s crash/partition/store faults against a live fleet."""
    return asyncio.run(_run_live_async(schedule, config, timeout))
