"""Offline inspection of a FileStore directory (``repro store ...``).

Pure readers: nothing here mutates the store, so they are safe to run
against a live node's directory (the worst case is observing a frame
mid-append, which reports as a torn tail).

CompactLab additions: per-segment live/dead record ratios (dead = below
the newest verified checkpoint chain's stable point, or shadowed by a
newer copy of the same ``batch_seq``), the delta-checkpoint chain report
(lineage, per-file verification, contiguity from the anchor), and the
count of leftover compaction artifacts (``.compact.tmp`` / ``.log.old``
files an interrupted swap leaves for open-time repair).
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.messages import BatchRecord
from repro.errors import ProtocolError
from repro.net.codec import decode_message
from repro.store.filestore import (
    SEGMENT_MAGIC,
    _COMPACT_OLD_SUFFIX,
    _COMPACT_TMP_SUFFIX,
    _FRAME_HEADER,
    _checkpoint_files,
    _delta_files,
    _verify_checkpoint_bytes,
    _verify_delta_bytes,
)


def scan_segment(path: Path, is_last: bool) -> Dict:
    """Parse one segment file into a report dict.

    ``status`` is ``ok``, ``empty``, ``torn`` (partial final frame — only
    benign in the newest segment), or ``corrupt`` (CRC/decode/magic
    failure; the scan stops there). ``seqs`` lists every decoded
    ``batch_seq`` in file order (used for the live/dead tally; dropped
    from the JSON report).
    """
    data = Path(path).read_bytes()
    report: Dict = {
        "file": Path(path).name,
        "size": len(data),
        "records": 0,
        "min_seq": None,
        "max_seq": None,
        "status": "ok",
        "detail": "",
        "seqs": [],
    }
    if len(data) < len(SEGMENT_MAGIC):
        report["status"] = "torn" if is_last else "corrupt"
        report["detail"] = "missing segment header"
        return report
    if not data.startswith(SEGMENT_MAGIC):
        report["status"] = "corrupt"
        report["detail"] = "bad segment magic"
        return report
    if len(data) == len(SEGMENT_MAGIC):
        report["status"] = "empty"
        return report
    offset = len(SEGMENT_MAGIC)
    records: List[Tuple[int, int]] = []
    while offset < len(data):
        if offset + _FRAME_HEADER.size > len(data):
            report["status"] = "torn" if is_last else "corrupt"
            report["detail"] = f"partial frame header at offset {offset}"
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        end = offset + _FRAME_HEADER.size + length
        if end > len(data):
            report["status"] = "torn" if is_last else "corrupt"
            report["detail"] = f"frame at offset {offset} extends past end of file"
            break
        body = data[offset + _FRAME_HEADER.size : end]
        if zlib.crc32(body) != crc:
            report["status"] = "corrupt"
            report["detail"] = f"CRC mismatch at offset {offset}"
            break
        try:
            record, _ = decode_message(body)
        except ProtocolError:
            record = None
        if not isinstance(record, BatchRecord):
            report["status"] = "corrupt"
            report["detail"] = f"undecodable record at offset {offset}"
            break
        records.append((record.batch_seq, end - offset))
        offset = end
    if records:
        seqs = [seq for seq, _ in records]
        report["records"] = len(records)
        report["min_seq"] = min(seqs)
        report["max_seq"] = max(seqs)
        report["seqs"] = seqs
    return report


def _tally_liveness(segments: List[Dict], stable_seq: int) -> None:
    """Annotate each segment report with live/dead record counts.

    A record is dead when its ``batch_seq`` is below the stable point or
    when a newer copy of the same ``batch_seq`` exists later on disk
    (post-recovery duplicate). The last copy in scan order wins — the
    same rule the compactor and the loader apply.
    """
    last_owner: Dict[int, Tuple[int, int]] = {}
    for seg_index, segment in enumerate(segments):
        for pos, seq in enumerate(segment["seqs"]):
            last_owner[seq] = (seg_index, pos)
    for seg_index, segment in enumerate(segments):
        live = 0
        for pos, seq in enumerate(segment["seqs"]):
            if seq >= stable_seq and last_owner.get(seq) == (seg_index, pos):
                live += 1
        segment["live_records"] = live
        segment["dead_records"] = segment["records"] - live
        segment["live_ratio"] = (
            round(live / segment["records"], 4) if segment["records"] else 1.0
        )
        del segment["seqs"]


def _delta_report(root: Path, anchor_ordinal: Optional[int]) -> Dict:
    """Verify every delta file and walk the chain anchored at the newest
    verified full snapshot."""
    entries = []
    by_base: Dict[int, Dict] = {}
    corrupt = 0
    for path, ordinal, full_ordinal in _delta_files(root / "checkpoints"):
        data = path.read_bytes()
        message = _verify_delta_bytes(data)
        entry = {
            "file": path.name,
            "ordinal": ordinal,
            "full_ordinal": full_ordinal,
            "size": len(data),
            "verified": message is not None,
        }
        if message is not None:
            entry["base_ordinal"] = message.base_ordinal
            entry["batch_seq"] = message.resume.batch_seq
            entry["signer"] = message.signer
            if message.full_ordinal == anchor_ordinal:
                by_base.setdefault(message.base_ordinal, entry)
        else:
            corrupt += 1
        entries.append(entry)
    chain: List[int] = []
    tip = anchor_ordinal
    if anchor_ordinal is not None:
        while tip in by_base:
            entry = by_base.pop(tip)
            entry["in_chain"] = True
            chain.append(entry["ordinal"])
            tip = entry["ordinal"]
    # Deltas of the anchor lineage that did not link are unusable; deltas
    # of older lineages are stale-but-benign leftovers GC will sweep.
    orphans = sum(
        1
        for entry in entries
        if entry["verified"]
        and entry["full_ordinal"] == anchor_ordinal
        and not entry.get("in_chain")
    )
    stale = sum(
        1
        for entry in entries
        if entry["verified"] and entry["full_ordinal"] != anchor_ordinal
    )
    return {
        "deltas": entries,
        "anchor_ordinal": anchor_ordinal,
        "chain_ordinals": chain,
        "chain_length": len(chain),
        "chain_tip": chain[-1] if chain else anchor_ordinal,
        "corrupt_deltas": corrupt,
        "orphan_deltas": orphans,
        "stale_deltas": stale,
    }


def inspect_store(root) -> Dict:
    """Full report of a store directory: segments (with live/dead
    ratios), checkpoints, the delta chain, compaction artifacts, totals."""
    root = Path(root)
    segment_paths = sorted((root / "segments").glob("seg-*.log"))
    segments = [
        scan_segment(path, is_last=(i == len(segment_paths) - 1))
        for i, path in enumerate(segment_paths)
    ]
    checkpoints = []
    newest_verified = None
    for path, ordinal in sorted(_checkpoint_files(root / "checkpoints"), key=lambda po: po[1]):
        data = path.read_bytes()
        message = _verify_checkpoint_bytes(data)
        entry = {
            "file": path.name,
            "ordinal": ordinal,
            "size": len(data),
            "verified": message is not None,
        }
        if message is not None:
            entry["batch_seq"] = message.resume.batch_seq
            entry["signer"] = message.signer
            newest_verified = message
        checkpoints.append(entry)
    chain = _delta_report(
        root, newest_verified.ordinal if newest_verified is not None else None
    )
    stable_seq = newest_verified.resume.batch_seq if newest_verified else 0
    # The stable point advances along the delta chain: dead-record
    # accounting must use the chain tip, not just the full snapshot.
    if chain["chain_ordinals"]:
        tip_seqs = [
            entry.get("batch_seq")
            for entry in chain["deltas"]
            if entry.get("in_chain") and entry["ordinal"] == chain["chain_tip"]
        ]
        if tip_seqs and tip_seqs[0] is not None:
            stable_seq = max(stable_seq, tip_seqs[0])
    _tally_liveness(segments, stable_seq)
    seg_dir = root / "segments"
    artifacts = 0
    if seg_dir.is_dir():
        artifacts = sum(1 for _ in seg_dir.glob(f"*{_COMPACT_TMP_SUFFIX}")) + sum(
            1 for _ in seg_dir.glob(f"*.log{_COMPACT_OLD_SUFFIX}")
        )
    seqs = [s["max_seq"] for s in segments if s["max_seq"] is not None]
    total_records = sum(s["records"] for s in segments)
    live_records = sum(s["live_records"] for s in segments)
    return {
        "root": str(root),
        "segments": segments,
        "checkpoints": checkpoints,
        "chain": chain,
        "total_records": total_records,
        "live_records": live_records,
        "dead_records": total_records - live_records,
        "stable_seq": stable_seq,
        "max_seq": max(seqs) if seqs else None,
        "compaction_artifacts": artifacts,
        "corrupt_segments": sum(1 for s in segments if s["status"] == "corrupt"),
        "torn_segments": sum(1 for s in segments if s["status"] == "torn"),
        "corrupt_checkpoints": sum(1 for c in checkpoints if not c["verified"]),
        "corrupt_deltas": chain["corrupt_deltas"],
    }


def verify_store(root) -> Tuple[Dict, bool]:
    """(report, ok): ok is False on real corruption. A torn tail in the
    newest segment is a survivable crash artifact, not a failure; so are
    leftover compaction artifacts (open-time repair resolves them) and
    stale deltas from superseded lineages (GC sweeps them). Corrupt
    deltas and chain-lineage deltas that fail to link are failures: the
    chain they belong to cannot be restored."""
    report = inspect_store(root)
    ok = (
        report["corrupt_segments"] == 0
        and report["corrupt_checkpoints"] == 0
        and report["corrupt_deltas"] == 0
        and report["chain"]["orphan_deltas"] == 0
    )
    return report, ok
