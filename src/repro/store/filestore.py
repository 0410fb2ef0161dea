"""File-backed durable store: segmented CRC32 log + atomic checkpoints.

Layout under the store root (one root per replica)::

    <root>/segments/seg-00000001.log     append-only update log segments
    <root>/checkpoints/ckpt-000000000050 one file per stable checkpoint

Segment format: a 5-byte header (magic ``RSEG`` + format version), then
length-prefixed records::

    [u32 body length][u32 CRC32(body)][body = codec-encoded BatchRecord]

Checkpoint files carry the same magic discipline (``RCKP`` + version +
one CRC-framed codec-encoded CheckpointMsg) and are written via the
write-temp-then-rename idiom, so a checkpoint either exists whole or not
at all.

Durability policy (``fsync=``):

- ``always`` — fsync after every append: survives power loss, slowest;
- ``batch``  — fsync every few appends and at every checkpoint/close:
  bounded power-loss window, the default;
- ``never``  — rely on the OS to write back eventually: still survives
  SIGKILL (the page cache belongs to the kernel, not the process), which
  is the crash RtLab's launcher actually inflicts.

Every append is ``flush()``ed regardless of policy — a SIGKILLed process
loses user-space buffers but not what it handed to the kernel, and
surviving SIGKILL is the property the recovery path is built on.

Damage tolerance on :meth:`FileStore.load`:

- a partial frame at the *end of the newest segment* is a torn write
  (crash mid-append): expected, reported as ``truncated_tail``, the
  intact prefix is used;
- a CRC or decode failure anywhere else is corruption: the scan stops
  for that segment (frames are not self-resynchronizing), the damage is
  counted, and recovery falls back to network state transfer for
  whatever was lost. Corrupt data is never returned.

A fresh :class:`FileStore` always opens a *new* segment rather than
appending to the last one, so a torn tail from a previous incarnation is
never written after — it stays quarantined until GC removes it.

CompactLab additions:

- **Background compaction** (:meth:`FileStore.compact`): a bounded tick
  that rewrites sealed segments, dropping below-stable records and
  replayed duplicates (a newer copy of the same ``batch_seq`` exists
  later in the log). The swap is crash-safe: live records are copied to
  ``seg-N.compact.tmp``, the original is quarantined to ``seg-N.log.old``,
  the temp is renamed into place, and only then is the quarantine file
  removed. A crash at any point leaves artifacts the next open repairs
  deterministically (:meth:`_repair_interrupted_compaction`) — never two
  live copies, never zero.
- **Checkpoint deltas** (:meth:`FileStore.save_delta`): delta files
  (``RDLT`` magic, ``delta-<ordinal>-<full>`` names) persist the stable
  checkpoint chain between full snapshots; GC is chain-aware so the full
  snapshot anchoring the stable tip always survives.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.messages import BatchRecord, CheckpointDeltaMsg, CheckpointMsg
from repro.errors import ConfigurationError, ProtocolError
from repro.net.codec import decode_message, encode_message
from repro.obs.registry import NULL_METRICS
from repro.store.base import DurableStore, StoreLoad

SEGMENT_MAGIC = b"RSEG\x01"
CHECKPOINT_MAGIC = b"RCKP\x01"
DELTA_MAGIC = b"RDLT\x01"
_FRAME_HEADER = struct.Struct(">II")  # (body length, CRC32 of body)

#: Suffixes used by the crash-safe compaction swap. Neither matches the
#: ``seg-*.log`` glob, so in-flight swap files are invisible to load/GC.
_COMPACT_TMP_SUFFIX = ".compact.tmp"
_COMPACT_OLD_SUFFIX = ".old"

FSYNC_POLICIES = ("always", "batch", "never")

#: ``batch`` policy: fsync once per this many appends.
_FSYNC_EVERY = 8


def _frame(body: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


class FileStore(DurableStore):
    """Segmented append-only log + checkpoint files for one replica."""

    persistent = True

    def __init__(
        self,
        root,
        fsync: str = "batch",
        segment_bytes: int = 1 << 20,
        metrics=NULL_METRICS,
        host: str = "",
    ):
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {fsync!r} (expected one of {FSYNC_POLICIES})"
            )
        if segment_bytes < 4096:
            raise ConfigurationError("segment_bytes must be at least 4096")
        self.root = Path(root)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.segments_dir = self.root / "segments"
        self.checkpoints_dir = self.root / "checkpoints"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)

        self._m_appends = metrics.counter("store.append_records", host=host)
        self._m_append_bytes = metrics.counter("store.append_bytes", host=host)
        self._m_fsyncs = metrics.counter("store.fsyncs", host=host)
        self._m_ckpts = metrics.counter("store.checkpoints_saved", host=host)
        self._m_ckpt_bytes = metrics.counter("store.checkpoint_bytes", host=host)
        self._m_gc_segments = metrics.counter("store.gc_segments", host=host)
        self._m_gc_ckpts = metrics.counter("store.gc_checkpoints", host=host)
        self._h_append = metrics.histogram("store.append_seconds", host=host)
        self._h_fsync = metrics.histogram("store.fsync_seconds", host=host)
        # CompactLab families, created eagerly so every export carries them.
        self._m_compaction_runs = metrics.counter("store.compaction_runs", host=host)
        self._m_compaction_segments = metrics.counter(
            "store.compaction_segments", host=host
        )
        self._m_compaction_dropped = metrics.counter(
            "store.compaction_records_dropped", host=host
        )
        self._m_compaction_reclaimed = metrics.counter(
            "store.compaction_bytes_reclaimed", host=host
        )
        self._m_delta_saved = metrics.counter("store.delta_checkpoints_saved", host=host)
        self._m_delta_bytes = metrics.counter("store.delta_bytes", host=host)

        self._repair_interrupted_compaction()

        self._fh = None
        self._segment_index = self._highest_segment_index()
        self._appends_since_sync = 0
        #: Max batch_seq per segment written by *this* process (sealed
        #: segments from earlier incarnations are scanned lazily by GC).
        self._segment_max_seq: Dict[int, int] = {}
        #: batch_seqs appended per segment by *this* process — lets the
        #: compactor prove duplicate-shadowing without rescanning.
        self._written_seqs: Dict[int, set] = {}
        #: Lazily scanned seq sets for sealed segments from earlier
        #: incarnations (None = unreadable, treated conservatively).
        self._segment_seq_cache: Dict[int, Optional[frozenset]] = {}
        #: The stable point last passed to :meth:`gc` — the compactor's
        #: threshold for dropping below-stable records.
        self._stable_seq = 0
        self._stable_ordinal = 0

    # -- segment plumbing ---------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.segments_dir / f"seg-{index:08d}.log"

    def _highest_segment_index(self) -> int:
        highest = 0
        for path in self.segments_dir.glob("seg-*.log"):
            try:
                highest = max(highest, int(path.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return highest

    def _roll_segment(self) -> None:
        if self._fh is not None:
            self._sync_current()
            self._fh.close()
        self._segment_index += 1
        self._fh = open(self._segment_path(self._segment_index), "ab")
        if self._fh.tell() == 0:
            self._fh.write(SEGMENT_MAGIC)
        self._fh.flush()

    def _sync_current(self) -> None:
        if self._fh is None or self.fsync_policy == "never":
            return
        started = time.perf_counter()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._m_fsyncs.inc()
        self._h_fsync.observe(time.perf_counter() - started)
        self._appends_since_sync = 0

    # -- compaction ---------------------------------------------------------------

    def _repair_interrupted_compaction(self) -> None:
        """Finish or roll back a compaction swap a crash interrupted.

        The swap leaves at most two artifacts per segment: the quarantined
        original (``seg-N.log.old``) and the compacted copy
        (``seg-N.compact.tmp``). Exactly one of three crash windows is
        possible, each with a deterministic repair:

        - ``.log`` present + ``.old`` present: crash after the rename-in —
          the compacted copy is live, drop the quarantine file;
        - ``.log`` missing + ``.old`` present: crash between quarantine and
          rename-in — the temp may not be fully durable, so roll *back*:
          restore the original, discard the temp;
        - ``.log`` present + ``.tmp`` only: crash before quarantine — the
          original is untouched, discard the temp.
        """
        for old in sorted(self.segments_dir.glob("seg-*.log" + _COMPACT_OLD_SUFFIX)):
            log = old.with_name(old.name[: -len(_COMPACT_OLD_SUFFIX)])
            tmp = log.with_name(log.name[: -len(".log")] + _COMPACT_TMP_SUFFIX)
            if log.exists():
                old.unlink(missing_ok=True)
            else:
                old.replace(log)
            tmp.unlink(missing_ok=True)
        for tmp in sorted(self.segments_dir.glob("seg-*" + _COMPACT_TMP_SUFFIX)):
            tmp.unlink(missing_ok=True)
        self._fsync_dir(self.segments_dir)

    def compact(self, budget_segments: int = 1) -> Dict[str, int]:
        """One bounded compaction tick over the sealed segments.

        A record is dead when it is below the stable point, or when a
        newer copy of the same ``batch_seq`` exists later in the log
        (replayed duplicate — load() is last-write-wins, so only the
        newest copy is ever used). At most ``budget_segments`` segments
        are rewritten per call so the tick never stalls the hot path;
        damaged segments are left untouched for load() to classify.
        """
        stats = {"segments": 0, "records_dropped": 0, "bytes_reclaimed": 0}
        self._m_compaction_runs.inc()
        if budget_segments <= 0:
            return stats
        if self._fh is not None:
            self._fh.flush()
        sealed: List[Tuple[int, Path]] = []
        for path in sorted(self.segments_dir.glob("seg-*.log")):
            try:
                index = int(path.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if index != self._segment_index:
                sealed.append((index, path))
        seq_sets = {index: self._segment_seqs(index, path) for index, path in sealed}
        for position, (index, path) in enumerate(sealed):
            if stats["segments"] >= budget_segments:
                break
            if seq_sets[index] is None:
                continue
            shadowing: set = set(self._written_seqs.get(self._segment_index, ()))
            for later_index, _later_path in sealed[position + 1 :]:
                later_set = seq_sets[later_index]
                if later_set is not None:
                    shadowing.update(later_set)
            result = self._compact_segment(index, path, shadowing)
            if result is None:
                continue
            dropped, reclaimed = result
            if dropped == 0:
                continue
            stats["segments"] += 1
            stats["records_dropped"] += dropped
            stats["bytes_reclaimed"] += reclaimed
        if stats["segments"]:
            self._m_compaction_segments.inc(stats["segments"])
            self._m_compaction_dropped.inc(stats["records_dropped"])
            self._m_compaction_reclaimed.inc(stats["bytes_reclaimed"])
        return stats

    def _compact_segment(
        self, index: int, path: Path, shadowing: set
    ) -> Optional[Tuple[int, int]]:
        """Rewrite one sealed segment; returns (records dropped, bytes
        reclaimed) or None when the segment is unreadable."""
        frames = _scan_segment_frames(path)
        if frames is None:
            self._segment_seq_cache[index] = None
            return None
        last_position = {seq: i for i, (seq, _frame) in enumerate(frames)}
        keep = [
            (seq, frame)
            for i, (seq, frame) in enumerate(frames)
            if seq >= self._stable_seq
            and seq not in shadowing
            and last_position[seq] == i
        ]
        dropped = len(frames) - len(keep)
        if dropped == 0:
            return (0, 0)
        old_size = path.stat().st_size
        if not keep:
            path.unlink(missing_ok=True)
            self._forget_segment(index)
            return (dropped, old_size)
        tmp = path.with_name(path.name[: -len(".log")] + _COMPACT_TMP_SUFFIX)
        old = path.with_name(path.name + _COMPACT_OLD_SUFFIX)
        with open(tmp, "wb") as fh:
            fh.write(SEGMENT_MAGIC)
            for _seq, frame in keep:
                fh.write(frame)
            fh.flush()
            if self.fsync_policy != "never":
                os.fsync(fh.fileno())
        new_size = tmp.stat().st_size
        path.replace(old)  # quarantine the original
        tmp.replace(path)  # atomic swap-in
        if self.fsync_policy != "never":
            self._fsync_dir(self.segments_dir)
        old.unlink(missing_ok=True)
        kept_seqs = frozenset(seq for seq, _frame in keep)
        self._segment_seq_cache[index] = kept_seqs
        self._segment_max_seq[index] = max(kept_seqs)
        self._written_seqs.pop(index, None)
        return (dropped, old_size - new_size)

    def _segment_seqs(self, index: int, path: Path) -> Optional[frozenset]:
        """All batch_seqs in a sealed segment (None when unreadable)."""
        written = self._written_seqs.get(index)
        if written is not None:
            return frozenset(written)
        cached = self._segment_seq_cache.get(index, _UNSCANNED)
        if cached is not _UNSCANNED:
            return cached
        scanned = _scan_segment_seqs(path)
        self._segment_seq_cache[index] = scanned
        return scanned

    def _forget_segment(self, index: int) -> None:
        self._segment_max_seq.pop(index, None)
        self._written_seqs.pop(index, None)
        self._segment_seq_cache.pop(index, None)

    # -- DurableStore ------------------------------------------------------------

    def append(self, record: BatchRecord) -> int:
        body = encode_message(record)
        frame = _frame(body)
        if self._fh is None or self._fh.tell() + len(frame) > self.segment_bytes:
            self._roll_segment()
        started = time.perf_counter()
        self._fh.write(frame)
        # flush() every time: the kernel's page cache survives SIGKILL,
        # user-space stdio buffers do not.
        self._fh.flush()
        if self.fsync_policy == "always":
            self._sync_current()
        elif self.fsync_policy == "batch":
            self._appends_since_sync += 1
            if self._appends_since_sync >= _FSYNC_EVERY:
                self._sync_current()
        self._h_append.observe(time.perf_counter() - started)
        self._m_appends.inc()
        self._m_append_bytes.inc(len(frame))
        current = self._segment_max_seq.get(self._segment_index, 0)
        self._segment_max_seq[self._segment_index] = max(current, record.batch_seq)
        self._written_seqs.setdefault(self._segment_index, set()).add(record.batch_seq)
        return len(frame)

    def save_checkpoint(self, message: CheckpointMsg) -> int:
        body = encode_message(message)
        payload = CHECKPOINT_MAGIC + _frame(body)
        final = self.checkpoints_dir / f"ckpt-{message.ordinal:012d}"
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            if self.fsync_policy != "never":
                os.fsync(fh.fileno())
        tmp.replace(final)
        if self.fsync_policy != "never":
            self._fsync_dir(self.checkpoints_dir)
        # A stable checkpoint makes everything before it collectable, so
        # the log itself should be on disk before the checkpoint claims
        # to cover it.
        self._sync_current()
        self._m_ckpts.inc()
        self._m_ckpt_bytes.inc(len(payload))
        return len(payload)

    def save_delta(self, message: CheckpointDeltaMsg) -> int:
        body = encode_message(message)
        payload = DELTA_MAGIC + _frame(body)
        final = self.checkpoints_dir / (
            f"delta-{message.ordinal:012d}-{message.full_ordinal:012d}"
        )
        tmp = final.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            if self.fsync_policy != "never":
                os.fsync(fh.fileno())
        tmp.replace(final)
        if self.fsync_policy != "never":
            self._fsync_dir(self.checkpoints_dir)
        self._sync_current()
        self._m_delta_saved.inc()
        self._m_delta_bytes.inc(len(payload))
        return len(payload)

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def gc(self, stable_ordinal: int, stable_seq: int) -> None:
        """Drop sealed segments and checkpoint-chain files the stable
        point covers.

        A sealed segment goes only when a *clean* scan proves every record
        in it is below ``stable_seq``; a segment with unreadable frames is
        kept so load() can still report the damage. Checkpoint retention
        is chain-aware: the newest full snapshot at/below
        ``stable_ordinal`` anchors any stable deltas above it, so it
        survives its own GC; older fulls and deltas from older lineages
        are dropped.
        """
        self._stable_seq = max(self._stable_seq, stable_seq)
        self._stable_ordinal = max(self._stable_ordinal, stable_ordinal)
        for path in sorted(self.segments_dir.glob("seg-*.log")):
            try:
                index = int(path.stem.split("-")[1])
            except (IndexError, ValueError):
                continue
            if index == self._segment_index:
                continue  # never the live segment
            max_seq = self._segment_max_seq.get(index)
            if max_seq is None:
                max_seq = _scan_segment_max_seq(path)
            if max_seq is not None and max_seq < stable_seq:
                path.unlink(missing_ok=True)
                self._forget_segment(index)
                self._m_gc_segments.inc()
        anchors = [
            ordinal
            for _path, ordinal in _checkpoint_files(self.checkpoints_dir)
            if ordinal <= stable_ordinal
        ]
        keep_full = max(anchors) if anchors else None
        if keep_full is None:
            return
        for path, ordinal in _checkpoint_files(self.checkpoints_dir):
            if ordinal < keep_full:
                path.unlink(missing_ok=True)
                self._m_gc_ckpts.inc()
        for path, _ordinal, full_ordinal in _delta_files(self.checkpoints_dir):
            if full_ordinal < keep_full:
                path.unlink(missing_ok=True)
                self._m_gc_ckpts.inc()

    def load(self) -> StoreLoad:
        load = StoreLoad()
        self._load_checkpoint(load)
        self._load_deltas(load)
        self._load_segments(load)
        return load

    def sync(self) -> None:
        self._sync_current()

    def close(self) -> None:
        if self._fh is not None:
            self._sync_current()
            self._fh.close()
            self._fh = None

    # -- load internals -----------------------------------------------------------

    def _load_checkpoint(self, load: StoreLoad) -> None:
        for path, _ordinal in sorted(
            _checkpoint_files(self.checkpoints_dir), key=lambda po: -po[1]
        ):
            data = path.read_bytes()
            message = _verify_checkpoint_bytes(data)
            if message is None:
                load.corrupt_checkpoints += 1
                continue
            load.checkpoint = message
            load.checkpoint_bytes = len(data)
            load.bytes_scanned += len(data)
            return

    def _load_deltas(self, load: StoreLoad) -> None:
        found = []
        for path, ordinal, _full in sorted(
            _delta_files(self.checkpoints_dir), key=lambda pof: pof[1]
        ):
            data = path.read_bytes()
            message = _verify_delta_bytes(data)
            if message is None:
                load.corrupt_deltas += 1
                continue
            found.append(message)
            load.delta_bytes += len(data)
            load.bytes_scanned += len(data)
        load.deltas = found

    def _load_segments(self, load: StoreLoad) -> None:
        paths = sorted(self.segments_dir.glob("seg-*.log"))
        by_seq: Dict[int, Tuple[BatchRecord, int]] = {}
        for position, path in enumerate(paths):
            is_last = position == len(paths) - 1
            self._stream_segment_records(path, is_last, load, by_seq)
        load.records = [by_seq[seq][0] for seq in sorted(by_seq)]
        load.record_bytes = {seq: size for seq, (_r, size) in by_seq.items()}

    def _stream_segment_records(
        self,
        path: Path,
        is_last: bool,
        load: StoreLoad,
        by_seq: Dict[int, Tuple[BatchRecord, int]],
    ) -> None:
        """Stream one segment's frames from the file handle.

        Recovery of an arbitrarily long log holds at most one frame in
        memory at a time instead of whole segment files. Damage
        semantics match the previous whole-file scan: a short magic or
        torn frame is a truncated tail only on the newest segment, any
        CRC/decode failure ends that segment's scan, and
        ``bytes_scanned`` counts the bytes actually read.
        """
        with path.open("rb") as fh:
            magic = fh.read(len(SEGMENT_MAGIC))
            load.bytes_scanned += len(magic)
            if len(magic) < len(SEGMENT_MAGIC):
                if is_last:
                    load.truncated_tail = True
                else:
                    load.corrupt_segments += 1
                return
            if magic != SEGMENT_MAGIC:
                load.corrupt_segments += 1
                return
            while True:
                header = fh.read(_FRAME_HEADER.size)
                if not header:
                    return  # clean end of segment
                load.bytes_scanned += len(header)
                if len(header) < _FRAME_HEADER.size:
                    if is_last:
                        load.truncated_tail = True
                    else:
                        load.corrupt_segments += 1
                    return
                length, crc = _FRAME_HEADER.unpack(header)
                body = fh.read(length)
                load.bytes_scanned += len(body)
                if len(body) < length:
                    if is_last:
                        load.truncated_tail = True
                    else:
                        load.corrupt_segments += 1
                    return
                if zlib.crc32(body) != crc:
                    load.corrupt_segments += 1
                    return
                try:
                    record, _ = decode_message(body)
                except ProtocolError:
                    record = None
                if not isinstance(record, BatchRecord):
                    load.corrupt_segments += 1
                    return
                by_seq[record.batch_seq] = (record, _FRAME_HEADER.size + length)

    # -- fault injection (FaultLab torn_write / corrupt_segment) -------------------

    def damage_torn_write(self, nbytes: int = 64) -> Optional[Path]:
        """Truncate the tail of the newest non-empty segment, as a crash
        mid-append would; rolls to a fresh segment so later appends never
        touch the damaged file. Returns the damaged path (None if there
        was nothing to damage)."""
        target = self._newest_record_segment()
        if target is None:
            return None
        self._quarantine_current()
        torn_write_file(target, nbytes)
        return target

    def damage_corrupt_segment(self, offset: Optional[int] = None) -> Optional[Path]:
        """Flip one byte inside the newest non-empty segment (bit rot /
        hostile storage). Default offset lands in the first record's body,
        guaranteeing a CRC mismatch on the next load."""
        target = self._newest_record_segment()
        if target is None:
            return None
        self._quarantine_current()
        if offset is None:
            offset = len(SEGMENT_MAGIC) + _FRAME_HEADER.size
        flip_byte(target, offset)
        return target

    def damage_crash_during_compaction(self, stage: int = 2) -> Optional[Path]:
        """Leave the on-disk artifacts of a crash mid-compaction-swap.

        ``stage`` picks the crash window: 1 = after the compacted temp
        copy was written, 2 = after the original was quarantined, 3 =
        after the temp was renamed into place (cleanup never ran). The
        next open must repair to exactly one intact copy.
        """
        target = self._newest_record_segment()
        if target is None:
            return None
        self._quarantine_current()
        interrupt_compaction_files(target, stage)
        return target

    def damage_crash_mid_delta(self) -> Optional[Path]:
        """Damage the newest checkpoint-delta file as a crash or bit rot
        would: its tail is torn off, so verification fails, the chain is
        cut, and recovery must fall back to the full snapshot. With no
        delta on disk, an orphan ``.tmp`` is left instead (the
        crash-before-rename window), which load() must ignore."""
        self._quarantine_current()
        deltas = sorted(_delta_files(self.checkpoints_dir), key=lambda pof: pof[1])
        if deltas:
            target = deltas[-1][0]
            torn_write_file(target, nbytes=max(32, target.stat().st_size // 2))
            return target
        orphan = self.checkpoints_dir / "delta-000000000000-000000000000.tmp"
        orphan.write_bytes(DELTA_MAGIC)
        return orphan

    def _newest_record_segment(self) -> Optional[Path]:
        if self._fh is not None:
            self._fh.flush()
        for path in sorted(self.segments_dir.glob("seg-*.log"), reverse=True):
            if path.stat().st_size > len(SEGMENT_MAGIC):
                return path
        return None

    def _quarantine_current(self) -> None:
        """Seal the live segment (without fsync — the damage models a
        crash) and start a fresh one, so post-damage appends are clean."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
        self._segment_index += 1
        self._fh = open(self._segment_path(self._segment_index), "ab")
        if self._fh.tell() == 0:
            self._fh.write(SEGMENT_MAGIC)
        self._fh.flush()


# ---------------------------------------------------------------------------
# module-level helpers (shared with the live fault injector and the CLI)
# ---------------------------------------------------------------------------


def torn_write_file(path, nbytes: int = 64) -> None:
    """Truncate up to ``nbytes`` off the end of ``path`` (>= header)."""
    path = Path(path)
    size = path.stat().st_size
    keep = max(len(SEGMENT_MAGIC) - 1, size - max(1, nbytes))
    with open(path, "rb+") as fh:
        fh.truncate(keep)


def flip_byte(path, offset: int) -> None:
    """XOR one byte of ``path`` at ``offset`` (clamped into the file)."""
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        return
    offset = min(max(0, offset), size - 1)
    with open(path, "rb+") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


def interrupt_compaction_files(target, stage: int = 2) -> None:
    """Reproduce a crash mid-compaction-swap at the file level.

    Shared between :meth:`FileStore.damage_crash_during_compaction` (sim)
    and the live fault injector, which damages a SIGKILLed node's store
    directory directly. The "compacted" temp is a byte-for-byte copy —
    the repair path never inspects contents, only which files exist.
    """
    target = Path(target)
    if stage not in (1, 2, 3):
        raise ValueError(f"stage must be 1, 2 or 3 (got {stage})")
    tmp = target.with_name(target.name[: -len(".log")] + _COMPACT_TMP_SUFFIX)
    old = target.with_name(target.name + _COMPACT_OLD_SUFFIX)
    tmp.write_bytes(target.read_bytes())
    if stage >= 2:
        target.replace(old)
    if stage >= 3:
        tmp.replace(target)


def _checkpoint_files(directory: Path) -> List[Tuple[Path, int]]:
    found: List[Tuple[Path, int]] = []
    for path in directory.glob("ckpt-*"):
        if path.suffix == ".tmp":
            continue
        try:
            found.append((path, int(path.name.split("-")[1])))
        except (IndexError, ValueError):
            continue
    return found


def _verify_checkpoint_bytes(data: bytes) -> Optional[CheckpointMsg]:
    message = _verify_framed_bytes(data, CHECKPOINT_MAGIC)
    return message if isinstance(message, CheckpointMsg) else None


def _delta_files(directory: Path) -> List[Tuple[Path, int, int]]:
    """(path, ordinal, full_ordinal) for every finished delta file."""
    found: List[Tuple[Path, int, int]] = []
    for path in directory.glob("delta-*"):
        if path.suffix == ".tmp":
            continue
        parts = path.name.split("-")
        try:
            found.append((path, int(parts[1]), int(parts[2])))
        except (IndexError, ValueError):
            continue
    return found


def _verify_delta_bytes(data: bytes) -> Optional[CheckpointDeltaMsg]:
    message = _verify_framed_bytes(data, DELTA_MAGIC)
    return message if isinstance(message, CheckpointDeltaMsg) else None


def _verify_framed_bytes(data: bytes, magic: bytes):
    if not data.startswith(magic):
        return None
    offset = len(magic)
    if offset + _FRAME_HEADER.size > len(data):
        return None
    length, crc = _FRAME_HEADER.unpack_from(data, offset)
    body = data[offset + _FRAME_HEADER.size : offset + _FRAME_HEADER.size + length]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        message, _ = decode_message(body)
    except ProtocolError:
        return None
    return message


def _scan_segment_max_seq(path: Path) -> Optional[int]:
    """Max batch_seq of a sealed segment via a header-only scan.

    Reads each frame header plus a few body bytes (the codec tag and the
    leading batch_seq varint), seeking over the rest. Returns None if the
    scan hits anything unreadable — the caller then keeps the segment.
    """
    max_seq: Optional[int] = None
    try:
        with open(path, "rb") as fh:
            if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
                return None
            size = path.stat().st_size
            while fh.tell() < size:
                header = fh.read(_FRAME_HEADER.size)
                if len(header) < _FRAME_HEADER.size:
                    return None
                length, _crc = _FRAME_HEADER.unpack_from(header, 0)
                if fh.tell() + length > size:
                    return None
                peek = fh.read(min(length, 16))
                seq = _peek_batch_seq(peek)
                if seq is None:
                    return None
                max_seq = seq if max_seq is None else max(max_seq, seq)
                fh.seek(length - len(peek), os.SEEK_CUR)
    except OSError:
        return None
    return max_seq


def _scan_segment_seqs(path: Path) -> Optional[frozenset]:
    """All batch_seqs of a sealed segment via a header-only scan.

    Same discipline as :func:`_scan_segment_max_seq`: None on anything
    unreadable, so callers treat the segment conservatively.
    """
    seqs: set = set()
    try:
        with open(path, "rb") as fh:
            if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
                return None
            size = path.stat().st_size
            while fh.tell() < size:
                header = fh.read(_FRAME_HEADER.size)
                if len(header) < _FRAME_HEADER.size:
                    return None
                length, _crc = _FRAME_HEADER.unpack_from(header, 0)
                if fh.tell() + length > size:
                    return None
                peek = fh.read(min(length, 16))
                seq = _peek_batch_seq(peek)
                if seq is None:
                    return None
                seqs.add(seq)
                fh.seek(length - len(peek), os.SEEK_CUR)
    except OSError:
        return None
    return frozenset(seqs)


def _scan_segment_frames(path: Path) -> Optional[List[Tuple[int, bytes]]]:
    """CRC-verified (batch_seq, frame) pairs of one segment, in file
    order; None if any frame fails verification (the compactor must never
    rewrite — and thereby launder — a damaged segment)."""
    frames: List[Tuple[int, bytes]] = []
    try:
        with open(path, "rb") as fh:
            if fh.read(len(SEGMENT_MAGIC)) != SEGMENT_MAGIC:
                return None
            while True:
                header = fh.read(_FRAME_HEADER.size)
                if not header:
                    return frames
                if len(header) < _FRAME_HEADER.size:
                    return None
                length, crc = _FRAME_HEADER.unpack(header)
                body = fh.read(length)
                if len(body) < length or zlib.crc32(body) != crc:
                    return None
                try:
                    record, _ = decode_message(body)
                except ProtocolError:
                    return None
                if not isinstance(record, BatchRecord):
                    return None
                frames.append((record.batch_seq, header + body))
    except OSError:
        return None


#: Sentinel distinguishing "never scanned" from "scanned, unreadable".
_UNSCANNED = object()


def _peek_batch_seq(body_prefix: bytes) -> Optional[int]:
    """The leading batch_seq varint of an encoded BatchRecord body."""
    if not body_prefix:
        return None
    value = 0
    shift = 0
    for byte in body_prefix[1:]:  # skip the codec tag byte
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 70:
            return None
    return None
