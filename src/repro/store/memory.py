"""The simulation's store: append and forget, like the RAM it models.

The deterministic simulation models a crash as losing *everything* except
hardware-protected keys (``ReplicaBase.recover`` wipes all session
state). A store that handed data back after such a crash would change
recovery behaviour — and therefore traces — for every existing seed. So
:meth:`MemoryStore.load` always reports an empty store: the in-memory
deployment keeps its byte-identical traces, while the appended data stays
inspectable for tests and for GC accounting.
"""

from __future__ import annotations

from typing import Dict

from repro.core.messages import BatchRecord, CheckpointDeltaMsg, CheckpointMsg
from repro.net.codec import encoded_size
from repro.obs.registry import NULL_METRICS
from repro.store.base import DurableStore, StoreLoad


class MemoryStore(DurableStore):
    """Volatile store: retains writes for introspection, recovers nothing."""

    persistent = False

    def __init__(self, metrics=NULL_METRICS, host: str = ""):
        self.records: Dict[int, BatchRecord] = {}
        self.checkpoints: Dict[int, CheckpointMsg] = {}
        self.deltas: Dict[int, CheckpointDeltaMsg] = {}
        self._m_append = metrics.counter("store.append_records", host=host)
        self._m_ckpt = metrics.counter("store.checkpoints_saved", host=host)
        # CompactLab families are created eagerly on every store so the
        # Prometheus export carries them in every bundle (check_obs_export
        # enforces the family whenever any store_* sample is present).
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

    def append(self, record: BatchRecord) -> int:
        self.records[record.batch_seq] = record
        self._m_append.inc()
        return encoded_size(record)

    def save_checkpoint(self, message: CheckpointMsg) -> int:
        self.checkpoints[message.ordinal] = message
        self._m_ckpt.inc()
        return encoded_size(message)

    def save_delta(self, message: CheckpointDeltaMsg) -> int:
        self.deltas[message.ordinal] = message
        self._m_delta_saved.inc()
        size = encoded_size(message)
        self._m_delta_bytes.inc(size)
        return size

    def gc(self, stable_ordinal: int, stable_seq: int) -> None:
        for seq in [s for s in self.records if s < stable_seq]:
            del self.records[seq]
        # Chain-aware retention: the newest full at/below the stable point
        # anchors any deltas above it, so it must survive its own GC.
        anchors = [o for o in self.checkpoints if o <= stable_ordinal]
        keep_full = max(anchors) if anchors else None
        for ordinal in [
            o for o in self.checkpoints if keep_full is not None and o < keep_full
        ]:
            del self.checkpoints[ordinal]
        for ordinal in [
            o
            for o, d in self.deltas.items()
            if keep_full is not None and d.full_ordinal < keep_full
        ]:
            del self.deltas[ordinal]

    def compact(self, budget_segments: int = 1) -> Dict[str, int]:
        # Volatile store has no segment files; count the tick for the
        # metric family and report no work.
        self._m_compaction_runs.inc()
        return {"segments": 0, "records_dropped": 0, "bytes_reclaimed": 0}

    def load(self) -> StoreLoad:
        # Volatile RAM does not survive the modeled crash: recovery always
        # starts empty and catches up over the network, exactly as before
        # this store existed (the sim's trace byte-identity contract).
        return StoreLoad()
