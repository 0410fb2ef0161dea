"""Property tests: state deltas, compaction idempotence, damage taxonomy.

Three CompactLab contracts that must hold for *arbitrary* inputs, not
just the shapes the simulation happens to produce:

- ``diff_state``/``apply_delta`` are exact inverses on any pair of
  JSON-able state documents, and folding a chain of diffs with
  ``apply_chain`` reproduces the final document;
- compacting a FileStore is idempotent and never changes what ``load()``
  returns, for any append sequence (with duplicates) and stable point;
- damage classification is total: truncating the newest segment is
  always a torn tail (never corruption), and flipping any byte of a
  delta file's framed body always fails verification — a damaged delta
  can cut the chain but can never be *used*.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import BatchRecord, EncryptedUpdate, ResumePoint
from repro.core.statedelta import apply_chain, apply_delta, diff_state, is_empty_delta
from repro.store.filestore import (
    SEGMENT_MAGIC,
    FileStore,
    _delta_files,
    _verify_delta_bytes,
    flip_byte,
    torn_write_file,
)

# -- state documents --------------------------------------------------------

scalars = st.one_of(
    st.integers(-(2**31), 2**31),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)

#: JSON-able state documents with string keys, nested up to three deep —
#: the same shape family ``ExecutingReplica.state_doc`` produces.
documents = st.recursive(
    st.dictionaries(st.text(max_size=6), scalars, max_size=6),
    lambda children: st.dictionaries(
        st.text(max_size=6), st.one_of(scalars, children), max_size=6
    ),
    max_leaves=24,
)


class TestDiffApplyRoundTrip:
    @given(old=documents, new=documents)
    @settings(max_examples=200, deadline=None)
    def test_apply_of_diff_reproduces_new(self, old, new):
        assert apply_delta(old, diff_state(old, new)) == new

    @given(doc=documents)
    @settings(max_examples=100, deadline=None)
    def test_self_diff_is_empty(self, doc):
        assert is_empty_delta(diff_state(doc, doc))
        assert apply_delta(doc, {}) == doc

    @given(docs=st.lists(documents, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_chain_fold_reaches_final_document(self, docs):
        deltas = [
            diff_state(docs[i], docs[i + 1]) for i in range(len(docs) - 1)
        ]
        assert apply_chain(docs[0], deltas) == docs[-1]

    @given(old=documents, new=documents)
    @settings(max_examples=100, deadline=None)
    def test_diff_does_not_mutate_inputs(self, old, new):
        import copy

        old_copy, new_copy = copy.deepcopy(old), copy.deepcopy(new)
        delta = diff_state(old, new)
        apply_delta(old, delta)
        assert old == old_copy and new == new_copy


# -- compaction idempotence -------------------------------------------------


def _record(seq: int) -> BatchRecord:
    return BatchRecord(
        batch_seq=seq,
        resume=ResumePoint(batch_seq=seq, ordinal=seq, ordered_through=()),
        entries=(
            (seq, EncryptedUpdate(alias="abcd" * 4, client_seq=seq,
                                  ciphertext=b"\x02" * 600)),
        ),
    )


def _snapshot(store: FileStore):
    load = store.load()
    return (
        [r.batch_seq for r in load.records],
        load.corrupt_segments,
        load.truncated_tail,
    )


class TestCompactionIdempotence:
    @given(
        seqs=st.lists(st.integers(1, 30), min_size=1, max_size=40),
        stable=st.integers(0, 30),
        budget=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_compact_preserves_load_and_is_idempotent(
        self, tmp_path_factory, seqs, stable, budget
    ):
        root = tmp_path_factory.mktemp("prop-store")
        store = FileStore(root, fsync="never", segment_bytes=4096)
        try:
            for seq in seqs:
                store.append(_record(seq))
            store.gc(stable_ordinal=0, stable_seq=stable)
            # What survives GC + the stable point is the live contract.
            expected = [s for s in _snapshot(store)[0] if s >= stable]
            store.compact(budget_segments=budget)
            first = _snapshot(store)
            assert [s for s in first[0] if s >= stable] == expected
            assert first[1] == 0 and not first[2]
            # Drain the budgeted compactor, then prove a further pass
            # neither drops records nor rewrites files.
            while store.compact(budget_segments=budget)["segments"]:
                pass
            drained = _snapshot(store)
            sizes = sorted(
                (p.name, p.stat().st_size)
                for p in store.segments_dir.glob("seg-*.log")
            )
            again = store.compact(budget_segments=budget)
            assert again["segments"] == 0 and again["records_dropped"] == 0
            assert _snapshot(store) == drained
            assert sizes == sorted(
                (p.name, p.stat().st_size)
                for p in store.segments_dir.glob("seg-*.log")
            )
        finally:
            store.close()


# -- damage taxonomy --------------------------------------------------------


class TestDamageClassification:
    @given(
        count=st.integers(1, 8),
        torn=st.integers(1, 4096),
    )
    @settings(max_examples=25, deadline=None)
    def test_truncated_newest_segment_is_always_torn(
        self, tmp_path_factory, count, torn
    ):
        root = tmp_path_factory.mktemp("torn-store")
        store = FileStore(root, fsync="never", segment_bytes=1 << 20)
        for seq in range(1, count + 1):
            store.append(_record(seq))
        store.close()
        newest = sorted(store.segments_dir.glob("seg-*.log"))[-1]
        before = newest.stat().st_size
        torn_write_file(newest, nbytes=torn)
        load = FileStore(root, fsync="never").load()
        # Whatever the cut point, the newest segment's damage must read
        # as a survivable torn tail (or a clean shorter prefix), never as
        # corruption — and the surviving prefix stays in order.
        assert load.corrupt_segments == 0
        if newest.stat().st_size < before:
            # The surviving records are a contiguous prefix of what was
            # appended — truncation can only ever eat from the tail.
            seqs = [r.batch_seq for r in load.records]
            assert seqs == list(range(1, len(seqs) + 1))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_flipped_delta_byte_fails_verification(
        self, tmp_path_factory, data
    ):
        from repro.core.confidentiality import Sensitive
        from repro.core.messages import CheckpointDeltaMsg

        root = tmp_path_factory.mktemp("delta-store")
        store = FileStore(root, fsync="never")
        message = CheckpointDeltaMsg(
            ordinal=50,
            base_ordinal=25,
            full_ordinal=25,
            resume=ResumePoint(batch_seq=9, ordinal=50, ordered_through=()),
            blob=Sensitive(b'{"set":{"a":1}}', label="state-delta"),
            signer="cc-a-r0",
        )
        store.save_delta(message)
        store.close()
        path, _ordinal, _full = _delta_files(store.checkpoints_dir)[0]
        assert _verify_delta_bytes(path.read_bytes()) is not None
        offset = data.draw(
            st.integers(0, path.stat().st_size - 1), label="offset"
        )
        flip_byte(path, offset)
        assert _verify_delta_bytes(path.read_bytes()) is None
        load = FileStore(root, fsync="never").load()
        assert load.corrupt_deltas == 1
        assert not load.deltas
