"""Property tests for ClientProgress (out-of-order execution dedup)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executing import ClientProgress


def test_basic_marking():
    progress = ClientProgress()
    assert not progress.is_executed(1)
    progress.mark(1)
    assert progress.is_executed(1)
    assert progress.contiguous == 1


def test_out_of_order_compaction():
    progress = ClientProgress()
    progress.mark(3)
    assert progress.contiguous == 0
    assert progress.extras == {3}
    progress.mark(1)
    progress.mark(2)
    assert progress.contiguous == 3
    assert progress.extras == set()


def test_high_watermark_with_holes():
    progress = ClientProgress()
    progress.mark(1)
    progress.mark(5)
    assert progress.high_watermark == 5
    assert not progress.is_executed(3)


def test_double_mark_is_idempotent():
    progress = ClientProgress()
    progress.mark(2)
    progress.mark(2)
    assert progress.extras == {2}


@given(st.lists(st.integers(1, 40), max_size=60))
@settings(max_examples=100)
def test_marks_match_reference_set(seqs):
    progress = ClientProgress()
    reference = set()
    for seq in seqs:
        progress.mark(seq)
        reference.add(seq)
    for seq in range(1, 45):
        assert progress.is_executed(seq) == (seq in reference)
    assert progress.high_watermark == (max(reference) if reference else 0)


@given(st.lists(st.integers(1, 40), max_size=60))
@settings(max_examples=60)
def test_compaction_invariant(seqs):
    progress = ClientProgress()
    for seq in seqs:
        progress.mark(seq)
    # Everything at or below `contiguous` executed; nothing in extras is.
    assert (progress.contiguous + 1) not in progress.extras
    assert all(extra > progress.contiguous for extra in progress.extras)


@given(st.lists(st.integers(1, 40), max_size=60))
@settings(max_examples=60)
def test_state_roundtrip(seqs):
    progress = ClientProgress()
    for seq in seqs:
        progress.mark(seq)
    restored = ClientProgress.from_state(progress.to_state())
    assert restored.contiguous == progress.contiguous
    assert restored.extras == progress.extras


def test_from_state_compacts():
    # A state written by an older replica with an uncompacted shape still
    # loads into canonical form.
    progress = ClientProgress.from_state([0, [1, 2, 3, 7]])
    assert progress.contiguous == 3
    assert progress.extras == {7}
