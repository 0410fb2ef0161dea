"""Merkle trees over update digests (BatchLab, Section V-A batching).

A batch of client updates is certified by one threshold signature over
the Merkle root of the updates' digests; each update then carries a
logarithmic inclusion proof, so a verifier (a client proxy checking a
batched response, a storage replica auditing a batch) can tie one update
to the batch signature without seeing its siblings.

Construction: SHA-256 with domain separation between leaves and interior
nodes (``0x00`` / ``0x01`` prefixes), so a leaf can never be reinterpreted
as a node — the classic second-preimage defence. Odd nodes are promoted
unchanged to the next level (no duplication, so no CVE-2012-2459-style
ambiguity between a tree and its padded twin).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import CryptoError

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def _levels(leaves: Sequence[bytes]) -> List[List[bytes]]:
    if not leaves:
        raise CryptoError("cannot build a Merkle tree over zero leaves")
    level = [leaf_hash(leaf) for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        nxt: List[bytes] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(node_hash(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])  # odd node: promoted, not duplicated
        level = nxt
        levels.append(level)
    return levels


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root digest over ``leaves`` (raw leaf data, not pre-hashed)."""
    return _levels(leaves)[-1][0]


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf: its index plus the sibling path.

    ``path`` entries are ``(sibling_digest, sibling_is_right)`` from the
    leaf level upward. Levels where the node had no sibling (odd-width
    promotion) contribute no entry, which is why the index rides along:
    verification re-derives at each level whether a sibling is expected.
    """

    leaf_index: int
    path: Tuple[Tuple[bytes, bool], ...]


def merkle_proof(leaves: Sequence[bytes], index: int) -> MerkleProof:
    """Inclusion proof for ``leaves[index]`` against ``merkle_root(leaves)``."""
    levels = _levels(leaves)
    if not 0 <= index < len(levels[0]):
        raise CryptoError(f"leaf index {index} out of range")
    path: List[Tuple[bytes, bool]] = []
    position = index
    for level in levels[:-1]:
        sibling = position ^ 1
        if sibling < len(level):
            path.append((level[sibling], sibling > position))
        position //= 2
    return MerkleProof(leaf_index=index, path=tuple(path))


def verify_inclusion(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf`` (raw data) sits at ``proof.leaf_index`` under
    ``root``. Robust against truncated or reordered paths: any tampering
    changes the recomputed root."""
    if proof.leaf_index < 0:
        return False
    digest = leaf_hash(leaf)
    for sibling, sibling_is_right in proof.path:
        if sibling_is_right:
            digest = node_hash(digest, sibling)
        else:
            digest = node_hash(sibling, digest)
    return digest == root
