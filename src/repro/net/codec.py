"""Binary wire codec for every protocol message.

The simulation passes Python objects between hosts for speed, but a
deployable system needs a wire format; this module defines one. The same
bytes are the live transport's frame body (``rt.wire``), the durable
log's record body (``store.filestore``) and the state-transfer payload.

Format: one tag byte selecting the message type, then the type's fields
in dataclass order. The whole format is the ``_MESSAGES`` table — one row
``(tag, dataclass, ((field_name, kind), ...))`` per type, compiled to
closures once at import. A field *kind* is a ``(write, read)`` pair and
the only place its layout and bounds checks live; malformed input raises
``ProtocolError`` and nothing else. The kinds:

- ``VARINT`` unsigned LEB128; ``BYTES`` varint length + raw bytes; ``STR``
  UTF-8 in a ``BYTES``; ``BIGINT`` big-endian magnitude in a ``BYTES``;
  ``FLAG`` one byte, 0 or 1,
- ``INT_MAP`` varint count + (``STR``, ``VARINT``) entries sorted by key,
  so encoding is canonical and encode(decode(x)) == x,
- ``seq(kind)`` / ``pairs(kind, kind)`` varint count + elements, decoded
  to tuples; ``optional(kind)`` a ``FLAG`` then the value if present,
- ``struct(cls, fields)`` an untagged inline record (every row is one),
- ``SENSITIVE`` label + data of a ``Sensitive``; ``BLOB`` a ``FLAG`` then
  ciphertext ``BYTES`` (0) or a ``SENSITIVE`` (1), so a decoded baseline
  checkpoint is still recognizably plaintext to the confidentiality auditor,
- ``NESTED`` a length-prefixed *tagged* message, so heterogeneous
  payloads (an ordered batch holds encrypted updates next to key
  proposals) decode without out-of-band type information; it must fill
  its length prefix exactly, and nesting depth is capped,
- ``OPAQUE`` the one hand-written record, ``OpaqueUpdate``: digest, size,
  then the payload as a ``NESTED`` whose bytes decode keeps in
  ``OpaqueUpdate.encoded``, so Prime, the intro layer and the store
  forward and persist an ordered update without re-encoding it.

Adding a message type is one row here plus one sample in
``tests/test_net_codec.py``, whose vector ``python -m tests.test_net_codec``
appends to ``tests/data/codec_vectors.json``. A vector that changes is a
wire and on-disk format change: see "Message encoding" in docs/RUNTIME.md.
"""

from __future__ import annotations

import threading
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.cache import FrameCache
from repro.core import messages as core
from repro.core.confidentiality import Sensitive
from repro.crypto.merkle import MerkleProof
from repro.crypto.threshold import PartialSignature, ShareProof
from repro.errors import ProtocolError
from repro.prime import messages as prime
from repro.shard import messages as shard

# -- primitives ---------------------------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ProtocolError(f"cannot encode negative varint {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    try:
        byte = data[offset]
        if byte < 0x80:  # one-byte values are the common case
            return byte, offset + 1
        result = byte & 0x7F
        shift = 7
        while True:
            offset += 1
            byte = data[offset]
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, offset + 1
            shift += 7
            if shift > 70:
                raise ProtocolError("varint too long")
    except IndexError:
        raise ProtocolError("truncated varint") from None


def write_bytes(out: bytearray, value: bytes) -> None:
    write_varint(out, len(value))
    out.extend(value)


def read_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    length, offset = read_varint(data, offset)
    if offset + length > len(data):
        raise ProtocolError("truncated byte string")
    return bytes(data[offset : offset + length]), offset + length


def write_str(out: bytearray, value: str) -> None:
    write_bytes(out, value.encode("utf-8"))


def read_str(data: bytes, offset: int) -> Tuple[str, int]:
    raw, offset = read_bytes(data, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError:
        raise ProtocolError("string is not valid UTF-8") from None


def write_int_map(out: bytearray, mapping) -> None:
    items = sorted(mapping.items())
    write_varint(out, len(items))
    for key, value in items:
        write_str(out, key)
        write_varint(out, value)


def read_int_map(data: bytes, offset: int) -> Tuple[Dict[str, int], int]:
    count, offset = read_varint(data, offset)
    mapping: Dict[str, int] = {}
    for _ in range(count):
        key, offset = read_str(data, offset)
        value, offset = read_varint(data, offset)
        mapping[key] = value
    return mapping, offset


# -- field kinds: (write(out, value), read(data, offset) -> (value, offset)) --

Kind = Tuple[Callable[[bytearray, Any], None], Callable[[bytes, int], Tuple[Any, int]]]


def _write_flag(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _read_flag(data: bytes, offset: int) -> Tuple[bool, int]:
    if offset >= len(data):
        raise ProtocolError("truncated flag byte")
    if data[offset] > 1:
        raise ProtocolError(f"flag byte {data[offset]} is neither 0 nor 1")
    return data[offset] == 1, offset + 1


def _write_bigint(out: bytearray, value: int) -> None:
    write_bytes(out, value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))


def _read_bigint(data: bytes, offset: int) -> Tuple[int, int]:
    raw, offset = read_bytes(data, offset)
    if not raw:
        raise ProtocolError("empty bigint")
    return int.from_bytes(raw, "big"), offset


def _write_sensitive(out: bytearray, value: Sensitive) -> None:
    write_str(out, value.label)
    write_bytes(out, value.data)


def _read_sensitive(data: bytes, offset: int) -> Tuple[Sensitive, int]:
    label, offset = read_str(data, offset)
    raw, offset = read_bytes(data, offset)
    return Sensitive(raw, label=label), offset


def _write_blob(out: bytearray, blob) -> None:
    """A blob is ciphertext bytes (0) or Sensitive plaintext (1)."""
    if isinstance(blob, Sensitive):
        out.append(1)
        _write_sensitive(out, blob)
    else:
        out.append(0)
        write_bytes(out, blob)


def _read_blob(data: bytes, offset: int):
    is_plaintext, offset = _read_flag(data, offset)
    return (_read_sensitive if is_plaintext else read_bytes)(data, offset)


# Legitimate nesting stops at 3 (state transfer -> batch record -> signed
# batch -> encrypted update); the cap makes a hostile tower of length
# prefixes a ProtocolError, not a RecursionError. Depth is per thread.
_MAX_NESTING = 8
_nesting = threading.local()


def _nested_message(raw: bytes) -> Any:
    depth = getattr(_nesting, "depth", 0)
    if depth >= _MAX_NESTING:
        raise ProtocolError("nested messages too deep")
    _nesting.depth = depth + 1
    try:
        message, end = decode_message(raw)
    finally:
        _nesting.depth = depth
    if end != len(raw):
        raise ProtocolError("nested message length mismatch")
    return message


def _write_nested(out: bytearray, message: Any) -> None:
    write_bytes(out, encode_message_cached(message))


def _read_nested(data: bytes, offset: int) -> Tuple[Any, int]:
    raw, offset = read_bytes(data, offset)
    return _nested_message(raw), offset


def _write_opaque(out: bytearray, update: prime.OpaqueUpdate) -> None:
    write_bytes(out, update.digest)
    write_varint(out, update.size)
    write_bytes(out, update.encoded or encode_message_cached(update.payload))


def _read_opaque(data: bytes, offset: int) -> Tuple[prime.OpaqueUpdate, int]:
    digest, offset = read_bytes(data, offset)
    size, offset = read_varint(data, offset)
    nested, offset = read_bytes(data, offset)
    return prime.OpaqueUpdate(digest, _nested_message(nested), size, nested), offset


VARINT: Kind = (write_varint, read_varint)
BYTES: Kind = (write_bytes, read_bytes)
STR: Kind = (write_str, read_str)
BIGINT: Kind = (_write_bigint, _read_bigint)
FLAG: Kind = (_write_flag, _read_flag)
INT_MAP: Kind = (write_int_map, read_int_map)
SENSITIVE: Kind = (_write_sensitive, _read_sensitive)
BLOB: Kind = (_write_blob, _read_blob)
NESTED: Kind = (_write_nested, _read_nested)
OPAQUE: Kind = (_write_opaque, _read_opaque)


def seq(kind: Kind) -> Kind:
    """Varint count + elements; decodes to a tuple."""
    write_item, read_item = kind

    def write(out, values):
        write_varint(out, len(values))
        for value in values:
            write_item(out, value)

    def read(data, offset):
        count, offset = read_varint(data, offset)
        values = []
        for _ in range(count):
            value, offset = read_item(data, offset)
            values.append(value)
        return tuple(values), offset

    return write, read


def pairs(first: Kind, second: Kind) -> Kind:
    """Varint count + (first, second) elements; decodes to a tuple of 2-tuples."""
    write_first, read_first = first
    write_second, read_second = second

    def write_pair(out, pair):
        write_first(out, pair[0])
        write_second(out, pair[1])

    def read_pair(data, offset):
        left, offset = read_first(data, offset)
        right, offset = read_second(data, offset)
        return (left, right), offset

    return seq((write_pair, read_pair))


def optional(kind: Kind) -> Kind:
    """Presence flag, then the value unless it is None."""
    write_value, read_value = kind

    def write(out, value):
        out.append(0 if value is None else 1)
        if value is not None:
            write_value(out, value)

    def read(data, offset):
        present, offset = _read_flag(data, offset)
        return read_value(data, offset) if present else (None, offset)

    return write, read


def struct(cls: Type, spec: Tuple[Tuple[str, Kind], ...]) -> Kind:
    """The fields of dataclass ``cls`` back to back, in dataclass order."""
    if tuple(name for name, _ in spec) != tuple(f.name for f in dataclass_fields(cls)):
        raise TypeError(f"{cls.__name__}: field spec does not match the dataclass fields")
    writers = tuple((name, kind[0]) for name, kind in spec)
    readers = tuple(kind[1] for _, kind in spec)

    def write(out, value):
        for name, write_field in writers:
            write_field(out, getattr(value, name))

    def read(data, offset):
        values = []
        for read_field in readers:
            value, offset = read_field(data, offset)
            values.append(value)
        return cls(*values), offset

    return write, read


# -- the wire format ----------------------------------------------------------

_PARTIAL = struct(PartialSignature, (
    ("signer", VARINT),
    ("value", BIGINT),
    ("proof", optional(struct(ShareProof, (("challenge", BIGINT), ("response", BIGINT))))),
))
_RESUME = struct(core.ResumePoint, (
    ("batch_seq", VARINT),
    ("ordinal", VARINT),
    ("ordered_through", pairs(STR, VARINT)),
))
_PROPOSAL = (
    ("view", VARINT),
    ("seq", VARINT),
    ("cutoffs", INT_MAP),
)
_CERTS = seq(struct(prime.PreparedCert, _PROPOSAL))
_MERKLE_PROOF = struct(MerkleProof, (
    ("leaf_index", VARINT),
    ("path", pairs(BYTES, FLAG)),
))

_VOTE = (
    ("view", VARINT),
    ("seq", VARINT),
    ("content_digest", BYTES),
)
_XFER_REQUEST = (
    ("requester", STR),
    ("nonce", VARINT),
    ("have_seq", VARINT),
    ("have_ordinal", VARINT),
)
_XSHARD_INTENT = (
    ("client_id", STR),
    ("client_seq", VARINT),
    ("home_shard", VARINT),
    ("targets", seq(VARINT)),
    ("body", BLOB),
)
_XSHARD_PREPARE = (
    ("client_id", STR),
    ("client_seq", VARINT),
    ("home_shard", VARINT),
    ("intent_digest", BYTES),
    ("cert_kind", VARINT),
    ("cert_sig", BYTES),
    ("batch_root", BYTES),
    ("batch_count", VARINT),
    ("proof", optional(_MERKLE_PROOF)),
)

_MESSAGES = (
    (1, prime.PoRequest, (
        ("origin", STR),
        ("seq", VARINT),
        ("update", OPAQUE),
    )),
    (2, prime.PoAck, (
        ("origin", STR),
        ("seq", VARINT),
        ("digest", BYTES),
    )),
    (3, prime.PoAru, (("vector", INT_MAP),)),
    (4, prime.PrePrepare, _PROPOSAL),
    (5, prime.Prepare, _VOTE),
    (6, prime.Commit, _VOTE),
    (7, prime.Heartbeat, (("view", VARINT),)),
    (8, prime.Suspect, (("target_view", VARINT),)),
    (9, prime.VcState, (
        ("view", VARINT),
        ("last_committed", VARINT),
        ("prepared", _CERTS),
    )),
    (10, prime.NewView, (
        ("view", VARINT),
        ("start_seq", VARINT),
        ("adopted", _CERTS),
    )),
    (11, prime.PoFetch, (("origin", STR), ("seq", VARINT))),
    (12, prime.PoFetchReply, (("request", NESTED),)),
    (13, prime.BatchFetch, (("seqs", seq(VARINT)),)),
    (14, prime.BatchFetchReply, (
        ("seq", VARINT),
        ("cutoffs", INT_MAP),
    )),
    # -- CP-ITM messages --------------------------------------------------------
    (20, core.ClientUpdate, (
        ("client_id", STR),
        ("client_seq", VARINT),
        ("body", SENSITIVE),
        ("signature", BYTES),
    )),
    (21, core.EncryptedUpdate, (
        ("alias", STR),
        ("client_seq", VARINT),
        ("ciphertext", BYTES),
        ("threshold_sig", BYTES),
    )),
    (22, core.IntroShare, (
        ("alias", STR),
        ("client_seq", VARINT),
        ("update_digest", BYTES),
        ("partial", _PARTIAL),
    )),
    (23, core.ResponseShare, (
        ("client_id", STR),
        ("client_seq", VARINT),
        ("response_digest", BYTES),
        ("partial", _PARTIAL),
    )),
    (24, core.ClientResponse, (
        ("client_id", STR),
        ("client_seq", VARINT),
        ("body", SENSITIVE),
        ("threshold_sig", BYTES),
    )),
    (25, core.KeyProposal, (
        ("alias", STR),
        ("range_start", VARINT),
        ("range_end", VARINT),
        ("proposer", STR),
        ("encrypted_seed", BYTES),
    )),
    (26, core.CheckpointMsg, (
        ("ordinal", VARINT),
        ("resume", _RESUME),
        ("blob", BLOB),
        ("signer", STR),
    )),
    (27, core.StateXferSolicit, _XFER_REQUEST),
    (28, core.XferRequest, _XFER_REQUEST),
    (29, core.BatchRecord, (
        ("batch_seq", VARINT),
        ("resume", _RESUME),
        ("entries", pairs(VARINT, NESTED)),
    )),
    (30, core.StateXferResponse, (
        ("requester", STR),
        ("nonce", VARINT),
        ("checkpoint", optional(NESTED)),
        ("batches", seq(NESTED)),
        ("view", VARINT),
        ("responder", STR),
        ("part_index", VARINT),
        ("part_count", VARINT),
        ("deltas", seq(NESTED)),
    )),
    (40, core.CheckpointDeltaMsg, (
        ("ordinal", VARINT),
        ("base_ordinal", VARINT),
        ("full_ordinal", VARINT),
        ("resume", _RESUME),
        ("blob", BLOB),
        ("signer", STR),
    )),
    # -- BatchLab messages ------------------------------------------------------
    (31, core.BatchProposal, (
        ("proposer", STR),
        ("batch_no", VARINT),
        ("items", seq(NESTED)),
    )),
    (32, core.BatchShare, (
        ("proposer", STR),
        ("batch_no", VARINT),
        ("root", BYTES),
        ("count", VARINT),
        ("partial", _PARTIAL),
    )),
    (33, core.SignedUpdateBatch, (
        ("root", BYTES),
        ("items", seq(NESTED)),
        ("threshold_sig", BYTES),
    )),
    (34, core.ResponseBatchShare, (
        ("root", BYTES),
        ("count", VARINT),
        ("partial", _PARTIAL),
    )),
    (35, core.CertifiedResponse, (
        ("client_id", STR),
        ("client_seq", VARINT),
        ("body", SENSITIVE),
        ("batch_root", BYTES),
        ("batch_count", VARINT),
        ("batch_sig", BYTES),
        ("proof", _MERKLE_PROOF),
    )),
    (36, shard.ShardMapAnnounce, (
        ("seed", VARINT),
        ("shards", VARINT),
        ("version", VARINT),
    )),
    (37, shard.CrossShardIntent, _XSHARD_INTENT),
    (38, shard.CrossShardPrepare, _XSHARD_PREPARE),
    (39, shard.CrossShardCommit, (
        ("intent", struct(shard.CrossShardIntent, _XSHARD_INTENT)),
        ("prepare", struct(shard.CrossShardPrepare, _XSHARD_PREPARE)),
    )),
)

_ENCODERS: Dict[Type, Tuple[int, Callable]] = {}
_DECODERS: Dict[int, Callable] = {}

for _tag, _message_type, _spec in _MESSAGES:
    _write, _DECODERS[_tag] = struct(_message_type, _spec)
    _ENCODERS[_message_type] = (_tag, _write)


def encode_message(message: Any) -> bytes:
    """Serialize any protocol message to bytes."""
    entry = _ENCODERS.get(type(message))
    if entry is None:
        raise ProtocolError(f"no codec for {type(message).__name__}")
    tag, encode = entry
    out = bytearray([tag])
    encode(out, message)
    return bytes(out)


def decode_message(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Deserialize one message; returns (message, next_offset)."""
    if offset >= len(data):
        raise ProtocolError("empty buffer")
    decode = _DECODERS.get(data[offset])
    if decode is None:
        raise ProtocolError(f"unknown message tag {data[offset]}")
    return decode(data, offset + 1)


# Identity-keyed memo for encode_message. Messages are frozen
# dataclasses, so a given object's encoding never changes; broadcast
# fan-outs, nested re-encodes (OpaqueUpdate / BatchRecord / state
# transfer), and encoded_size probes reuse the same bytes instead of
# re-serializing. Bounded LRU; entries pin the keyed object so ids
# cannot be recycled while an entry lives.
_PAYLOAD_CACHE = FrameCache(capacity=4096)
_payload_cache_enabled = True


def set_payload_cache_enabled(enabled: bool) -> bool:
    """Toggle the module-level payload cache; returns the previous
    setting. Disabling also clears the cache."""
    global _payload_cache_enabled
    previous = _payload_cache_enabled
    _payload_cache_enabled = bool(enabled)
    if not enabled:
        _PAYLOAD_CACHE.clear()
    return previous


def clear_payload_cache() -> None:
    _PAYLOAD_CACHE.clear()


def payload_cache_len() -> int:
    return len(_PAYLOAD_CACHE)


def encode_message_cached(message: Any) -> bytes:
    """``encode_message`` memoized on message object identity."""
    if not _payload_cache_enabled:
        return encode_message(message)
    return _PAYLOAD_CACHE.get_or_build(message, encode_message)


def encoded_size(message: Any) -> int:
    """Exact wire size of a message under this codec."""
    return len(encode_message_cached(message))


def registered_types() -> List[Type]:
    """All message types this codec can carry (for coverage tests)."""
    return sorted(_ENCODERS, key=lambda t: t.__name__)
