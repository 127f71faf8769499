"""Wire codec for all cluster, client and control-plane messages.

Every message travels as one struct-packed binary *envelope*: a fixed header
``magic(0xB2) version sender(i64)``, a one-byte type id, then the message's
fields in a fixed positional layout.  There is exactly one format, so
nothing is negotiated: the header's version byte is the protocol version,
and :func:`decode_envelope` refuses any other value with ``unsupported wire
version`` — a peer built against a different layout fails on its first
frame instead of being misread.  The layout is positional, not
field-extensible; an incompatible change bumps :data:`PROTOCOL_VERSION`.

Free-form dict fields (transaction and block metadata, the status reply's
stage breakdown, metrics snapshots) are carried as length-prefixed canonical
JSON inside the binary layout.

Several envelopes can share one length-prefixed frame as a *super-frame*
(see :mod:`repro.runtime.framing`); :func:`decode_envelopes` accepts both a
plain envelope and a super-frame.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable

from repro.cluster.messages import ClientReply, ClientRequest
from repro.errors import NetworkError
from repro.runtime.framing import SUPER_FRAME_MAGIC, FrameError, split_super_frame
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.crypto.signatures import Signature
from repro.sb.pbft.messages import (
    CheckpointMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)

#: The one wire protocol version: the second byte of every envelope.  The
#: previous layouts (a JSON envelope, and a binary header with a payload
#: mode byte) used 1 and 2, so their frames are refused, never misread.
PROTOCOL_VERSION = 3


class WireCodecError(NetworkError):
    """A frame could not be encoded or decoded."""


# -- primitives -----------------------------------------------------------------

#: First byte of every envelope.
_MAGIC = 0xB2

_HEADER = struct.Struct(">BBq")  # magic, version, sender
_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_B_TX_FIXED = struct.Struct(">BI")  # tx_type index, payload_size
_B_OPERATION = struct.Struct(">BqB")  # kind index, amount, object_type index
_B_BLOCK_FIXED = struct.Struct(">qqqq")  # instance, sn, proposer, epoch
_B_PBFT_HEADER = struct.Struct(">qqq")  # instance, view, sender

# Stable enum orderings for the positional layout (indices are wire format —
# append only, never reorder).  Encoders map members to indices with ``is``
# chains rather than dict lookups: Enum hashing is Python-level and slow.
_OP_KINDS = (
    OperationKind.INCREMENT,
    OperationKind.DECREMENT,
    OperationKind.ASSIGN,
    OperationKind.READ,
    OperationKind.CONTRACT_CALL,
)
_OBJ_TYPES = (ObjectType.OWNED, ObjectType.SHARED)
_TX_TYPES = (TransactionType.PAYMENT, TransactionType.CONTRACT)


#: Decoder-private fast constructors: a frozen dataclass pays one
#: ``object.__setattr__`` per field in ``__init__``; building the instance
#: dict directly skips that at ~4x the speed.  Only the decoders below use
#: these, and the round-trip property tests pin the results field-for-field
#: against the regular constructors.
_new_operation = ObjectOperation.__new__
_new_transaction = Transaction.__new__


def _make_operation(
    key: str, kind: OperationKind, amount: int, object_type: ObjectType
) -> ObjectOperation:
    op = _new_operation(ObjectOperation)
    # In-place dict update: rebinding ``__dict__`` itself would be routed
    # through the frozen dataclass ``__setattr__`` and refused.
    op.__dict__.update(
        key=key, kind=kind, amount=amount, object_type=object_type
    )
    return op


def _make_transaction(
    tx_id: str,
    operations: tuple[ObjectOperation, ...],
    tx_type: TransactionType,
    payload_size: int,
    client_id: str | None,
    signatures: dict[str, Signature],
    submitted_at: float | None,
    metadata: dict[str, Any],
) -> Transaction:
    tx = _new_transaction(Transaction)
    tx.__dict__ = {
        "tx_id": tx_id,
        "operations": operations,
        "tx_type": tx_type,
        "payload_size": payload_size,
        "client_id": client_id,
        "signatures": signatures,
        "submitted_at": submitted_at,
        "metadata": metadata,
    }
    return tx


def _w_str(out: list[bytes], value: str) -> None:
    data = value.encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _r_str(buf: bytes, off: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(buf, off)
    off += 4
    end = off + length
    return buf[off:end].decode("utf-8"), end


#: Pre-rendered empty dict — the overwhelmingly common case for metadata
#: and stage-breakdown maps, fast-pathed on both sides.
_EMPTY_JSON_DICT = _U32.pack(2) + b"{}"
_U32_ZERO = _U32.pack(0)


def _w_json(out: list[bytes], value: dict[str, Any]) -> None:
    """Length-prefixed canonical JSON (used for free-form dict fields)."""
    if not value:
        out.append(_EMPTY_JSON_DICT)
        return
    data = json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    out.append(_U32.pack(len(data)))
    out.append(data)


def _r_json(buf: bytes, off: int) -> tuple[Any, int]:
    (length,) = _U32.unpack_from(buf, off)
    off += 4
    end = off + length
    if length == 2 and buf[off:end] == b"{}":
        return {}, end
    return json.loads(buf[off:end].decode("utf-8")), end


def _w_signature(out: list[bytes], signature: Signature) -> None:
    _w_str(out, signature.signer)
    _w_str(out, signature.message_digest)
    _w_str(out, signature.value)


def _r_signature(buf: bytes, off: int) -> tuple[Signature, int]:
    signer, off = _r_str(buf, off)
    message_digest, off = _r_str(buf, off)
    value, off = _r_str(buf, off)
    return Signature(signer=signer, message_digest=message_digest, value=value), off


def _b_enc_transaction(out: list[bytes], tx: Transaction) -> None:
    # The single hottest encoder (every block carries dozens): string writes
    # are inlined rather than routed through _w_str.
    append = out.append
    pack_u32 = _U32.pack
    data = tx.tx_id.encode("utf-8")
    append(pack_u32(len(data)))
    append(data)
    append(
        _B_TX_FIXED.pack(
            0 if tx.tx_type is TransactionType.PAYMENT else 1, tx.payload_size
        )
    )
    if tx.client_id is None:
        append(b"\x00")
    else:
        append(b"\x01")
        data = tx.client_id.encode("utf-8")
        append(pack_u32(len(data)))
        append(data)
    if tx.submitted_at is None:
        append(b"\x00")
    else:
        append(b"\x01")
        append(_F64.pack(tx.submitted_at))
    append(pack_u32(len(tx.operations)))
    pack_op = _B_OPERATION.pack
    # Identity chains instead of dict lookups: Enum.__hash__ and the .value
    # descriptor are Python-level and dominate tight encode loops, while
    # ``is`` against the interned members is a pointer comparison (ordered
    # by payment-path frequency).
    kind_increment = OperationKind.INCREMENT
    kind_decrement = OperationKind.DECREMENT
    kind_assign = OperationKind.ASSIGN
    kind_read = OperationKind.READ
    type_owned = ObjectType.OWNED
    for op in tx.operations:
        data = op.key.encode("utf-8")
        append(pack_u32(len(data)))
        append(data)
        kind = op.kind
        kind_id = (
            0
            if kind is kind_increment
            else 1
            if kind is kind_decrement
            else 2
            if kind is kind_assign
            else 3
            if kind is kind_read
            else 4
        )
        append(
            pack_op(kind_id, op.amount, 0 if op.object_type is type_owned else 1)
        )
    if tx.signatures:
        append(pack_u32(len(tx.signatures)))
        for holder, signature in tx.signatures.items():
            _w_str(out, holder)
            _w_signature(out, signature)
    else:
        append(_U32_ZERO)
    metadata = tx.metadata
    if metadata:
        _w_json(out, metadata)
    else:
        append(_EMPTY_JSON_DICT)


def _b_dec_transaction(buf: bytes, off: int) -> tuple[Transaction, int]:
    unpack_u32 = _U32.unpack_from
    (length,) = unpack_u32(buf, off)
    off += 4
    end = off + length
    tx_id = buf[off:end].decode("utf-8")
    off = end
    tx_type_index, payload_size = _B_TX_FIXED.unpack_from(buf, off)
    off += _B_TX_FIXED.size
    client_id: str | None = None
    if buf[off]:
        client_id, off = _r_str(buf, off + 1)
    else:
        off += 1
    submitted_at: float | None = None
    if buf[off]:
        (submitted_at,) = _F64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    (op_count,) = unpack_u32(buf, off)
    off += 4
    operations = []
    add_operation = operations.append
    unpack_op = _B_OPERATION.unpack_from
    op_size = _B_OPERATION.size
    for _ in range(op_count):
        (length,) = unpack_u32(buf, off)
        off += 4
        end = off + length
        key = buf[off:end].decode("utf-8")
        off = end
        kind_index, amount, type_index = unpack_op(buf, off)
        off += op_size
        add_operation(
            _make_operation(key, _OP_KINDS[kind_index], amount, _OBJ_TYPES[type_index])
        )
    (sig_count,) = unpack_u32(buf, off)
    off += 4
    signatures: dict[str, Signature] = {}
    for _ in range(sig_count):
        holder, off = _r_str(buf, off)
        signatures[holder], off = _r_signature(buf, off)
    if buf[off : off + 6] == _EMPTY_JSON_DICT:
        metadata: dict[str, Any] = {}
        off += 6
    else:
        metadata, off = _r_json(buf, off)
    return (
        _make_transaction(
            tx_id,
            tuple(operations),
            _TX_TYPES[tx_type_index],
            payload_size,
            client_id,
            signatures,
            submitted_at,
            metadata,
        ),
        off,
    )


def _b_enc_block(out: list[bytes], block: Block) -> None:
    out.append(
        _B_BLOCK_FIXED.pack(
            block.instance, block.sequence_number, block.proposer, block.epoch
        )
    )
    if block.rank is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(_I64.pack(block.rank))
    state = block.state.sequence_numbers
    out.append(_U32.pack(len(state)))
    out.append(struct.pack(f">{len(state)}q", *state))
    if block.signature is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        _w_signature(out, block.signature)
    _w_json(out, block.metadata)
    out.append(_U32.pack(len(block.transactions)))
    for tx in block.transactions:
        _b_enc_transaction(out, tx)


def _b_dec_block(buf: bytes, off: int) -> tuple[Block, int]:
    instance, sequence_number, proposer, epoch = _B_BLOCK_FIXED.unpack_from(buf, off)
    off += _B_BLOCK_FIXED.size
    rank: int | None = None
    if buf[off]:
        (rank,) = _I64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    (state_len,) = _U32.unpack_from(buf, off)
    off += 4
    state = struct.unpack_from(f">{state_len}q", buf, off)
    off += 8 * state_len
    signature: Signature | None = None
    if buf[off]:
        signature, off = _r_signature(buf, off + 1)
    else:
        off += 1
    metadata, off = _r_json(buf, off)
    (tx_count,) = _U32.unpack_from(buf, off)
    off += 4
    transactions = []
    for _ in range(tx_count):
        tx, off = _b_dec_transaction(buf, off)
        transactions.append(tx)
    return (
        Block(
            instance=instance,
            sequence_number=sequence_number,
            transactions=tuple(transactions),
            state=SystemState(state),
            proposer=proposer,
            epoch=epoch,
            rank=rank,
            signature=signature,
            metadata=metadata,
        ),
        off,
    )


def _w_opt_block(out: list[bytes], block: Block | None) -> None:
    if block is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        _b_enc_block(out, block)


def _r_opt_block(buf: bytes, off: int) -> tuple[Block | None, int]:
    if buf[off]:
        return _b_dec_block(buf, off + 1)
    return None, off + 1


def _w_block_pairs(out: list[bytes], pairs: tuple[tuple[int, Block], ...]) -> None:
    out.append(_U32.pack(len(pairs)))
    for sequence_number, block in pairs:
        out.append(_I64.pack(sequence_number))
        _b_enc_block(out, block)


def _r_block_pairs(buf: bytes, off: int) -> tuple[tuple[tuple[int, Block], ...], int]:
    (count,) = _U32.unpack_from(buf, off)
    off += 4
    pairs = []
    for _ in range(count):
        (sequence_number,) = _I64.unpack_from(buf, off)
        block, off = _b_dec_block(buf, off + 8)
        pairs.append((sequence_number, block))
    return tuple(pairs), off


# -- message layouts ----------------------------------------------


def _b_enc_client_request(out: list[bytes], msg: ClientRequest) -> None:
    out.append(_I64.pack(msg.client_node))
    _b_enc_transaction(out, msg.tx)


def _b_dec_client_request(buf: bytes, off: int) -> tuple[ClientRequest, int]:
    (client_node,) = _I64.unpack_from(buf, off)
    tx, off = _b_dec_transaction(buf, off + 8)
    return ClientRequest(tx=tx, client_node=client_node), off


def _b_enc_client_reply(out: list[bytes], msg: ClientReply) -> None:
    _w_str(out, msg.tx_id)
    out.append(_I64.pack(msg.replica))
    out.append(b"\x01" if msg.committed else b"\x00")
    if msg.confirmed_at is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(_F64.pack(msg.confirmed_at))


def _b_dec_client_reply(buf: bytes, off: int) -> tuple[ClientReply, int]:
    tx_id, off = _r_str(buf, off)
    (replica,) = _I64.unpack_from(buf, off)
    off += 8
    committed = bool(buf[off])
    off += 1
    confirmed_at: float | None = None
    if buf[off]:
        (confirmed_at,) = _F64.unpack_from(buf, off + 1)
        off += 1 + 8
    else:
        off += 1
    return (
        ClientReply(
            tx_id=tx_id, replica=replica, committed=committed, confirmed_at=confirmed_at
        ),
        off,
    )


_B_PBFT_WITH_SN = struct.Struct(">qqqq")  # instance, view, sender, sequence_number


def _b_enc_pre_prepare(out: list[bytes], msg: PrePrepare) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_opt_block(out, msg.block)
    _w_str(out, msg.digest)


def _b_dec_pre_prepare(buf: bytes, off: int) -> tuple[PrePrepare, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    block, off = _r_opt_block(buf, off + _B_PBFT_WITH_SN.size)
    digest, off = _r_str(buf, off)
    return (
        PrePrepare(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            block=block,
            digest=digest,
        ),
        off,
    )


def _b_enc_prepare(out: list[bytes], msg: Prepare) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_str(out, msg.digest)


def _b_dec_prepare(buf: bytes, off: int) -> tuple[Prepare, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        Prepare(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            digest=digest,
        ),
        off,
    )


def _b_enc_commit(out: list[bytes], msg: Commit) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.sequence_number)
    )
    _w_str(out, msg.digest)


def _b_dec_commit(buf: bytes, off: int) -> tuple[Commit, int]:
    instance, view, sender, sequence_number = _B_PBFT_WITH_SN.unpack_from(buf, off)
    digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        Commit(
            instance=instance,
            view=view,
            sender=sender,
            sequence_number=sequence_number,
            digest=digest,
        ),
        off,
    )


def _b_enc_view_change(out: list[bytes], msg: ViewChange) -> None:
    out.append(
        _B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.last_delivered)
    )
    _w_block_pairs(out, msg.pending)


def _b_dec_view_change(buf: bytes, off: int) -> tuple[ViewChange, int]:
    instance, view, sender, last_delivered = _B_PBFT_WITH_SN.unpack_from(buf, off)
    pending, off = _r_block_pairs(buf, off + _B_PBFT_WITH_SN.size)
    return (
        ViewChange(
            instance=instance,
            view=view,
            sender=sender,
            last_delivered=last_delivered,
            pending=pending,
        ),
        off,
    )


def _b_enc_new_view(out: list[bytes], msg: NewView) -> None:
    out.append(_B_PBFT_HEADER.pack(msg.instance, msg.view, msg.sender))
    _w_block_pairs(out, msg.reproposals)


def _b_dec_new_view(buf: bytes, off: int) -> tuple[NewView, int]:
    instance, view, sender = _B_PBFT_HEADER.unpack_from(buf, off)
    reproposals, off = _r_block_pairs(buf, off + _B_PBFT_HEADER.size)
    return (
        NewView(instance=instance, view=view, sender=sender, reproposals=reproposals),
        off,
    )


def _b_enc_checkpoint(out: list[bytes], msg: CheckpointMessage) -> None:
    out.append(_B_PBFT_WITH_SN.pack(msg.instance, msg.view, msg.sender, msg.epoch))
    _w_str(out, msg.state_digest)


def _b_dec_checkpoint(buf: bytes, off: int) -> tuple[CheckpointMessage, int]:
    instance, view, sender, epoch = _B_PBFT_WITH_SN.unpack_from(buf, off)
    state_digest, off = _r_str(buf, off + _B_PBFT_WITH_SN.size)
    return (
        CheckpointMessage(
            instance=instance,
            view=view,
            sender=sender,
            epoch=epoch,
            state_digest=state_digest,
        ),
        off,
    )


#: Type registry: class -> (type id, encoder) and type id -> decoder.
#: Type ids are wire format — never reuse or renumber.  Ids 1-15 are reserved
#: for consensus/client messages, 16+ for the control plane and extensions.
_ENCODERS: dict[type, tuple[int, Callable[[list[bytes], Any], None]]] = {}
_DECODERS: dict[int, Callable[[bytes, int], tuple[Any, int]]] = {}


def register_wire_type(
    cls: type,
    type_id: int,
    encoder: Callable[[list[bytes], Any], None],
    decoder: Callable[[bytes, int], tuple[Any, int]],
) -> None:
    """Register a message type's layout (used by the control plane).

    ``encoder(out, message)`` appends the message's fields to ``out``;
    ``decoder(buf, offset)`` returns ``(message, end offset)``.
    """
    if not 0 < type_id < 256:
        raise ValueError(f"wire type id {type_id} outside u8 range")
    existing = _DECODERS.get(type_id)
    if existing is not None and _ENCODERS.get(cls, (None,))[0] != type_id:
        raise ValueError(f"wire type id {type_id} already registered")
    _ENCODERS[cls] = (type_id, encoder)
    _DECODERS[type_id] = decoder


for _cls, _type_id, _enc, _dec in (
    (ClientRequest, 1, _b_enc_client_request, _b_dec_client_request),
    (ClientReply, 2, _b_enc_client_reply, _b_dec_client_reply),
    (PrePrepare, 3, _b_enc_pre_prepare, _b_dec_pre_prepare),
    (Prepare, 4, _b_enc_prepare, _b_dec_prepare),
    (Commit, 5, _b_enc_commit, _b_dec_commit),
    (ViewChange, 6, _b_enc_view_change, _b_dec_view_change),
    (NewView, 7, _b_enc_new_view, _b_dec_new_view),
    (CheckpointMessage, 8, _b_enc_checkpoint, _b_dec_checkpoint),
):
    register_wire_type(_cls, _type_id, _enc, _dec)


# -- envelope ----------------------------------------------------------------


def encode_envelope(sender: int, message: Any) -> bytes:
    """Serialise ``message`` from ``sender`` into one envelope."""
    entry = _ENCODERS.get(type(message))
    if entry is None:
        raise WireCodecError(
            f"no wire encoding registered for {type(message).__name__}"
        )
    type_id, encoder = entry
    out = [_HEADER.pack(_MAGIC, PROTOCOL_VERSION, sender), _U8.pack(type_id)]
    encoder(out, message)
    return b"".join(out)


def decode_envelope(data: bytes) -> tuple[int, Any]:
    """Deserialise one envelope, returning ``(sender, message)``."""
    if not data:
        raise WireCodecError("empty frame")
    try:
        magic, version, sender = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise WireCodecError(f"not a wire envelope (first byte {magic:#04x})")
        if version != PROTOCOL_VERSION:
            raise WireCodecError(
                f"unsupported wire version {version!r} "
                f"(this node speaks {PROTOCOL_VERSION})"
            )
        type_id = data[_HEADER.size]
        decoder = _DECODERS.get(type_id)
        if decoder is None:
            raise WireCodecError(f"unknown wire type id {type_id}")
        message, end = decoder(data, _HEADER.size + 1)
    except WireCodecError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError, ValueError, KeyError) as exc:
        raise WireCodecError(f"malformed frame: {exc}") from exc
    if end != len(data):
        raise WireCodecError(f"frame has {len(data) - end} trailing bytes")
    return sender, message


def decode_envelopes(data: bytes) -> list[tuple[int, Any]]:
    """Deserialise a frame payload into its ``(sender, message)`` pairs.

    A plain envelope yields one pair; a super-frame yields one per packed
    envelope, in order.
    """
    if data and data[0] == SUPER_FRAME_MAGIC:
        try:
            envelopes = split_super_frame(data)
        except FrameError as exc:
            raise WireCodecError(f"malformed super-frame: {exc}") from exc
        return [decode_envelope(envelope) for envelope in envelopes]
    return [decode_envelope(data)]
