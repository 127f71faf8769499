"""Property-based round-trip tests for the live wire codec.

Every message type crossing the wire — the cluster's client messages, the
full PBFT family and every control-plane message — must survive
encode → decode exactly, and every malformed frame must be refused with a
:class:`WireCodecError` rather than misread.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import ClientReply, ClientRequest
from repro.crypto.signatures import Signature
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.runtime import codec
from repro.runtime.codec import (
    PROTOCOL_VERSION,
    WireCodecError,
    decode_envelope,
    encode_envelope,
    register_wire_type,
)
from repro.runtime.control import (
    Hello,
    LinkUpdate,
    MetricsReply,
    MetricsRequest,
    RecoveryReply,
    RecoveryRequest,
    ShutdownRequest,
    StatusReply,
    StatusRequest,
)
from repro.sb.pbft.messages import (
    CheckpointMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)

# -- strategies -------------------------------------------------------------

keys = st.text(min_size=1, max_size=12)
small_ints = st.integers(min_value=0, max_value=2**31)
i64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
frontiers = st.lists(st.integers(min_value=-1, max_value=2**31), max_size=4).map(
    tuple
)
times = st.none() | st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
json_metadata = st.dictionaries(
    keys=st.text(max_size=8),
    values=st.integers(min_value=-1000, max_value=1000) | st.text(max_size=8),
    max_size=3,
)

operations = st.builds(
    ObjectOperation,
    key=keys,
    kind=st.sampled_from(list(OperationKind)),
    amount=st.integers(min_value=-(2**40), max_value=2**40),
    object_type=st.sampled_from(list(ObjectType)),
)

signatures = st.builds(
    Signature,
    signer=keys,
    message_digest=st.text(alphabet="0123456789abcdef", min_size=8, max_size=16),
    value=st.text(alphabet="0123456789abcdef", min_size=8, max_size=16),
)

transactions = st.builds(
    Transaction,
    tx_id=st.text(min_size=1, max_size=20),
    operations=st.tuples(operations) | st.tuples(operations, operations),
    tx_type=st.sampled_from(list(TransactionType)),
    payload_size=st.integers(min_value=0, max_value=10_000),
    client_id=st.none() | keys,
    signatures=st.dictionaries(keys=keys, values=signatures, max_size=2),
    submitted_at=times,
    metadata=json_metadata,
)

system_states = st.builds(
    SystemState,
    sequence_numbers=st.lists(
        st.integers(min_value=-1, max_value=2**31), min_size=1, max_size=6
    ).map(tuple),
)

blocks = st.builds(
    Block,
    instance=small_ints,
    sequence_number=small_ints,
    transactions=st.lists(transactions, max_size=3).map(tuple),
    state=system_states,
    proposer=small_ints,
    epoch=small_ints,
    rank=st.none() | small_ints,
    signature=st.none() | signatures,
    metadata=json_metadata,
)

block_pairs = st.lists(st.tuples(small_ints, blocks), max_size=2).map(tuple)

digests = st.text(alphabet="0123456789abcdef", min_size=0, max_size=16)

messages = st.one_of(
    st.builds(ClientRequest, tx=transactions, client_node=small_ints),
    st.builds(
        ClientReply,
        tx_id=keys,
        replica=small_ints,
        committed=st.booleans(),
        confirmed_at=times,
    ),
    st.builds(
        PrePrepare,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        block=st.none() | blocks,
        digest=digests,
    ),
    st.builds(
        Prepare,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        digest=digests,
    ),
    st.builds(
        Commit,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        sequence_number=small_ints,
        digest=digests,
    ),
    st.builds(
        ViewChange,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        last_delivered=st.integers(min_value=-1, max_value=2**31),
        pending=block_pairs,
    ),
    st.builds(
        NewView,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        reproposals=block_pairs,
    ),
    st.builds(
        CheckpointMessage,
        instance=small_ints,
        view=small_ints,
        sender=small_ints,
        epoch=small_ints,
        state_digest=digests,
    ),
)


def assert_deep_equal(decoded, original) -> None:
    """Field-by-field equality, independent of the codec under test.

    Dataclass ``==`` is too weak here: ``Transaction`` compares by id only,
    so a block whose transactions lost their operations would still compare
    equal.  ``dataclasses.asdict`` expands every field, recursively through
    nested blocks, transactions, operations and signatures.
    """
    assert type(decoded) is type(original)
    assert dataclasses.asdict(decoded) == dataclasses.asdict(original)


control_messages = st.one_of(
    st.builds(Hello, node_id=i64s, role=st.sampled_from(["replica", "client"])),
    st.builds(StatusRequest, nonce=i64s),
    st.builds(
        StatusReply,
        nonce=i64s,
        replica=small_ints,
        committed=small_ints,
        rejected=small_ints,
        state_digest=digests,
        delivered_frontier=frontiers,
        view_changes=small_ints,
        stage_breakdown=st.dictionaries(
            keys=st.sampled_from(["send", "process", "order", "execute", "reply"]),
            values=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            max_size=3,
        ),
    ),
    st.builds(ShutdownRequest, reason=st.text(max_size=16)),
    st.builds(MetricsRequest, nonce=i64s),
    st.builds(
        MetricsReply,
        nonce=i64s,
        replica=small_ints,
        uptime=st.floats(allow_nan=False, allow_infinity=False),
        metrics=st.dictionaries(
            keys=st.text(max_size=24),
            values=st.floats(allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
    ),
    st.builds(RecoveryRequest, nonce=i64s, replica=small_ints, frontier=frontiers),
    st.builds(
        RecoveryReply,
        nonce=i64s,
        replica=small_ints,
        frontier=frontiers,
        views=st.lists(small_ints, max_size=4).map(tuple),
        checkpoint_epoch=st.integers(min_value=-1, max_value=2**31),
        checkpoint_digest=digests,
        snapshot=st.text(max_size=32),
        blocks=st.lists(blocks, max_size=3).map(tuple),
    ),
    st.builds(
        LinkUpdate, nonce=i64s, blocked=st.lists(small_ints, max_size=4).map(tuple)
    ),
)

all_messages = messages | control_messages


def _prepare_frame() -> bytes:
    return encode_envelope(0, Prepare(instance=0, view=0, sender=0))


# -- round trips -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(sender=small_ints, message=messages)
def test_envelope_round_trip(sender, message):
    decoded_sender, decoded = decode_envelope(encode_envelope(sender, message))
    assert decoded_sender == sender
    assert_deep_equal(decoded, message)
    assert decoded == message


@settings(max_examples=200, deadline=None)
@given(sender=i64s, message=all_messages)
def test_binary_envelope_round_trip(sender, message):
    """Every registered type, control plane included, survives exactly."""
    decoded_sender, decoded = decode_envelope(encode_envelope(sender, message))
    assert decoded_sender == sender
    assert_deep_equal(decoded, message)


@settings(max_examples=50, deadline=None)
@given(message=all_messages)
def test_encoding_is_canonical(message):
    """The same message always encodes to the same bytes."""
    assert encode_envelope(7, message) == encode_envelope(7, message)


@settings(max_examples=100, deadline=None)
@given(message=all_messages)
def test_binary_encoding_is_canonical(message):
    """Re-encoding a decoded message reproduces the frame byte for byte."""
    frame = encode_envelope(7, message)
    assert encode_envelope(7, decode_envelope(frame)[1]) == frame


def test_every_message_type_has_a_round_trip_property():
    """The strategies above cover every type the codec registers."""
    covered = {
        ClientRequest,
        ClientReply,
        PrePrepare,
        Prepare,
        Commit,
        ViewChange,
        NewView,
        CheckpointMessage,
        Hello,
        StatusRequest,
        StatusReply,
        ShutdownRequest,
        MetricsRequest,
        MetricsReply,
        RecoveryRequest,
        RecoveryReply,
        LinkUpdate,
    }
    assert set(codec._ENCODERS) == covered


def test_registered_extension_type_round_trips():
    """``register_wire_type`` adds a layout that encodes and decodes."""

    @dataclasses.dataclass(frozen=True)
    class Probe:
        value: int

    def encode(out: list[bytes], message: Probe) -> None:
        out.append(message.value.to_bytes(2, "big"))

    def decode(buf: bytes, off: int) -> tuple[Probe, int]:
        return Probe(int.from_bytes(buf[off : off + 2], "big")), off + 2

    register_wire_type(Probe, 250, encode, decode)
    try:
        sender, decoded = decode_envelope(encode_envelope(3, Probe(17)))
        assert sender == 3 and decoded == Probe(17)
        with pytest.raises(ValueError, match="already registered"):
            register_wire_type(Hello, 250, encode, decode)
    finally:
        # The registry is process-global; do not leak the probe type into
        # other tests' registry enumeration.
        codec._ENCODERS.pop(Probe, None)
        codec._DECODERS.pop(250, None)


# -- protocol errors ---------------------------------------------------------


def test_binary_frame_with_unknown_type_id_is_an_error():
    frame = bytearray(_prepare_frame())
    frame[codec._HEADER.size] = 250  # the type id byte
    with pytest.raises(WireCodecError, match="unknown wire type id"):
        decode_envelope(bytes(frame))


def test_binary_frame_with_future_version_is_an_error():
    frame = bytearray(_prepare_frame())
    frame[1] = PROTOCOL_VERSION + 1  # version byte
    with pytest.raises(WireCodecError, match="unsupported wire version"):
        decode_envelope(bytes(frame))


def test_wrong_version_is_an_error():
    """A frame in an earlier layout (header version 2) is refused, not
    misread, even though its first byte is the same magic."""
    frame = bytearray(_prepare_frame())
    frame[1] = 2
    with pytest.raises(WireCodecError, match="unsupported wire version 2"):
        decode_envelope(bytes(frame))


def test_frame_without_the_envelope_magic_is_an_error():
    with pytest.raises(WireCodecError, match="not a wire envelope"):
        decode_envelope(b'{"v":1,"t":"prepare","s":0,"p":{}}')


def test_truncated_binary_frame_is_an_error():
    frame = _prepare_frame()
    # Cuts inside the digest's length prefix, the fixed fields and the header.
    for cut in (1, 3, 20, len(frame) - 4):
        with pytest.raises(WireCodecError):
            decode_envelope(frame[: len(frame) - cut])


def test_trailing_bytes_are_an_error():
    with pytest.raises(WireCodecError, match="2 trailing bytes"):
        decode_envelope(_prepare_frame() + b"xx")


def test_empty_frame_is_an_error():
    with pytest.raises(WireCodecError, match="empty frame"):
        decode_envelope(b"")


def test_unencodable_message_is_an_error():
    with pytest.raises(WireCodecError, match="no wire encoding"):
        encode_envelope(0, object())
