"""Durability units: snapshot round-trips, WAL-bounded recovery, wipe.

A consensus core is a pure state machine over its delivered-block sequence,
so these tests drive cores directly — one leader delivering blocks in order
— and check the two recovery invariants the live path relies on:

* a snapshot cut at a quiescent point restores onto a fresh core with the
  exact state digest *and* the restored core keeps executing future blocks
  identically to the original;
* :class:`ReplicaDurability.recover` rebuilds the same state from the run
  directory alone, preferring the newest valid snapshot and replaying only
  the WAL suffix above it; a corrupt snapshot means the compacted log no
  longer applies contiguously, so recovery restarts clean rather than
  execute across the hole.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.crypto.signatures import Signature
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import (
    Transaction,
    TransactionType,
    reset_transaction_counter,
)
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.durability import (
    ReplicaDurability,
    SnapshotError,
    block_record,
    core_is_quiescent,
    decode_block_record,
    list_snapshots,
    load_snapshot,
    restore_core,
    snapshot_core,
)
from repro.runtime.wal import decode_record, encode_record
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

WORKLOAD = WorkloadConfig(num_accounts=64, seed=11, payment_fraction=1.0)

PEERS = tuple(("127.0.0.1", 9100 + index) for index in range(4))


@pytest.fixture(autouse=True)
def _fresh_tx_ids():
    reset_transaction_counter()


def make_config(epoch_length: int = 4) -> ReplicaRuntimeConfig:
    return ReplicaRuntimeConfig(
        replica_id=0,
        peers=PEERS,
        num_instances=2,
        batch_size=4,
        epoch_length=epoch_length,
        workload=WORKLOAD,
    )


def next_block(core, instance: int, sequence: int, transactions) -> Block:
    return Block.create(
        instance=instance,
        sequence_number=sequence,
        transactions=transactions,
        state=core.delivered_state(),
        proposer=0,
        epoch=sequence // core.config.epoch_length,
        rank=core.next_rank() if core.uses_ranks else None,
    )


def drive(core, workload, rounds: int, *, batch_size: int = 3, sink=None):
    """Deliver ``rounds`` of single-leader blocks, ending quiescent.

    Returns the delivered blocks in delivery order so equivalence tests can
    feed the identical sequence to a second core.  ``sink`` (e.g. a WAL
    hook) sees every block right after delivery.
    """
    blocks: list[Block] = []
    next_seq = [d + 1 for d in core.delivered_state().sequence_numbers]

    def deliver(instance: int, transactions) -> None:
        block = next_block(core, instance, next_seq[instance], transactions)
        next_seq[instance] += 1
        core.on_block_delivered(block)
        if sink is not None:
            sink(block)
        blocks.append(block)

    for _ in range(rounds):
        for instance in range(core.config.num_instances):
            for _ in range(batch_size):
                core.submit(workload.next_transaction())
            deliver(instance, core.select_batch(instance, batch_size))
    # Ladon's bar keeps the highest-ranked block waiting until every other
    # instance shows a rank above it; empty flush blocks drain the orderer
    # to a quiescent point (exactly what live no-op proposals do).
    for step in range(4 * core.config.num_instances):
        if core_is_quiescent(core):
            break
        deliver(step % core.config.num_instances, [])
    assert core_is_quiescent(core), "driver failed to reach a quiescent point"
    return blocks


# -- snapshot round trips -----------------------------------------------------


class TestSnapshots:
    def test_round_trip_preserves_state_and_future_execution(self):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        core = config.build_core()
        drive(core, workload, rounds=6)

        snapshot = snapshot_core(core, epoch=2, checkpoint_digest="cp")
        assert snapshot is not None
        restored = config.build_core()
        restore_core(restored, snapshot)

        assert restored.store.state_digest() == core.store.state_digest()
        assert list(restored.delivered_state().sequence_numbers) == list(
            core.delivered_state().sequence_numbers
        )
        # The restored core is not just a byte copy of the store: it must
        # keep executing future blocks identically to the original.
        for block in drive(core, workload, rounds=4):
            restored.on_block_delivered(block)
        assert restored.store.state_digest() == core.store.state_digest()
        assert restored.confirmed_count == core.confirmed_count

    def test_snapshot_refused_while_blocks_wait_on_the_bar(self):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        core = config.build_core()
        # One block per instance: the second carries the highest rank and
        # stays waiting on the bar, so the core is not quiescent.
        for instance in range(core.config.num_instances):
            core.submit(workload.next_transaction())
            core.on_block_delivered(
                next_block(core, instance, 0, core.select_batch(instance, 1))
            )
        assert not core_is_quiescent(core)
        assert snapshot_core(core, epoch=0, checkpoint_digest="") is None

    def test_restore_rejects_tampered_state(self):
        config = make_config()
        core = config.build_core()
        drive(core, EthereumStyleWorkload(WORKLOAD), rounds=3)
        snapshot = snapshot_core(core, epoch=1, checkpoint_digest="cp")
        assert snapshot is not None
        snapshot["state_digest"] = "0" * 64
        with pytest.raises(SnapshotError):
            restore_core(config.build_core(), snapshot)

    def test_restore_rejects_configuration_mismatch(self):
        core = make_config(epoch_length=4).build_core()
        drive(core, EthereumStyleWorkload(WORKLOAD), rounds=3)
        snapshot = snapshot_core(core, epoch=1, checkpoint_digest="cp")
        assert snapshot is not None
        with pytest.raises(SnapshotError):
            restore_core(make_config(epoch_length=8).build_core(), snapshot)


# -- run-directory recovery ---------------------------------------------------


class TestReplicaDurability:
    def test_recover_replays_wal_from_genesis(self, tmp_path):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        durability = ReplicaDurability(tmp_path)
        core = config.build_core()
        blocks = drive(core, workload, 5, sink=durability.on_block_delivered)
        durability.on_view_installed(0, 3)
        durability.close()

        successor = ReplicaDurability(tmp_path)
        recovered, local = successor.recover(config.build_core(), config.build_core)
        assert local.snapshot_epoch is None
        assert local.blocks_replayed == len(blocks)
        assert local.views == [3, 0]
        assert recovered.store.state_digest() == core.store.state_digest()
        successor.close()

    def test_recover_prefers_snapshot_and_replays_the_wal_suffix(self, tmp_path):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        durability = ReplicaDurability(tmp_path)
        core = config.build_core()
        drive(core, workload, 4, sink=durability.on_block_delivered)
        durability.on_epoch_completed(core, 1, "cp-digest")
        assert durability.snapshots_written == 1
        suffix = drive(core, workload, 3, sink=durability.on_block_delivered)
        durability.close()

        successor = ReplicaDurability(tmp_path)
        recovered, local = successor.recover(config.build_core(), config.build_core)
        assert local.snapshot_epoch == 1
        assert local.blocks_replayed == len(suffix)
        # The snapshot cut compacted the WAL: the covered prefix (and the
        # epoch mark the snapshot itself records) no longer replays from it.
        assert local.executed_epochs == []
        assert recovered.store.state_digest() == core.store.state_digest()
        successor.close()

    def test_snapshot_cut_compacts_the_wal(self, tmp_path):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        durability = ReplicaDurability(tmp_path)
        core = config.build_core()
        drive(core, workload, 4, sink=durability.on_block_delivered)
        before = durability.wal_bytes
        durability.on_epoch_completed(core, 1, "cp-digest")
        assert durability.snapshots_written == 1
        # The covered prefix left the log: the wal_bytes gauge dropped.
        assert durability.wal_bytes < before
        # And the writer reopened cleanly: later deliveries keep appending.
        suffix = drive(core, workload, 1, sink=durability.on_block_delivered)
        assert suffix
        assert durability.wal_bytes > 0
        durability.close()

    def test_corrupt_snapshot_leaves_the_compacted_suffix_unreplayed(self, tmp_path):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        durability = ReplicaDurability(tmp_path)
        core = config.build_core()
        drive(core, workload, 4, sink=durability.on_block_delivered)
        durability.on_epoch_completed(core, 1, "cp-digest")
        suffix = drive(core, workload, 3, sink=durability.on_block_delivered)
        assert suffix
        durability.close()

        # Flip the recorded digest: the snapshot now fails verification and
        # is discarded.  The snapshot cut compacted the WAL, so the log no
        # longer reaches down to genesis — replaying the suffix onto a
        # genesis core would execute across the hole and diverge.  Recovery
        # must refuse it and restart clean; peer state transfer (which can
        # adopt any snapshot over genesis) rebuilds the state instead.
        path = list_snapshots(tmp_path)[0]
        snapshot = load_snapshot(path)
        snapshot["state_digest"] = "f" * 64
        path.write_text(json.dumps(snapshot), encoding="utf-8")

        successor = ReplicaDurability(tmp_path)
        recovered, local = successor.recover(config.build_core(), config.build_core)
        assert local.snapshot_epoch is None
        assert local.blocks_replayed == 0
        assert recovered.store.state_digest() == config.genesis_digest()
        successor.close()

    def test_wipe_discards_wal_and_snapshots(self, tmp_path):
        config = make_config()
        workload = EthereumStyleWorkload(WORKLOAD)
        durability = ReplicaDurability(tmp_path)
        core = config.build_core()
        drive(core, workload, 4, sink=durability.on_block_delivered)
        durability.on_epoch_completed(core, 1, "cp-digest")
        assert list_snapshots(tmp_path)

        durability.wipe()
        assert not list_snapshots(tmp_path)
        recovered, local = durability.recover(config.build_core(), config.build_core)
        assert not local.recovered_anything
        assert recovered.store.state_digest() == config.genesis_digest()
        durability.close()


class TestBlockRecordFormat:
    """The bytes of a WAL block record are an on-disk format: a log written
    by any earlier build must replay unchanged."""

    #: One record as written to ``wal.jsonl``: crc32, space, canonical JSON.
    PINNED = (
        b'e0f8843a {"blk":{"epoch":2,"instance":1,"metadata":{"k":1},'
        b'"proposer":1,"rank":42,"sequence_number":7,"signature":'
        b'{"message_digest":"bd","signer":"r1","value":"bv"},"state":[3,7],'
        b'"transactions":[{"client_id":"c-7","metadata":{"note":"x"},'
        b'"operations":[{"amount":5,"key":"alice","kind":"decrement",'
        b'"object_type":"owned"},{"amount":5,"key":"bob","kind":"increment",'
        b'"object_type":"owned"}],"payload_size":120,"signatures":{"alice":'
        b'{"message_digest":"d1","signer":"r1","value":"v1"}},'
        b'"submitted_at":1.5,"tx_id":"tx-1","tx_type":"payment"},'
        b'{"client_id":null,"metadata":{},"operations":[{"amount":0,'
        b'"key":"pool","kind":"contract_call","object_type":"shared"}],'
        b'"payload_size":500,"signatures":{},"submitted_at":null,'
        b'"tx_id":"tx-2","tx_type":"contract"}]},"k":"b"}\n'
    )

    @staticmethod
    def _block() -> Block:
        payment = Transaction(
            tx_id="tx-1",
            operations=(
                ObjectOperation("alice", OperationKind.DECREMENT, 5, ObjectType.OWNED),
                ObjectOperation("bob", OperationKind.INCREMENT, 5, ObjectType.OWNED),
            ),
            tx_type=TransactionType.PAYMENT,
            payload_size=120,
            client_id="c-7",
            signatures={"alice": Signature(signer="r1", message_digest="d1", value="v1")},
            submitted_at=1.5,
            metadata={"note": "x"},
        )
        contract = Transaction(
            tx_id="tx-2",
            operations=(
                ObjectOperation("pool", OperationKind.CONTRACT_CALL, 0, ObjectType.SHARED),
            ),
            tx_type=TransactionType.CONTRACT,
        )
        return Block(
            instance=1,
            sequence_number=7,
            transactions=(payment, contract),
            state=SystemState((3, 7)),
            proposer=1,
            epoch=2,
            rank=42,
            signature=Signature(signer="r1", message_digest="bd", value="bv"),
            metadata={"k": 1},
        )

    def test_block_record_bytes_are_pinned(self):
        assert encode_record(block_record(self._block())) == self.PINNED

    def test_pinned_record_replays_to_the_same_block(self):
        block = decode_block_record(decode_record(self.PINNED.rstrip(b"\n")))
        assert asdict(block) == asdict(self._block())
