"""Replica durability: snapshots + WAL hooks + local crash recovery.

This layer makes a live replica's consensus state survive SIGKILL.  It is
live-only and opt-in (``--run-dir``): the simulator never touches it, so the
deterministic sim path stays bit-identical.

The model exploits the fact that a consensus core is a pure state machine
over its delivered-block sequence: replaying the WAL's block records through
``core.on_block_delivered`` from genesis reconstructs the store, escrow,
status and ordering state exactly.  Snapshots only *bound* that replay — one
is cut at an epoch-checkpoint boundary whenever the core is quiescent (all
delivered blocks processed, nothing waiting in the global orderer), and
records the epoch's checkpoint digest so a restore can be verified against
the quorum's stable checkpoint.

On-disk layout under one replica's run directory::

    wal.jsonl             append-mode, checksummed (see runtime/wal.py)
    snapshot-<epoch>.json atomic (tmp + fsync + rename), self-verifying

WAL record kinds (``k`` field):

* ``b`` — a committed (SB-delivered) block, in delivery order
* ``v`` — a view install ``{i: instance, v: view}``
* ``e`` — an executed-epoch mark ``{e: epoch, d: checkpoint digest,
  sd: state digest}``

A ``b`` record's ``blk`` field is the WAL's own JSON rendering of the block
(:func:`encode_block`), independent of the binary wire codec: records are
plain JSON so the log stays readable and its bytes never change with the
wire layout.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Callable

from repro.core.interfaces import ConsensusCore
from repro.core.outcomes import TxStatus
from repro.crypto.signatures import Signature
from repro.ledger.blocks import Block, SystemState
from repro.ledger.objects import ObjectOperation, ObjectType, OperationKind
from repro.ledger.transactions import Transaction, TransactionType
from repro.runtime.wal import WAL_FILE_NAME, WalWriter, encode_record, read_wal

logger = logging.getLogger(__name__)

#: Snapshot format version (bump on incompatible schema changes).
SNAPSHOT_VERSION = 1

SNAPSHOT_PREFIX = "snapshot-"


class SnapshotError(Exception):
    """A snapshot failed validation during restore."""


# -- WAL block encoding ---------------------------------------------------------


def _encode_operation(op: ObjectOperation) -> dict[str, Any]:
    return {
        "key": op.key,
        "kind": op.kind.value,
        "amount": op.amount,
        "object_type": op.object_type.value,
    }


def _decode_operation(data: dict[str, Any]) -> ObjectOperation:
    return ObjectOperation(
        key=data["key"],
        kind=OperationKind(data["kind"]),
        amount=int(data["amount"]),
        object_type=ObjectType(data["object_type"]),
    )


def _encode_signature(signature: Signature) -> dict[str, Any]:
    return {
        "signer": signature.signer,
        "message_digest": signature.message_digest,
        "value": signature.value,
    }


def _decode_signature(data: dict[str, Any]) -> Signature:
    return Signature(
        signer=data["signer"],
        message_digest=data["message_digest"],
        value=data["value"],
    )


def _encode_transaction(tx: Transaction) -> dict[str, Any]:
    return {
        "tx_id": tx.tx_id,
        "operations": [_encode_operation(op) for op in tx.operations],
        "tx_type": tx.tx_type.value,
        "payload_size": tx.payload_size,
        "client_id": tx.client_id,
        "signatures": {
            holder: _encode_signature(sig) for holder, sig in tx.signatures.items()
        },
        "submitted_at": tx.submitted_at,
        "metadata": tx.metadata,
    }


def _decode_transaction(data: dict[str, Any]) -> Transaction:
    return Transaction(
        tx_id=data["tx_id"],
        operations=tuple(_decode_operation(op) for op in data["operations"]),
        tx_type=TransactionType(data["tx_type"]),
        payload_size=int(data.get("payload_size", 0)),
        client_id=data.get("client_id"),
        signatures={
            holder: _decode_signature(sig)
            for holder, sig in data.get("signatures", {}).items()
        },
        submitted_at=data.get("submitted_at"),
        metadata=dict(data.get("metadata", {})),
    )


def encode_block(block: Block) -> dict[str, Any]:
    """A block as the JSON-ready dict a WAL ``b`` record carries."""
    return {
        "instance": block.instance,
        "sequence_number": block.sequence_number,
        "transactions": [_encode_transaction(tx) for tx in block.transactions],
        "state": list(block.state.sequence_numbers),
        "proposer": block.proposer,
        "epoch": block.epoch,
        "rank": block.rank,
        "signature": (
            _encode_signature(block.signature) if block.signature is not None else None
        ),
        "metadata": block.metadata,
    }


def decode_block(data: dict[str, Any]) -> Block:
    """Inverse of :func:`encode_block`."""
    signature = data.get("signature")
    return Block(
        instance=int(data["instance"]),
        sequence_number=int(data["sequence_number"]),
        transactions=tuple(_decode_transaction(tx) for tx in data["transactions"]),
        state=SystemState(tuple(int(v) for v in data["state"])),
        proposer=int(data["proposer"]),
        epoch=int(data.get("epoch", 0)),
        rank=data.get("rank"),
        signature=_decode_signature(signature) if signature is not None else None,
        metadata=dict(data.get("metadata", {})),
    )


# -- WAL record builders ------------------------------------------------------


def block_record(block: Block) -> dict[str, Any]:
    """WAL record for one committed block."""
    return {"k": "b", "blk": encode_block(block)}


def view_record(instance: int, view: int) -> dict[str, Any]:
    """WAL record for one view install."""
    return {"k": "v", "i": instance, "v": view}


def epoch_record(epoch: int, checkpoint_digest: str, state_digest: str) -> dict[str, Any]:
    """WAL record marking an epoch as executed locally."""
    return {"k": "e", "e": epoch, "d": checkpoint_digest, "sd": state_digest}


def decode_block_record(record: dict[str, Any]) -> Block | None:
    """Block carried by a ``b`` record, or ``None`` for other kinds."""
    if record.get("k") != "b":
        return None
    try:
        return decode_block(record["blk"])
    except (KeyError, ValueError, TypeError):
        return None


# -- snapshot serialisation ---------------------------------------------------


def core_is_quiescent(core: ConsensusCore) -> bool:
    """Whether every delivered block has been fully processed.

    At a quiescent point the partial logs have no unprocessed head, the
    global orderer holds nothing back and the execution queue is drained —
    the entire consensus state is then a function of the store, the logs'
    positions and a handful of high-water marks.
    """
    if core.global_orderer.pending_count() != 0:
        return False
    if getattr(core, "_global_queue", None):
        return False
    return all(plog.peek_next() is None for plog in core.plogs)


def snapshot_core(core: ConsensusCore, *, epoch: int, checkpoint_digest: str) -> dict[str, Any] | None:
    """Serialise a quiescent core, or return ``None`` when unsupported.

    ``None`` means either the core is not quiescent (a snapshot here would
    lose in-flight ordering state) or its global orderer cannot resume from
    a snapshot — recovery then falls back to full WAL replay from genesis.
    """
    if not core_is_quiescent(core):
        return None
    orderer_state = core.global_orderer.snapshot_state()
    if orderer_state is None:
        return None
    terminal_statuses = [
        [tx_id, status.value]
        for tx_id, status in sorted(core._status.items())
        if status.terminal
    ]
    snapshot: dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "protocol": core.name,
        "num_instances": core.config.num_instances,
        "epoch_length": core.config.epoch_length,
        "epoch": epoch,
        "checkpoint_digest": checkpoint_digest,
        "state_digest": core.store.state_digest(),
        "frontier": list(core.frontier.as_state().sequence_numbers),
        "delivered": list(core.delivered_state().sequence_numbers),
        "epochs": {
            "processed": [plog.next_to_process - 1 for plog in core.plogs],
            "completed": core.epochs.completed_count,
        },
        "rank": {
            "highest_seen": core.rank_tracker.highest_seen,
            "assigned": core.rank_tracker._assigned,
        },
        "orderer": orderer_state,
        "objects": core.store.dump_objects(),
        "status": terminal_statuses,
        "counters": {
            "confirmed": core.confirmed_count,
            "partial": getattr(core, "partial_confirmations", 0),
            "global": getattr(core, "global_confirmations", 0),
        },
    }
    escrow = getattr(core, "escrow", None)
    if escrow is not None:
        snapshot["escrow"] = escrow.dump_entries()
    remaining = getattr(core, "_remaining_occurrences", None)
    if remaining is not None:
        snapshot["remaining_occurrences"] = dict(remaining)
    return snapshot


def restore_core(core: ConsensusCore, snapshot: dict[str, Any]) -> None:
    """Restore a *freshly built* core from a snapshot and verify its digest.

    Raises :class:`SnapshotError` when the snapshot does not match the
    core's configuration or its recorded state digest — the caller should
    discard the (now dirty) core, rebuild from genesis and fall back to an
    older snapshot or a full WAL replay.
    """
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {snapshot.get('version')!r}")
    if snapshot.get("protocol") != core.name:
        raise SnapshotError(
            f"snapshot is for protocol {snapshot.get('protocol')!r}, core is {core.name!r}"
        )
    if int(snapshot.get("num_instances", -1)) != core.config.num_instances:
        raise SnapshotError("snapshot instance count mismatch")
    if int(snapshot.get("epoch_length", -1)) != core.config.epoch_length:
        raise SnapshotError("snapshot epoch length mismatch")
    try:
        core.store.load_objects(snapshot["objects"])
        escrow = getattr(core, "escrow", None)
        if escrow is not None:
            escrow.load_entries(snapshot.get("escrow", []))
        core.frontier.restore(snapshot["frontier"])
        core._delivered_frontier = [int(v) for v in snapshot["delivered"]]
        for plog, processed in zip(core.plogs, snapshot["epochs"]["processed"]):
            plog.fast_forward(int(processed) + 1)
        core.epochs.restore(
            snapshot["epochs"]["processed"], snapshot["epochs"]["completed"]
        )
        core.rank_tracker.highest_seen = int(snapshot["rank"]["highest_seen"])
        core.rank_tracker._assigned = int(snapshot["rank"]["assigned"])
        core.global_orderer.restore_state(snapshot["orderer"])
        core._status = {
            tx_id: TxStatus(value) for tx_id, value in snapshot.get("status", [])
        }
        counters = snapshot.get("counters", {})
        core.confirmed_count = int(counters.get("confirmed", 0))
        if hasattr(core, "partial_confirmations"):
            core.partial_confirmations = int(counters.get("partial", 0))
        if hasattr(core, "global_confirmations"):
            core.global_confirmations = int(counters.get("global", 0))
        if hasattr(core, "_remaining_occurrences"):
            core._remaining_occurrences = {
                str(tx_id): int(count)
                for tx_id, count in snapshot.get("remaining_occurrences", {}).items()
            }
    except (KeyError, ValueError, TypeError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
    recomputed = core.store.state_digest()
    if recomputed != snapshot["state_digest"]:
        raise SnapshotError(
            f"snapshot digest mismatch: recorded {snapshot['state_digest'][:12]}…, "
            f"recomputed {recomputed[:12]}…"
        )


# -- snapshot files -----------------------------------------------------------


def snapshot_path(directory: str | Path, epoch: int) -> Path:
    return Path(directory) / f"{SNAPSHOT_PREFIX}{epoch:08d}.json"


def write_snapshot(directory: str | Path, snapshot: dict[str, Any]) -> Path:
    """Persist a snapshot atomically (tmp + fsync + rename)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(directory, int(snapshot["epoch"]))
    tmp = path.with_suffix(".tmp")
    data = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:
            pass
    os.replace(tmp, path)
    return path


def list_snapshots(directory: str | Path) -> list[Path]:
    """Snapshot files in the directory, newest epoch first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        directory.glob(f"{SNAPSHOT_PREFIX}*.json"),
        key=lambda p: p.name,
        reverse=True,
    )


def load_snapshot(path: str | Path) -> dict[str, Any] | None:
    """Parse one snapshot file; ``None`` when unreadable or corrupt."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    return data


def compact_wal(
    path: str | Path,
    *,
    frontier: list[int] | tuple[int, ...],
    epoch: int,
) -> tuple[int, int]:
    """Drop WAL records a verified snapshot at ``frontier``/``epoch`` covers.

    Keeps exactly the replayable suffix a recovery starting from that
    snapshot needs:

    * ``b`` block records above the snapshot's delivered frontier;
    * one ``v`` record per instance carrying the highest installed view
      (snapshots do not record views, so the maximum must survive every
      compaction or a restart would rejoin in a stale view);
    * ``e`` epoch marks above the snapshot's epoch.

    The rewrite is atomic (tmp + fsync + rename); on any error the original
    WAL is left untouched.  Returns ``(kept, dropped)`` record counts.
    """
    path = Path(path)
    best_views: dict[int, int] = {}
    kept_records: list[dict[str, Any]] = []
    total = 0
    for record in read_wal(path):
        total += 1
        kind = record.get("k")
        if kind == "b":
            block = decode_block_record(record)
            if block is None:
                continue
            if (
                block.instance < len(frontier)
                and block.sequence_number <= frontier[block.instance]
            ):
                continue
            kept_records.append(record)
        elif kind == "v":
            try:
                instance, view = int(record["i"]), int(record["v"])
            except (KeyError, ValueError, TypeError):
                continue
            if view > best_views.get(instance, -1):
                best_views[instance] = view
        elif kind == "e":
            try:
                if int(record["e"]) <= epoch:
                    continue
            except (KeyError, ValueError, TypeError):
                continue
            kept_records.append(record)
        else:
            kept_records.append(record)
    view_records = [
        view_record(instance, view) for instance, view in sorted(best_views.items())
    ]
    out = view_records + kept_records
    tmp = path.with_suffix(".compact.tmp")
    with open(tmp, "wb") as handle:
        for record in out:
            handle.write(encode_record(record))
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:
            pass
    os.replace(tmp, path)
    return len(out), max(0, total - len(out))


# -- per-replica durability driver -------------------------------------------


class LocalRecovery:
    """Result of replaying a replica's own durable state."""

    def __init__(self, num_instances: int) -> None:
        self.snapshot_epoch: int | None = None
        self.blocks_replayed = 0
        self.views: list[int] = [0] * num_instances
        self.executed_epochs: list[int] = []

    @property
    def recovered_anything(self) -> bool:
        return self.snapshot_epoch is not None or self.blocks_replayed > 0


class ReplicaDurability:
    """Owns one replica's WAL and snapshot cadence.

    The replica calls the ``on_*`` hooks from its delivery path; the server
    calls :meth:`recover` (before starting the replica) and :meth:`close`
    (on shutdown).  Everything here is synchronous and cheap — appends go to
    a buffered file, fsyncs are batched, and snapshots only run at epoch
    boundaries.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        snapshot_every_epochs: int = 1,
        fsync_every: int | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every_epochs = max(1, int(snapshot_every_epochs))
        kwargs = {} if fsync_every is None else {"fsync_every": fsync_every}
        self.wal = WalWriter(self.directory / WAL_FILE_NAME, **kwargs)
        self._clock = clock
        self.last_snapshot_epoch: int | None = None
        self.last_snapshot_at: float | None = None
        self.snapshots_written = 0
        #: Epoch whose snapshot is still owed because the core was mid-burst
        #: (not quiescent) when the epoch completed, with its checkpoint
        #: digest.  Cut at the next quiescent delivery drain instead.
        self._deferred_snapshot: tuple[int, str] | None = None

    # -- metrics ----------------------------------------------------------

    @property
    def wal_bytes(self) -> int:
        return self.wal.bytes_written

    def snapshot_age(self) -> float:
        """Seconds since the last snapshot cut (-1 before the first one)."""
        if self.last_snapshot_at is None or self._clock is None:
            return -1.0
        return self._clock() - self.last_snapshot_at

    # -- write-side hooks --------------------------------------------------

    def on_block_delivered(self, block: Block) -> None:
        self.wal.append(block_record(block))

    def on_view_installed(self, instance: int, view: int) -> None:
        self.wal.append(view_record(instance, view))
        self.wal.flush()

    def on_epoch_completed(self, core: ConsensusCore, epoch: int, checkpoint_digest: str) -> None:
        """Log the executed-epoch mark and maybe cut a snapshot.

        Under live load the core is rarely quiescent at the exact moment an
        epoch completes (the completing block usually arrives mid-burst), so
        a failed cut is *deferred* rather than dropped: the newest owed epoch
        is remembered and :meth:`maybe_cut_deferred_snapshot` retries from
        the delivery drain once the in-flight work clears.
        """
        self.wal.append(epoch_record(epoch, checkpoint_digest, core.store.state_digest()))
        self.wal.flush()
        last = self.last_snapshot_epoch
        if last is not None and epoch < last + self.snapshot_every_epochs:
            return
        if self._cut_snapshot(core, epoch, checkpoint_digest):
            self._deferred_snapshot = None
        else:
            self._deferred_snapshot = (epoch, checkpoint_digest)

    def maybe_cut_deferred_snapshot(self, core: ConsensusCore) -> bool:
        """Cut the owed snapshot if the core has gone quiescent since.

        Cheap no-op when nothing is owed; called from the replica's delivery
        drain and from server shutdown.  The snapshot captures the core's
        *current* state (which strictly extends the owed epoch's boundary) —
        the recorded epoch/checkpoint digest still identify the quorum-stable
        checkpoint the snapshot covers.
        """
        if self._deferred_snapshot is None:
            return False
        epoch, checkpoint_digest = self._deferred_snapshot
        if not self._cut_snapshot(core, epoch, checkpoint_digest):
            return False
        self._deferred_snapshot = None
        return True

    def _cut_snapshot(
        self, core: ConsensusCore, epoch: int, checkpoint_digest: str
    ) -> bool:
        snapshot = snapshot_core(core, epoch=epoch, checkpoint_digest=checkpoint_digest)
        if snapshot is None:
            return False
        write_snapshot(self.directory, snapshot)
        self.last_snapshot_epoch = epoch
        if self._clock is not None:
            self.last_snapshot_at = self._clock()
        self.snapshots_written += 1
        self._compact_wal_below(snapshot)
        return True

    def _compact_wal_below(self, snapshot: dict[str, Any]) -> None:
        """Truncate the WAL below the snapshot just written.

        Safe because recovery (local and peer-serving state transfer) always
        consults the newest snapshot first: everything at or below its
        delivered frontier replays from the snapshot, never from the WAL.
        The writer is closed around the rewrite so no buffered tail is lost,
        and reopened on the (possibly replaced) file; the ``wal_bytes``
        gauge drops to the compacted size.  A failed rewrite keeps the
        original WAL — compaction is an optimisation, never a correctness
        requirement.
        """
        try:
            frontier = [int(v) for v in snapshot.get("delivered", [])]
            epoch = int(snapshot["epoch"])
        except (KeyError, ValueError, TypeError):
            return
        self.wal.close()
        try:
            kept, dropped = compact_wal(self.wal.path, frontier=frontier, epoch=epoch)
            if dropped:
                logger.debug(
                    "compacted WAL %s: kept %d records, dropped %d",
                    self.wal.path.name,
                    kept,
                    dropped,
                )
        except OSError as exc:
            logger.warning("WAL compaction failed (keeping full log): %s", exc)
        finally:
            self.wal = WalWriter(self.wal.path, fsync_every=self.wal.fsync_every)

    def record_transferred_block(self, block: Block) -> None:
        """Persist a block learned through state transfer (so a second crash
        does not lose it)."""
        self.wal.append(block_record(block))

    # -- recovery ----------------------------------------------------------

    def recover(self, core: ConsensusCore, build_core: Callable[[], ConsensusCore]) -> tuple[ConsensusCore, LocalRecovery]:
        """Rebuild consensus state from this replica's own run directory.

        Tries the newest snapshot first; a snapshot that fails digest
        verification is discarded (the core is rebuilt from genesis via
        ``build_core``) and the next-older one is tried, down to a full WAL
        replay from genesis.  WAL block records above the restored frontier
        are then replayed through ``core.on_block_delivered``.

        Returns the (possibly rebuilt) core and a :class:`LocalRecovery`
        describing what was recovered — including the highest view installed
        per instance, which the caller uses to fast-forward PBFT endpoints.
        """
        recovery = LocalRecovery(core.config.num_instances)
        for path in list_snapshots(self.directory):
            snapshot = load_snapshot(path)
            if snapshot is None:
                logger.warning("skipping unreadable snapshot %s", path.name)
                continue
            try:
                restore_core(core, snapshot)
            except SnapshotError as exc:
                logger.warning("discarding snapshot %s: %s", path.name, exc)
                core = build_core()
                continue
            recovery.snapshot_epoch = int(snapshot["epoch"])
            break
        delivered = list(core.delivered_state().sequence_numbers)
        for record in read_wal(self.wal.path):
            kind = record.get("k")
            if kind == "b":
                block = decode_block_record(record)
                if block is None or block.instance >= len(delivered):
                    continue
                if block.sequence_number != delivered[block.instance] + 1:
                    # Already covered by the restored snapshot, or a hole:
                    # the WAL is compacted at the *newest* snapshot's
                    # frontier, so when that snapshot is corrupt and an
                    # older base was restored, the log no longer reaches
                    # down to it.  Replaying across the gap would execute
                    # a divergent state — leave the rest to peer state
                    # transfer instead.
                    continue
                core.on_block_delivered(block)
                delivered[block.instance] = block.sequence_number
                recovery.blocks_replayed += 1
            elif kind == "v":
                try:
                    instance, view = int(record["i"]), int(record["v"])
                except (KeyError, ValueError, TypeError):
                    continue
                if 0 <= instance < len(recovery.views):
                    recovery.views[instance] = max(recovery.views[instance], view)
            elif kind == "e":
                try:
                    recovery.executed_epochs.append(int(record["e"]))
                except (KeyError, ValueError, TypeError):
                    continue
        # Checkpoints produced during replay were already broadcast by the
        # pre-crash incarnation; new epochs will vote afresh.
        pending = getattr(core, "pending_checkpoints", None)
        if pending:
            pending.clear()
        return core, recovery

    def wal_blocks_above(self, frontier: list[int] | tuple[int, ...]) -> list[Block]:
        """Blocks in this replica's WAL above a per-instance frontier
        (served to recovering peers)."""
        # Records appended since the last fsync batch sit in the writer's
        # user-space buffer, invisible to the file read below — and they are
        # precisely the freshest blocks a catching-up peer is missing.
        self.wal.flush()
        blocks: list[Block] = []
        for record in read_wal(self.wal.path):
            block = decode_block_record(record)
            if block is None or block.instance >= len(frontier):
                continue
            if block.sequence_number > frontier[block.instance]:
                blocks.append(block)
        return blocks

    def latest_snapshot(self) -> dict[str, Any] | None:
        """Newest parseable snapshot in this replica's directory."""
        for path in list_snapshots(self.directory):
            snapshot = load_snapshot(path)
            if snapshot is not None:
                return snapshot
        return None

    def wipe(self) -> None:
        """Delete durable state (genesis-mode restart).  Closes the WAL
        writer, removes the files and reopens a fresh WAL."""
        self.wal.close()
        try:
            self.wal.path.unlink()
        except OSError:
            pass
        for path in list_snapshots(self.directory):
            try:
                path.unlink()
            except OSError:
                pass
        self.wal = WalWriter(self.wal.path, fsync_every=self.wal.fsync_every)
        self.last_snapshot_epoch = None
        self.last_snapshot_at = None

    def close(self) -> None:
        self.wal.close()
