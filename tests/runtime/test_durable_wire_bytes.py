"""A durable cluster puts no more bytes on the wire per transaction.

A durable replica runs state-transfer sweeps against every peer for the
first seconds after it starts, each over a fresh connection that opens with
its own hello.  Those control connections must not change how peers encode
consensus traffic to the replica afterwards.  The check spawns a durable and
a non-durable 4-replica cluster of the same shape and offers both a little
load at once, so the replica-to-replica connections open while the sweeps
still run.  Once the sweep window has closed it offers the measured load
and compares the bytes each instance leader writes per committed
transaction.
"""

from __future__ import annotations

import asyncio

from repro.ledger.transactions import reset_transaction_counter
from repro.runtime.client import ClientConfig, OrthrusClient
from repro.runtime.cluster import ClusterSpec, LocalCluster
from repro.runtime.server import CATCH_UP_SETTLE_SECONDS
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

WARMUP_TRANSACTIONS = 20
TRANSACTIONS = 600
SUBMIT_RATE_TPS = 300.0
NUM_INSTANCES = 2

#: Durable over non-durable leader bytes per committed transaction.
MAX_RATIO = 1.25


def _spec(durability: bool, run_dir) -> ClusterSpec:
    return ClusterSpec(
        num_replicas=4,
        num_instances=NUM_INSTANCES,
        batch_size=256,
        batch_interval=0.05,
        epoch_length=64,
        workload=WorkloadConfig(num_accounts=512, seed=11, payment_fraction=1.0),
        transport="uds",
        durability=durability,
        run_dir=str(run_dir) if durability else None,
    )


async def _leader_bytes_out(client: OrthrusClient) -> int:
    replies = await client.cluster_metrics(require_all=True)
    return sum(
        int(reply.metrics["transport.bytes_out"])
        for reply in replies
        if reply.replica < NUM_INSTANCES
    )


async def _submit(client: OrthrusClient, workload, count: int) -> int:
    """Submit ``count`` paced transactions; returns how many committed."""
    futures = []
    for _ in range(count):
        futures.append(client.submit_nowait(workload.next_transaction()))
        await asyncio.sleep(1.0 / SUBMIT_RATE_TPS)
    results = await asyncio.wait_for(asyncio.gather(*futures), timeout=60.0)
    return sum(result.committed for result in results)


async def _drive(cluster: LocalCluster) -> float:
    """Leader bytes written per committed transaction under a paced load."""
    reset_transaction_counter()
    workload = EthereumStyleWorkload(cluster.spec.workload)
    async with OrthrusClient(
        list(cluster.endpoints), ClientConfig(client_id=1000, timeout=10.0)
    ) as client:
        await _submit(client, workload, WARMUP_TRANSACTIONS)
        # Measure only after the durable replicas' start-up sweeps are over,
        # so the comparison is about the steady state those sweeps leave.
        await asyncio.sleep(CATCH_UP_SETTLE_SECONDS + 0.5)
        before = await _leader_bytes_out(client)
        committed = await _submit(client, workload, TRANSACTIONS)
        after = await _leader_bytes_out(client)
    assert committed >= TRANSACTIONS * 0.9, committed
    return (after - before) / committed


def _measure(durability: bool, run_dir) -> float:
    with LocalCluster(_spec(durability, run_dir)) as cluster:
        per_tx = asyncio.run(_drive(cluster))
        assert cluster.check() == [], "replica processes died during the run"
    return per_tx


def test_durable_leaders_write_no_more_bytes_per_tx_than_non_durable(tmp_path):
    durable = _measure(durability=True, run_dir=tmp_path)
    plain = _measure(durability=False, run_dir=None)
    assert durable <= plain * MAX_RATIO, (
        f"durable leaders wrote {durable:.0f} B/tx against {plain:.0f} B/tx "
        f"without durability ({durable / plain:.2f}x)"
    )
