"""The three live workloads: four ``repro serve`` processes over UDS.

A run is a few *rounds*.  Each round sets a cluster up (that time is one
``setup_s`` sample), warms it, drives its phases from this single-threaded
asyncio process through one :class:`OrthrusClient`, checks it with a
*fresh* probe client (:func:`gate`) and stops it.  Numbers are pooled over
the rounds, so one unlucky cluster cannot set a run's result.  A round whose
gate fails raises :class:`GateError`; the run then reports no numbers.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import procfs
from cluster import BenchCluster
from load import closed_loop, completed_within, open_loop
from stats import Request, latencies_ms

from repro.bench.report import host_speed_score
from repro.cluster.faults import FaultPlan
from repro.runtime.client import ClientConfig, ClientError, OrthrusClient
from repro.runtime.cluster import ClusterSpec
from repro.workload.config import WorkloadConfig
from repro.workload.generator import EthereumStyleWorkload

#: Rounds of an untraced run.  A traced run makes one untraced and one
#: traced round instead, each with half the seconds.
ROUNDS = 3

#: Seconds of open-loop load before any window opens in a round.
WARMUP_S = 0.5

#: The load client's id; probe clients count up from 2000.
LOAD_CLIENT = 1000
PROBE_CLIENT_BASE = 2000

#: Replica killed and restarted in ``durable_churn`` (leads no instance in view 0).
CHURN_REPLICA = 3
#: Seconds into the churn phase at which it is killed, and how long it stays down.
KILL_AFTER_S = 0.3
DOWNTIME_S = 1.5


class GateError(RuntimeError):
    """A run failed its correctness gate; it reports as failed."""


@dataclass(frozen=True)
class Shape:
    """One live workload: the cluster it runs and the load it offers."""

    name: str
    instances: int
    payment_fraction: float
    routed: bool
    open_rate: float
    batch_interval: float = 0.01
    closed_concurrency: int = 0
    stragglers: tuple[tuple[int, float], ...] = ()
    durable: bool = False
    #: Share of a round's seconds given to each phase.
    open_share: float = 1.0
    closed_share: float = 0.0
    churn_share: float = 0.0

    def cluster_spec(self, seed: int, run_dir: Path | None) -> ClusterSpec:
        return ClusterSpec(
            num_replicas=4,
            num_instances=self.instances,
            batch_size=256,
            batch_interval=self.batch_interval,
            epoch_length=64 if self.durable else 1_000_000,
            workload=self.workload(seed),
            faults=FaultPlan(stragglers=dict(self.stragglers)),
            transport="uds",
            durability=self.durable,
            run_dir=str(run_dir) if run_dir is not None else None,
            metrics_interval=1.0,
        )

    def workload(self, seed: int) -> WorkloadConfig:
        return WorkloadConfig(
            num_accounts=1024,
            payment_fraction=self.payment_fraction,
            zipf_exponent=0.8,
            seed=seed,
        )

    def client_config(self) -> ClientConfig:
        return ClientConfig(
            client_id=LOAD_CLIENT,
            route_instances=self.instances if self.routed else None,
        )

    def describe(self) -> dict:
        """The cluster shape, for the run's record."""
        return {"replicas": 4, "transport": "uds", "batch_size": 256, **asdict(self)}


SHAPES = {
    "payments": Shape(
        name="payments",
        instances=2,
        payment_fraction=1.0,
        routed=True,
        open_rate=2000.0,
        closed_concurrency=256,
        open_share=0.75,
        closed_share=0.25,
    ),
    "straggler_mixed": Shape(
        name="straggler_mixed",
        instances=4,
        payment_fraction=0.46,
        routed=False,
        open_rate=400.0,
        stragglers=((1, 10.0),),
    ),
    "durable_churn": Shape(
        name="durable_churn",
        instances=2,
        payment_fraction=0.46,
        routed=False,
        open_rate=500.0,
        batch_interval=0.05,
        closed_concurrency=256,
        durable=True,
        open_share=0.55,
        closed_share=0.1,
        churn_share=0.35,
    ),
}


# -- probing -------------------------------------------------------------------


class Prober:
    """Opens a fresh client for every probe.

    A client dials replicas only when it connects and never re-dials one
    that died, so anything asked after a restart goes through a new client.
    """

    def __init__(self, cluster: BenchCluster) -> None:
        self.cluster = cluster
        self._ids = itertools.count(PROBE_CLIENT_BASE)

    async def client(self) -> OrthrusClient:
        client = OrthrusClient(
            list(self.cluster.endpoints), ClientConfig(client_id=next(self._ids))
        )
        await client.connect(require_all=False)
        return client

    async def statuses(self):
        client = await self.client()
        try:
            return await client.cluster_status()
        finally:
            await client.close()

    async def settle(self, *, timeout: float = 20.0):
        """Poll until all four replicas agree; returns statuses and metrics."""
        client = await self.client()
        try:
            deadline = time.monotonic() + timeout
            while True:
                statuses = await client.cluster_status()
                frontiers = {s.delivered_frontier for s in statuses}
                digests = {s.state_digest for s in statuses}
                if len(statuses) == 4 and len(frontiers) == 1 and len(digests) == 1:
                    replies = await client.cluster_metrics(require_all=True)
                    return statuses, {m.replica: m.metrics for m in replies}
                if time.monotonic() > deadline:
                    raise GateError(
                        f"replicas did not converge: {len(statuses)} answered, "
                        f"frontiers {sorted(frontiers)}, {len(digests)} digests"
                    )
                await asyncio.sleep(0.1)
        finally:
            await client.close()

    async def wait_caught_up(self, replica: int, target, *, timeout: float = 30.0) -> float:
        """Block until ``replica``'s frontier reaches ``target``; returns when."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        client = await self.client()
        try:
            while loop.time() < deadline:
                try:
                    status = await client.status(replica, timeout=1.0)
                except ClientError:
                    status = None
                if status is not None and all(
                    mine >= theirs
                    for mine, theirs in zip(status.delivered_frontier, target)
                ):
                    return loop.time()
                await asyncio.sleep(0.02)
        finally:
            await client.close()
        raise GateError(f"replica {replica} did not catch up within {timeout:g}s")


def total(metrics: dict[int, dict[str, float]], name: str) -> float:
    """Sum of one registry instrument over the replicas."""
    return sum(snapshot.get(name, 0.0) for snapshot in metrics.values())


def gate(
    statuses, metrics, load: OrthrusClient, requests: list[Request], *, churned: bool
) -> None:
    """The correctness gate; raises :class:`GateError` on any violation.

    ``requests`` are all the load client sent so far.  All four replicas
    already agree on digest and frontier (:meth:`Prober.settle`), and each
    must count at least the commits and rejections the client was told of.
    ``churned`` marks the gate after the kill of ``durable_churn``: a replica
    that caught up by state transfer installed blocks it did not execute,
    and the restarted replica's counters began again with its process, so
    the count check skips both; view changes and lost frames are allowed
    only there (the same round is gated in full before the kill).
    """
    if load.submitted != load.completed + load.failed:
        raise GateError(
            f"submitted {load.submitted} != completed {load.completed} "
            f"+ failed {load.failed}"
        )
    committed = sum(1 for r in requests if r.ok)
    rejected = sum(1 for r in requests if r.rejected)
    if committed + rejected != load.completed:
        raise GateError(
            f"client completed {load.completed}, but {committed} commits "
            f"+ {rejected} rejections were seen"
        )
    for status in statuses:
        if churned and (
            status.replica == CHURN_REPLICA
            or metrics[status.replica].get("durability.catch_ups", 0.0) > 0
        ):
            continue
        if status.committed < committed or status.rejected < rejected:
            raise GateError(
                f"replica {status.replica} committed {status.committed} and rejected "
                f"{status.rejected}; the client saw {committed} and {rejected}"
            )
    if not churned:
        view_changes = sum(s.view_changes for s in statuses)
        lost = total(metrics, "transport.frames_dropped") + total(
            metrics, "transport.partition_drops"
        )
        if view_changes or lost:
            raise GateError(f"{view_changes} view changes, {lost:g} lost frames")


# -- one round -----------------------------------------------------------------


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    spawn_s: float
    #: Host speed score, mean of one taken before the cluster starts and
    #: one after it stops (so the replicas do not compete with it); recorded
    #: for reading the run, not used to scale it.
    speed: float = 0.0
    open_requests: list[Request] = field(default_factory=list)
    open_replica_cpu_s: float = 0.0
    open_client_cpu_s: float = 0.0
    closed_requests: list[Request] = field(default_factory=list)
    closed_window: tuple[float, float] = (0.0, 0.0)
    churn_requests: list[Request] = field(default_factory=list)
    kill_at: float = 0.0
    restart_at: float = 0.0
    restart_accept_s: float = 0.0
    caught_up_at: float = 0.0
    rss_mb: float = 0.0
    #: Load-client outcomes over the whole round (warm-up included).
    committed: int = 0
    rejected: int = 0
    completed: int = 0
    submitted: int = 0
    failed: int = 0
    retransmissions: int = 0
    statuses: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Replica CPU seconds over the whole round, by replica id.
    replica_cpu_s: dict[int, float] = field(default_factory=dict)
    #: Span files the traced entry wrote (traced rounds only).
    span_files: list[Path] = field(default_factory=list)

    @property
    def recovery_s(self) -> float:
        return self.caught_up_at - self.restart_at

    @property
    def churn_latencies_ms(self) -> list[float]:
        window = [r for r in self.churn_requests if self.kill_at <= r.due <= self.caught_up_at]
        return latencies_ms(window)

    @property
    def peak_tps(self) -> float:
        start, end = self.closed_window
        return completed_within(self.closed_requests, start, end) / (end - start)


def _replica_cpu(cluster: BenchCluster) -> dict[int, float]:
    return {index: procfs.cpu_seconds(pid) for index, pid in enumerate(cluster.pids)}


async def run_round(
    shape: Shape,
    seed: int,
    seconds: float,
    work: Path,
    index: int,
    *,
    traced: bool = False,
) -> Round:
    """Set up, drive, gate and stop one cluster."""
    run_dir = work / f"round-{index}" if shape.durable else None
    spans_dir = work / f"spans-{index}" if traced else None
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
    cluster = BenchCluster(shape.cluster_spec(seed, run_dir), work=work, spans_dir=spans_dir)
    client = OrthrusClient(list(cluster.endpoints), shape.client_config())
    speed_before = host_speed_score()
    started = time.perf_counter()
    await asyncio.to_thread(cluster.start)
    try:
        spawned = time.perf_counter()
        await client.connect()
        result = Round(setup_s=time.perf_counter() - started, spawn_s=spawned - started)
        cpu_at_start = _replica_cpu(cluster)
        await _drive(shape, seed, seconds, cluster, client, result)
        cpu_at_end = _replica_cpu(cluster)
        result.replica_cpu_s = {
            replica: cpu_at_end[replica] - cpu_at_start.get(replica, 0.0)
            for replica in cpu_at_end
        }
        # The churn replica's first life is lost to SIGKILL; its second life
        # started after ``cpu_at_start``, so count it from zero.
        if shape.churn_share:
            result.replica_cpu_s[CHURN_REPLICA] = cpu_at_end[CHURN_REPLICA]
    finally:
        await client.close()
        # A graceful stop lets traced replicas write their spans.
        await asyncio.to_thread(cluster.stop, grace=20.0)
    result.speed = (speed_before + host_speed_score()) / 2
    if spans_dir is not None:
        missing = [path.name for path in cluster.last_span_files() if not path.exists()]
        if missing:
            raise GateError(f"traced replicas wrote no spans: {missing}")
        result.span_files = sorted(spans_dir.glob("replica-*.json"))
    return result


async def _drive(shape, seed, seconds, cluster, client, result: Round) -> None:
    loop = asyncio.get_running_loop()
    prober = Prober(cluster)
    # Every round replays the same seeded inputs.
    generator = EthereumStyleWorkload(shape.workload(seed))
    sent = await open_loop(
        client, generator.stream(int(shape.open_rate * WARMUP_S)), shape.open_rate
    )

    batch = list(generator.stream(int(shape.open_rate * seconds * shape.open_share)))
    cpu0, client0 = sum(_replica_cpu(cluster).values()), procfs.self_cpu_seconds()
    result.open_requests = await open_loop(client, batch, shape.open_rate)
    result.open_replica_cpu_s = sum(_replica_cpu(cluster).values()) - cpu0
    result.open_client_cpu_s = procfs.self_cpu_seconds() - client0
    sent += result.open_requests

    if shape.closed_concurrency:
        closed_seconds = seconds * shape.closed_share
        start = loop.time()
        result.closed_requests = await closed_loop(
            client, generator.stream(10**9), shape.closed_concurrency, closed_seconds
        )
        # Skip the ramp-up: count completions after the first tenth.
        result.closed_window = (start + closed_seconds * 0.1, start + closed_seconds)
        sent += result.closed_requests

    if shape.churn_share:
        # Gate the phases before the kill in full: WAL appends, snapshot
        # cuts and metrics writes ran under load there.
        statuses, metrics = await prober.settle()
        gate(statuses, metrics, client, sent, churned=False)
        await _churn(shape, seconds * shape.churn_share, cluster, client, generator, prober, result)
        sent += result.churn_requests

    result.rss_mb = sum(procfs.peak_rss_mb(pid) for pid in cluster.pids)
    statuses, metrics = await prober.settle()
    gate(statuses, metrics, client, sent, churned=bool(shape.churn_share))
    result.statuses = statuses
    result.metrics = metrics
    result.committed = sum(1 for r in sent if r.ok)
    result.rejected = sum(1 for r in sent if r.rejected)
    result.completed = client.completed
    result.submitted = client.submitted
    result.failed = client.failed
    result.retransmissions = client.retransmissions


async def _churn(shape, seconds, cluster, client, generator, prober, result: Round) -> None:
    """Phase 3: open loop while the churn replica is killed and restarted.

    Catch-up is measured against the survivors' frontier *as it stood at the
    restart*: under continuous load a restarted replica trails the moving
    frontier by a few blocks until the load stops.
    """
    loop = asyncio.get_running_loop()
    batch = list(generator.stream(int(shape.open_rate * seconds)))
    start = loop.time()
    load = asyncio.ensure_future(open_loop(client, batch, shape.open_rate, start=start))
    try:
        await asyncio.sleep(KILL_AFTER_S)
        result.kill_at = loop.time()
        await asyncio.to_thread(cluster.kill_replica, CHURN_REPLICA)
        await asyncio.sleep(DOWNTIME_S)
        survivors = await prober.statuses()
        target = tuple(max(column) for column in zip(*(s.delivered_frontier for s in survivors)))
        result.restart_at = loop.time()
        await asyncio.to_thread(cluster.restart_replica, CHURN_REPLICA)
        result.restart_accept_s = loop.time() - result.restart_at
        result.caught_up_at = await prober.wait_caught_up(CHURN_REPLICA, target)
    finally:
        result.churn_requests = await load


async def run_rounds(
    shape: Shape, seed: int, seconds: float, work: Path, *, trace: bool
) -> tuple[list[Round], Round | None]:
    """The untraced rounds of a run, plus the traced round when ``trace``."""
    if not trace:
        rounds = [
            await run_round(shape, seed, seconds / ROUNDS, work, index)
            for index in range(ROUNDS)
        ]
        return rounds, None
    plain = await run_round(shape, seed, seconds / 2, work, 0)
    traced = await run_round(shape, seed, seconds / 2, work, 1, traced=True)
    return [plain], traced
