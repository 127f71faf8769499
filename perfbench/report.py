"""Turn what a run measured into the named metrics of ``BENCHMARK.json``.

Every workload reports every metric.  The end-to-end metrics are the ones
that every workload measures, never read 0, and stay steady from seed to
seed on a shared 2-core host: set-up time, CPU per committed transaction
and peak memory.  Latencies and the other user-facing numbers are listed
first among the per-layer metrics: some workloads do not have them
(contracts, a closed loop, a restart), the simulator's latencies change
with the seed, and live wall-clock latencies swing with the host (see
``README.md``).  A metric of a layer the workload does not exercise reads 0
(for example the transport on ``sim_fig3``); that a layer stays flat where
it should is part of the record.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from live import CHURN_REPLICA, Round, total
from sim import ORTHRUS_SLOW, Pass
from stats import latencies_ms, late_ms, percentile, samples_needed, timing

#: name -> (unit, which direction is better)
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "cpu_ms_per_tx": ("ms/tx", "lower"),
    "rss_mb": ("MiB", "lower"),
}

#: Span name -> per-layer metric carrying its self seconds per transaction.
SPAN_METRICS = {
    "transport.send": "transport.send_s_per_tx",
    "codec.decode": "codec.decode_s_per_tx",
    "codec.encode": "codec.encode_s_per_tx",
    "replica.receive": "replica.receive_self_s_per_tx",
    "pbft.handle": "pbft.handle_self_s_per_tx",
    "core.deliver": "core.deliver_self_s_per_tx",
    "core.select_batch": "core.select_batch_s_per_tx",
    "ordering.on_deliver": "ordering.on_deliver_s_per_tx",
    "ledger.escrow": "ledger.escrow_s_per_tx",
    "ledger.state_digest": "ledger.state_digest_s_per_tx",
    "wal.append": "wal.append_s_per_tx",
    "wal.flush": "wal.flush_s_per_tx",
    "snapshot.write": "snapshot.write_s_per_tx",
    "obs.snapshot": "obs.snapshot_s_per_tx",
}

PER_LAYER: dict[str, tuple[str, str]] = {
    # user-facing latencies and capacities
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "payment_p50_ms": ("ms", "lower"),
    "contract_p50_ms": ("ms", "lower"),
    "contract_p99_ms": ("ms", "lower"),
    "peak_tps": ("tx/s", "higher"),
    "recovery_s": ("s", "lower"),
    "churn_p99_ms": ("ms", "lower"),
    "sim_wall_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
    "rejected_frac": ("ratio", "lower"),
    # runtime.transport + framing
    "transport.frames_per_tx": ("frames/tx", "lower"),
    "transport.bytes_per_tx": ("B/tx", "lower"),
    "transport.frames_per_write": ("frames", "higher"),
    "transport.send_s_per_tx": ("s/tx", "lower"),
    "transport.lost_frames": ("count", "lower"),
    # runtime.codec / server decode
    "codec.decode_s_per_tx": ("s/tx", "lower"),
    "codec.encode_s_per_tx": ("s/tx", "lower"),
    "server.decode_batch_size_mean": ("frames", "higher"),
    # cluster.replica
    "replica.receive_self_s_per_tx": ("s/tx", "lower"),
    "replica.txs_per_block": ("tx", "higher"),
    # sb.pbft
    "pbft.handle_self_s_per_tx": ("s/tx", "lower"),
    "pbft.view_changes": ("count", "lower"),
    # core
    "core.deliver_self_s_per_tx": ("s/tx", "lower"),
    "core.select_batch_s_per_tx": ("s/tx", "lower"),
    "core.partial_share": ("ratio", "higher"),
    # ordering
    "ordering.on_deliver_s_per_tx": ("s/tx", "lower"),
    "ordering.release_wait_p50_ms": ("ms", "lower"),
    "ordering.bar_wait_p99_ms": ("ms", "lower"),
    "ordering.max_waiting": ("count", "lower"),
    # ledger
    "ledger.escrow_s_per_tx": ("s/tx", "lower"),
    "ledger.escrow_fail_ratio": ("ratio", "lower"),
    "ledger.digest_cache_hit_ratio": ("ratio", "higher"),
    "ledger.state_digest_s_per_tx": ("s/tx", "lower"),
    # runtime.wal + durability
    "wal.append_s_per_tx": ("s/tx", "lower"),
    "wal.flush_s_per_tx": ("s/tx", "lower"),
    "wal.bytes_per_tx": ("B/tx", "lower"),
    "snapshot.write_s_per_tx": ("s/tx", "lower"),
    "recovery.local_s": ("s", "lower"),
    "recovery.transfer_s": ("s", "lower"),
    "durability.catch_ups": ("count", "lower"),
    # obs
    "obs.snapshot_s_per_tx": ("s/tx", "lower"),
    # runtime.client + loadgen
    "client.cpu_ms_per_tx": ("ms/tx", "lower"),
    "client.retransmissions": ("count", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    # runtime.cluster
    "cluster.spawn_s": ("s", "lower"),
    "cluster.restart_accept_s": ("s", "lower"),
    # sim + net
    "sim.events_per_tx": ("events/tx", "lower"),
    "net.messages_per_tx": ("msgs/tx", "lower"),
    "sim.run_self_s": ("s", "lower"),
    # per process
    "replica.cpu_s": ("s", "lower"),
    "replica.loop_lag_p99_ms": ("ms", "lower"),
    "trace.attributed_frac": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "host.speed_score": ("ops/s", "higher"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- live ----------------------------------------------------------------------


def _open_samples(rounds: list[Round], kind: str | None = None) -> list[list[float]]:
    return [latencies_ms(r.open_requests, kind) for r in rounds]


def live_cpu_ms_per_tx(rounds: list[Round]) -> float:
    """CPU ms of all five processes per committed open-loop transaction.

    Rejected transactions cost CPU but are not in the denominator.

    Not scaled by host speed: a single-thread calibration is a poor proxy
    for five processes sharing two cores (scaling widened the seed-to-seed
    spread on ``payments`` from about 0.04 to 0.12).
    """
    cpu = sum(r.open_replica_cpu_s + r.open_client_cpu_s for r in rounds)
    done = sum(1 for r in rounds for q in r.open_requests if q.ok)
    return cpu * 1000.0 / done


def live_end_to_end(rounds: list[Round]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "cpu_ms_per_tx": live_cpu_ms_per_tx(rounds),
        "rss_mb": statistics.median(r.rss_mb for r in rounds),
    }


def latencies(timings: dict) -> dict[str, float]:
    """The latency metrics from :func:`live_timings` / :func:`sim_timings` (0: none)."""

    def pick(kind: str, attribute: str) -> float:
        return getattr(timings[kind], attribute) if kind in timings else 0.0

    return {
        "p50_ms": pick("all", "p50"),
        "p99_ms": pick("all", "tail"),
        "payment_p50_ms": pick("payment", "p50"),
        "contract_p50_ms": pick("contract", "p50"),
        "contract_p99_ms": pick("contract", "tail"),
        "churn_p99_ms": pick("churn", "tail"),
    }


def live_timings(rounds: list[Round]) -> dict:
    """Every latency a live run measured with enough samples for its p99."""
    candidates = {
        "all": _open_samples(rounds),
        "payment": _open_samples(rounds, "payment"),
        "contract": _open_samples(rounds, "contract"),
        "churn": [r.churn_latencies_ms for r in rounds if r.churn_requests],
    }
    return {
        kind: timing(groups)
        for kind, groups in candidates.items()
        if sum(map(len, groups)) >= samples_needed(99.0)
    }


def _load_spans(files: list[Path]) -> list[dict]:
    docs = []
    for path in files:
        doc = json.loads(path.read_text())
        doc["file"] = path.name
        docs.append(doc)
    return docs


def live_per_layer(plain: Round, traced: Round) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics: counts from the untraced round, seconds from the traced one.

    Returns the metrics and one accounting row per traced replica process.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    registry = plain.metrics
    txs = plain.committed
    metrics.update(latencies(live_timings([plain])))
    if plain.closed_requests:
        metrics["peak_tps"] = plain.peak_tps
    if plain.churn_requests:
        metrics["recovery_s"] = plain.recovery_s
        metrics["cluster.restart_accept_s"] = plain.restart_accept_s
    metrics["failed_frac"] = _ratio(plain.failed, plain.submitted)
    metrics["rejected_frac"] = _ratio(plain.rejected, plain.submitted)

    frames = total(registry, "transport.frames_sent")
    metrics["transport.frames_per_tx"] = _ratio(frames, txs)
    metrics["transport.bytes_per_tx"] = _ratio(total(registry, "transport.bytes_out"), txs)
    metrics["transport.frames_per_write"] = _ratio(
        frames, total(registry, "transport.super_frames_sent")
    )
    metrics["transport.lost_frames"] = total(registry, "transport.frames_dropped") + total(
        registry, "transport.partition_drops"
    )
    # Exact mean over every replica (frames / batches); the histogram's
    # quantiles are bucket midpoints on a ladder made for seconds.
    batches = total(registry, "server.decode_batch_size.count")
    metrics["server.decode_batch_size_mean"] = _ratio(
        sum(
            snap.get("server.decode_batch_size.mean", 0.0)
            * snap.get("server.decode_batch_size.count", 0.0)
            for snap in registry.values()
        ),
        batches,
    )
    metrics["replica.txs_per_block"] = _ratio(txs, total(registry, "consensus.blocks_proposed"))
    metrics["pbft.view_changes"] = total(registry, "consensus.view_changes")
    metrics["ordering.release_wait_p50_ms"] = 1000.0 * statistics.median(
        snap.get("consensus.release_wait_seconds.p50", 0.0) for snap in registry.values()
    )
    metrics["ordering.bar_wait_p99_ms"] = 1000.0 * max(
        snap.get("consensus.bar_wait_seconds.p99", 0.0) for snap in registry.values()
    )
    metrics["ordering.max_waiting"] = max(
        snap.get("consensus.max_waiting", 0.0) for snap in registry.values()
    )
    hits = total(registry, "ledger.digest_cache_hits")
    metrics["ledger.digest_cache_hit_ratio"] = _ratio(
        hits, hits + total(registry, "ledger.digest_cache_misses")
    )
    metrics["durability.catch_ups"] = total(registry, "durability.catch_ups")
    done = sum(1 for q in plain.open_requests if q.ok)
    metrics["client.cpu_ms_per_tx"] = plain.open_client_cpu_s * 1000.0 / done
    metrics["client.retransmissions"] = float(plain.retransmissions)
    metrics["loadgen.late_p99_ms"] = percentile(sorted(late_ms(plain.open_requests)), 99.0)
    metrics["cluster.spawn_s"] = plain.spawn_s

    docs = _load_spans(traced.span_files)
    traced_txs = traced.committed
    self_s: dict[str, float] = {}
    for doc in docs:
        for name, seconds in doc["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = _ratio(self_s.get(span, 0.0), traced_txs)
    outcomes = {"partial": 0, "global": 0}
    for doc in docs:
        for path in outcomes:
            outcomes[path] += doc["counts"].get(f"outcomes.{path}", 0)
    metrics["core.partial_share"] = _ratio(outcomes["partial"], sum(outcomes.values()))
    wal_bytes = sum(doc["counts"].get("wal.bytes", 0) for doc in docs)
    metrics["wal.bytes_per_tx"] = _ratio(wal_bytes, traced_txs)
    escrows = sum(doc["calls"].get("ledger.escrow", 0) for doc in docs)
    metrics["ledger.escrow_fail_ratio"] = _ratio(
        total(traced.metrics, "consensus.escrow_conflicts"), escrows
    )
    restarted = [d for d in docs if d["file"] == f"replica-{CHURN_REPLICA}-2.json"]
    if restarted:
        local = restarted[0]["self_s"].get("recovery.local", 0.0)
        metrics["recovery.local_s"] = local
        metrics["recovery.transfer_s"] = max(
            0.0,
            traced.metrics[CHURN_REPLICA].get("durability.recovery_seconds", 0.0) - local,
        )
    rows = []
    for doc in docs:
        lags = sorted(doc["loop_lags"])
        attributed = sum(doc["self_s"].values())
        rows.append(
            {
                "process": doc["file"].removesuffix(".json"),
                "cpu_s": doc["cpu_s"],
                "attributed_s": attributed,
                "attributed_frac": _ratio(attributed, doc["cpu_s"]),
                "loop_lag_p99_ms": 1000.0 * percentile(lags, 99.0) if lags else 0.0,
                "self_s": doc["self_s"],
            }
        )
    metrics["replica.cpu_s"] = sum(traced.replica_cpu_s.values())
    metrics["replica.loop_lag_p99_ms"] = max(row["loop_lag_p99_ms"] for row in rows)
    metrics["trace.attributed_frac"] = min(row["attributed_frac"] for row in rows)
    metrics["trace.overhead"] = live_cpu_ms_per_tx([traced]) / live_cpu_ms_per_tx([plain])
    metrics["host.speed_score"] = (plain.speed + traced.speed) / 2
    return metrics, rows


# -- sim -----------------------------------------------------------------------


def _sim_samples(passes: list[Pass], kind: str | None = None) -> list[list[float]]:
    cell = passes[0].cells[ORTHRUS_SLOW]
    return [[1000.0 * s for k, s in cell.latencies if kind is None or k == kind]]


def sim_end_to_end(passes: list[Pass], rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "cpu_ms_per_tx": statistics.median(p.cpu_ms_per_tx for p in passes),
        "rss_mb": rss_mb,
    }


def sim_timings(passes: list[Pass]) -> dict:
    return {
        kind or "all": timing(_sim_samples(passes, kind))
        for kind in (None, "payment", "contract")
    }


def sim_per_layer(
    plain: list[Pass], traced: Pass, tracer, delay_draws: int
) -> tuple[dict[str, float], list[dict]]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(latencies(sim_timings(plain)))
    metrics["sim_wall_s"] = statistics.median(p.wall_s for p in plain)
    confirmed = traced.confirmed
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = _ratio(tracer.self_s.get(span, 0.0), confirmed)
    partial = tracer.counts.get("outcomes.partial", 0)
    metrics["core.partial_share"] = _ratio(
        partial, partial + tracer.counts.get("outcomes.global", 0)
    )
    metrics["sim.events_per_tx"] = _ratio(sum(c.events for c in traced.cells), confirmed)
    metrics["net.messages_per_tx"] = _ratio(delay_draws, confirmed)
    metrics["sim.run_self_s"] = tracer.self_s.get("sim.run", 0.0)
    attributed = sum(tracer.self_s.values())
    metrics["replica.cpu_s"] = traced.cpu_s
    metrics["trace.attributed_frac"] = _ratio(attributed, traced.cpu_s)
    metrics["trace.overhead"] = traced.cpu_ms_per_tx / statistics.median(
        p.cpu_ms_per_tx for p in plain
    )
    metrics["host.speed_score"] = statistics.median(p.speed for p in [*plain, traced])
    row = {
        "process": "sim",
        "cpu_s": traced.cpu_s,
        "attributed_s": attributed,
        "attributed_frac": metrics["trace.attributed_frac"],
        "loop_lag_p99_ms": 0.0,
        "self_s": dict(tracer.self_s),
    }
    return metrics, [row]
