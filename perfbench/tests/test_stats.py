"""The benchmark's own rules: percentiles, due-time latency, metric names."""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import pytest

import report
from load import closed_loop, open_loop
from stats import (
    Request,
    latencies_ms,
    samples_needed,
    tail_percentile,
    timing,
    valid_metric_name,
)

from repro.runtime.client import TxResult

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- percentile rule -----------------------------------------------------------


def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50.0) == 20
    assert samples_needed(90.0) == 100
    assert samples_needed(99.0) == 1000
    assert samples_needed(99.9) == 10000


@pytest.mark.parametrize(
    ("count", "expected"),
    [(19, None), (20, 50.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_timing_pools_rounds_and_reports_the_count():
    result = timing([[float(x) for x in range(1, 501)], [float(x) for x in range(501, 1001)]])
    assert result.n == 1000
    assert result.tail_q == 99.0
    assert result.tail == 990.0  # nearest rank over the pooled samples
    assert result.p50 == 500.5


def test_timing_refuses_too_few_samples_for_p99():
    with pytest.raises(ValueError):
        timing([list(range(500)), list(range(499))])
    assert timing([list(range(999))], q=90.0).tail_q == 90.0


# -- due-time accounting -------------------------------------------------------


class _InstantClient:
    """Answers every submission after a fixed service time.

    Every ``reject_every``-th submission is answered *rejected*.
    """

    SERVICE_S = 0.002

    def __init__(self, reject_every: int = 0) -> None:
        self.loop = asyncio.get_running_loop()
        self.reject_every = reject_every
        self.sent = 0

    def submit_nowait(self, tx):
        self.sent += 1
        committed = not (self.reject_every and self.sent % self.reject_every == 0)
        result = TxResult(tx_id=str(self.sent), committed=committed, replicas=(0, 1), latency=0.0)
        future = self.loop.create_future()
        self.loop.call_later(self.SERVICE_S, future.set_result, result)
        return future

    async def submit(self, tx):
        return await self.submit_nowait(tx)

    async def flush(self) -> None:
        return None


class _Tx:
    is_payment = True


def test_generator_stall_is_charged_to_requests_queued_behind_it():
    rate, stall_at, stall_s = 1000.0, 50, 0.1

    def stall(index: int) -> None:
        if index == stall_at:
            time.sleep(stall_s)  # blocks the loop: the generator stalls

    async def scenario():
        client = _InstantClient()
        return await open_loop(client, [_Tx() for _ in range(200)], rate, before_send=stall)

    requests = asyncio.run(scenario())
    assert all(r.ok for r in requests)
    latencies = latencies_ms(requests)
    interval_ms = 1000.0 / rate
    # Requests due during the stall waited for it: due-time latency grows by
    # the part of the stall that was still ahead of them.
    for index in range(stall_at + 1, stall_at + 60):
        waited = stall_s * 1000.0 - (index - stall_at) * interval_ms
        assert latencies[index] >= waited - 1.0
        # Measured from the actual send instead, the stall would vanish.
        assert requests[index].done - requests[index].sent < 0.05
    # Requests well before the stall are unaffected.
    assert max(latencies[: stall_at - 5]) < 50.0


def test_a_rejection_is_completed_but_not_a_success():
    async def scenario():
        client = _InstantClient(reject_every=4)
        opened = await open_loop(client, [_Tx() for _ in range(100)], 2000.0)
        closed = await closed_loop(client, iter(_Tx, None), 8, 0.05)
        return opened, closed

    opened, closed = asyncio.run(scenario())
    for requests in (opened, closed):
        assert all(r.done is not None and r.ok != r.rejected for r in requests)
        rejected = sum(r.rejected for r in requests)
        assert rejected == pytest.approx(len(requests) / 4, abs=2)
        assert len(latencies_ms(requests)) == len(requests) - rejected
    assert sum(r.rejected for r in opened) == 25


def test_latency_runs_from_due_time():
    request = Request(kind="payment", due=1.0, sent=1.5, done=2.0, ok=True)
    assert request.latency == pytest.approx(1.0)


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "ok"),
    [
        ("p99_ms", True),
        ("transport.frames_per_tx", True),
        ("cluster.spawn-s", True),
        ("9lives", True),
        ("_hidden", False),
        ("has space", False),
        ("slash/name", False),
        ("x" * 65, False),
    ],
)
def test_metric_name_rule(name, ok):
    assert valid_metric_name(name) is ok


def test_every_reported_metric_name_is_legal_and_unique():
    names = list(report.END_TO_END) + list(report.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(report.PER_LAYER)
    for entry in spec["end_to_end"]:
        unit, better = report.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"]) == (unit, better)
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert (entry["unit"], entry["better"]) == report.PER_LAYER[entry["name"]]
    assert all(valid_metric_name(w["name"]) for w in spec["workloads"])
