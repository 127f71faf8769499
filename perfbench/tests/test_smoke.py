"""Reduced-size runs of every workload, each of which must pass its gate.

The live smokes start real four-process clusters (a few seconds each);
``sim_fig3`` runs its four cells over a shortened simulated window.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

import live
import report
import sim


@pytest.mark.parametrize("name", sorted(live.SHAPES))
def test_live_workload_passes_its_gate(name, tmp_path):
    shape = live.SHAPES[name]
    # run_round raises GateError when the gate fails.
    result = asyncio.run(live.run_round(shape, 7, 2.0, tmp_path, 0))
    assert result.failed == 0
    assert result.submitted == result.completed
    assert all(r.ok for r in result.open_requests)
    assert len({s.state_digest for s in result.statuses}) == 1
    if shape.closed_concurrency:
        assert result.peak_tps > 0
    if shape.churn_share:
        assert result.caught_up_at >= result.restart_at > result.kill_at > 0


def test_traced_round_writes_spans_for_every_replica(tmp_path):
    shape = live.SHAPES["payments"]
    plain = asyncio.run(live.run_round(shape, 7, 2.0, tmp_path, 0))
    traced = asyncio.run(live.run_round(shape, 7, 2.0, tmp_path, 1, traced=True))
    assert [p.name for p in traced.span_files] == [
        f"replica-{i}-1.json" for i in range(4)
    ]
    metrics, rows = report.live_per_layer(plain, traced)
    assert set(metrics) == set(report.PER_LAYER)
    assert len(rows) == 4
    assert metrics["codec.decode_s_per_tx"] > 0
    assert metrics["pbft.handle_self_s_per_tx"] > 0
    assert 0 < metrics["trace.attributed_frac"] <= 1.0
    assert metrics["core.partial_share"] == pytest.approx(1.0)


def test_sim_cells_repeat_and_keep_the_paper_shape():
    specs = [dataclasses.replace(spec, duration=12.0, warmup=2.0) for spec in sim.fig3_specs(3)]
    passes = [sim.run_pass(specs), sim.run_pass(specs)]
    sim.check(passes, seed=-1)  # -1 has no recorded values: repetition + shape only
    end_to_end = report.sim_end_to_end(passes, rss_mb=1.0)
    assert set(end_to_end) == set(report.END_TO_END)
    assert all(value > 0 for value in end_to_end.values())
