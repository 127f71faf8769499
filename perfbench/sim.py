"""``sim_fig3``: four Fig. 3 cells of the deterministic simulator, in-process.

{orthrus, ladon} x {no straggler, one 10x straggler}, 16 replicas, WAN,
40 simulated seconds with 8 s warm-up, no result cache, one job.  A run
repeats the four cells (a *pass*) as often as its seconds hold.  The cells'
outputs must repeat exactly from pass to pass, and for seeds listed in
``sim_expected.json`` must equal the values the simulator produced when the
benchmark was written.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import procfs
from live import GateError

from repro.bench.report import host_speed_score
from repro.cluster.pipeline import PipelineCluster
from repro.experiments.engine import ExperimentEngine, FaultSpec, ScenarioSpec
from repro.net.latency import LatencyModel

EXPECTED = Path(__file__).resolve().parent / "sim_expected.json"


def fig3_specs(seed: int) -> list[ScenarioSpec]:
    return [
        ScenarioSpec(
            protocol=protocol,
            num_replicas=16,
            environment="wan",
            duration=40.0,
            warmup=8.0,
            seed=seed,
            faults=FaultSpec.with_straggler(instance=1) if straggler else FaultSpec.none(),
        )
        for protocol in ("orthrus", "ladon")
        for straggler in (False, True)
    ]


#: Wall seconds of one pass of the four cells on a 2-vCPU Xeon VM.
PASS_SECONDS = 4.6

#: Host speed score (ops/s, ``host_speed_score``) that CPU time is scaled
#: to: about what a quiet 2-vCPU Xeon VM scores.  Only ratios to it matter.
#: The same host drifts by a quarter between quiet and busy periods (other
#: guests sharing its cores), and the CPU seconds of one busy thread drift
#: with it, so a pass's CPU is scaled by the score measured around it.
REFERENCE_SPEED = 400_000.0

#: ``fig3_specs`` order: orthrus, orthrus + straggler, ladon, ladon + straggler.
#: Simulated latencies are reported for ``ORTHRUS_SLOW``: the paper's
#: deployment claim is that Orthrus payments leave a straggler behind.
ORTHRUS_SLOW, LADON, LADON_SLOW = 1, 2, 3


@dataclass
class Cell:
    """One simulated cell as the benchmark saw it."""

    label: str
    build_s: float
    events: int
    #: ``(kind, simulated seconds)`` per finished transaction, in submit order.
    latencies: list[tuple[str, float]]
    #: The engine's own summary, compared across passes and to the record.
    summary: dict


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Host speed score, mean of one taken before and one after the pass.
    speed: float
    cells: list[Cell] = field(default_factory=list)

    @property
    def confirmed(self) -> int:
        return sum(cell.summary["confirmed"] for cell in self.cells)

    @property
    def cpu_ms_per_tx(self) -> float:
        """CPU ms per simulated confirmed transaction, at the reference speed."""
        return self.cpu_s * 1000.0 / self.confirmed * self.speed / REFERENCE_SPEED


class _Probe:
    """Times cell construction and reads each cell's raw latencies.

    Patches :class:`PipelineCluster` in this process only, for one pass.
    """

    def __init__(self) -> None:
        self.builds: list[float] = []
        self.runs: list[tuple[list, int]] = []

    def __enter__(self) -> "_Probe":
        probe = self
        self._init, self._run = PipelineCluster.__init__, PipelineCluster.run
        init, run = self._init, self._run

        def timed_init(cluster, *args, **kwargs):
            start = time.perf_counter()
            init(cluster, *args, **kwargs)
            probe.builds.append(time.perf_counter() - start)

        def observed_run(cluster):
            metrics = run(cluster)
            timelines = sorted(
                (t for t in cluster.metrics.latency.timelines() if t.end_to_end is not None),
                key=lambda t: (t.submitted_at, t.tx_id),
            )
            probe.runs.append(
                (
                    [(_kind(t.tx_id), t.end_to_end) for t in timelines],
                    cluster.sim.processed_events,
                )
            )
            return metrics

        PipelineCluster.__init__ = timed_init
        PipelineCluster.run = observed_run
        return self

    def __exit__(self, *exc_info) -> None:
        PipelineCluster.__init__, PipelineCluster.run = self._init, self._run


def _kind(tx_id: str) -> str:
    return "payment" if tx_id.startswith("pay-") else "contract"


def _summary(metrics) -> dict:
    latency = metrics.latency
    return {
        "throughput_tps": metrics.throughput_tps,
        "latency_median": latency.median,
        "latency_p95": latency.p95,
        "latency_mean": latency.mean,
        "confirmed": metrics.confirmed,
        "partial_path": metrics.partial_path,
        "global_path": metrics.global_path,
    }


def run_pass(specs: list[ScenarioSpec]) -> Pass:
    """Run the four cells once; returns what the pass measured."""
    speed_before = host_speed_score()
    with _Probe() as probe:
        cpu0 = procfs.self_cpu_seconds()
        start = time.perf_counter()
        engine = ExperimentEngine(cache_dir=None, jobs=1)
        engine_s = time.perf_counter() - start
        results = [engine.run_one(spec) for spec in specs]
        wall = time.perf_counter() - start
        cpu = procfs.self_cpu_seconds() - cpu0
    speed = (speed_before + host_speed_score()) / 2
    cells = [
        Cell(
            label=spec.label(),
            build_s=build,
            events=events,
            latencies=latencies,
            summary=_summary(result.metrics),
        )
        for spec, result, build, (latencies, events) in zip(
            specs, results, probe.builds, probe.runs
        )
    ]
    return Pass(
        setup_s=engine_s + sum(probe.builds), wall_s=wall, cpu_s=cpu, speed=speed, cells=cells
    )


def check(passes: list[Pass], seed: int) -> None:
    """The sim gate: exact repetition, the recorded values, the paper's shape."""
    first = [cell.summary for cell in passes[0].cells]
    for other in passes[1:]:
        if [cell.summary for cell in other.cells] != first:
            raise GateError("simulator outputs differ between passes of one seed")
    expected = json.loads(EXPECTED.read_text()).get(str(seed))
    if expected is not None and expected != first:
        raise GateError(f"simulator outputs for seed {seed} differ from {EXPECTED.name}")
    if not first[ORTHRUS_SLOW]["partial_path"] or (
        first[LADON]["partial_path"] or first[LADON_SLOW]["partial_path"]
    ):
        raise GateError("only Orthrus cells may confirm on the partial path")
    if first[ORTHRUS_SLOW]["latency_median"] >= first[LADON_SLOW]["latency_median"]:
        raise GateError("Orthrus must confirm faster than Ladon under a straggler")


def expected_record(seed: int) -> list[dict]:
    """The summaries one pass produces now (to refresh ``sim_expected.json``)."""
    return [cell.summary for cell in run_pass(fig3_specs(seed)).cells]


def run_sim(seed: int, seconds: float) -> list[Pass]:
    """As many passes as ``seconds`` hold on the reference host (at least two).

    The count depends only on ``seconds``, so a slow host runs longer rather
    than doing less work, and peak memory compares like with like.
    """
    specs = fig3_specs(seed)
    passes = [run_pass(specs) for _ in range(max(2, int(seconds // PASS_SECONDS)))]
    check(passes, seed)
    return passes


class DelayCounter:
    """Counts modelled message delays (one per simulated message hop)."""

    def __init__(self) -> None:
        self.draws = 0

    def __enter__(self) -> "DelayCounter":
        self._saved = {}
        counter = self
        for klass in [LatencyModel, *LatencyModel.__subclasses__()]:
            original = klass.__dict__.get("delay")
            if original is None:
                continue
            self._saved[klass] = original

            def delay(model, *args, _original=original, **kwargs):
                counter.draws += 1
                return _original(model, *args, **kwargs)

            klass.delay = delay
        return self

    def __exit__(self, *exc_info) -> None:
        for klass, original in self._saved.items():
            klass.delay = original
