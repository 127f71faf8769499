"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload payments --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
that adds a traced round.  The lines before it are a readable table and a
JSON record of the seed, the host and the workload's shape.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("payments", "straggler_mixed", "durable_churn", "sim_fig3")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare(workload: str) -> Path:
    """Find the source tree and keep every file the run makes inside the checkout."""
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {source}; run from a checkout root")
    sys.path.insert(0, str(source))
    work = Path.cwd() / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Replicas inherit this, so their temp files land in the checkout too.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    return work


def _host_record(args, shape: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "shape": shape,
    }


def _emit(attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """The result line of a run that passed its gate."""
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def _table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:<32} {value:>14.6g} {units[name][0]}")


def _print_timings(timings: dict) -> None:
    from stats import tail_percentile

    print("== latency samples")
    for kind, t in timings.items():
        print(
            f"  {kind:<9} n={t.n:<7} p50={t.p50:9.3f} ms  p{t.tail_q:g}={t.tail:9.3f} ms "
            f"(n supports up to p{tail_percentile(t.n):g})"
        )


def _print_accounting(rows: list[dict]) -> None:
    print("== traced-run accounting (self seconds per layer vs process CPU)")
    for row in rows:
        print(
            f"  {row['process']:<14} cpu={row['cpu_s']:8.3f}s "
            f"attributed={row['attributed_s']:8.3f}s "
            f"trace.attributed_frac={row['attributed_frac']:.3f} "
            f"loop_lag_p99={row['loop_lag_p99_ms']:.2f}ms"
        )
        for span, seconds in sorted(row["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"      {span:<22} {seconds:9.4f}s")


def _run_live(args, work: Path) -> int:
    import live
    import report

    shape = live.SHAPES[args.workload]
    print(json.dumps(_host_record(args, shape.describe())))
    rounds, traced = asyncio.run(
        live.run_rounds(shape, args.seed, args.seconds, work, trace=bool(args.trace))
    )
    attempted = sum(r.submitted for r in rounds)
    failed = sum(r.failed for r in rounds)
    _print_timings(report.live_timings(rounds))
    end_to_end = report.live_end_to_end(rounds)
    _table("end-to-end", end_to_end, report.END_TO_END)
    if not args.trace:
        _emit(attempted, failed, end_to_end, report.END_TO_END)
        return 0
    per_layer, rows = report.live_per_layer(rounds[0], traced)
    _print_accounting(rows)
    _table("per-layer", per_layer, report.PER_LAYER)
    _emit(attempted + traced.submitted, failed + traced.failed, per_layer, report.PER_LAYER)
    return 0


def _run_sim(args) -> int:
    import procfs
    import report
    import sim
    import tracing

    print(json.dumps(_host_record(args, {"cells": [s.label() for s in sim.fig3_specs(args.seed)]})))
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = sim.run_sim(args.seed, seconds)
    cells = len(passes) * len(passes[0].cells)
    _print_timings(report.sim_timings(passes))
    end_to_end = report.sim_end_to_end(passes, procfs.peak_rss_mb(os.getpid()))
    _table("end-to-end", end_to_end, report.END_TO_END)
    if not args.trace:
        _emit(cells, 0, end_to_end, report.END_TO_END)
        return 0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    with sim.DelayCounter() as delays:
        traced = sim.run_pass(sim.fig3_specs(args.seed))
    sim.check([passes[0], traced], args.seed)
    per_layer, rows = report.sim_per_layer(passes, traced, tracer, delays.draws)
    _print_accounting(rows)
    _table("per-layer", per_layer, report.PER_LAYER)
    _emit(cells + len(traced.cells), 0, per_layer, report.PER_LAYER)
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    work = _prepare(args.workload)
    try:
        from live import GateError

        try:
            if args.workload == "sim_fig3":
                return _run_sim(args)
            return _run_live(args, work)
        except GateError as error:
            print(f"correctness gate failed: {error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
