"""Traced replica process: wrap the layers, then run the normal ``repro serve``.

Usage (as :class:`cluster.BenchCluster` spawns it)::

    python perfbench/replica_entry.py --out SPANS.json serve --replica-id 0 ...

Everything after ``--out FILE`` is passed to ``repro.cli.main`` unchanged.
At exit the spans, the per-layer self time, the process's own CPU seconds
and the loop-lag samples are written to ``FILE``.
"""

from __future__ import annotations

import os
import signal
import sys


def _stop(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out":
        print("usage: replica_entry.py --out FILE serve ...", file=sys.stderr)
        return 2
    out, serve_args = argv[1], argv[2:]

    import tracing
    from repro.cli import main as cli_main
    from repro.runtime.server import ReplicaServer

    tracer = tracing.Tracer()
    tracing.install(tracer)
    probe = tracing.LoopLagProbe()
    start = ReplicaServer.start

    async def start_with_probe(self) -> None:
        await start(self)
        probe.start()

    ReplicaServer.start = start_with_probe
    # ``repro serve`` installs its graceful SIGTERM handler only once start-up
    # returns; a restarted replica still in its start-up state transfer would
    # otherwise die on SIGTERM without writing its spans.
    signal.signal(signal.SIGTERM, _stop)
    code = 1
    try:
        code = cli_main(serve_args)
    finally:
        times = os.times()
        tracer.dump(
            out,
            cpu_s=times.user + times.system,
            loop_lags=probe.lags,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
