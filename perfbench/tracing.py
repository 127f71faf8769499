"""Spans around the layers' public functions, recorded from outside ``src/``.

:func:`install` replaces each function named in :data:`LAYERS` with a
wrapper that records a span — name, start, end, parent span and a key such
as ``(instance, seq)`` or a tx id — and accumulates the layer's *self* time:
the span's duration minus the time of the spans nested inside it.  Spans
stay in memory; :meth:`Tracer.dump` writes them out when the process ends.

Every wrapped function is synchronous, so one stack per process is enough
to find each span's parent.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Loop-lag probe period (seconds).
LAG_PERIOD = 0.01


def _block_key(_self, block, *args, **kwargs):
    return (block.instance, block.sequence_number)


def _escrow_key(_self, _operation, tx, *args, **kwargs):
    return tx.tx_id


def _pbft_key(self, _sender, message, *args, **kwargs):
    return (self.instance_id, getattr(message, "sequence", None))


def _outcome_paths(outcomes, *_args, **_kwargs) -> dict[str, int]:
    """Confirmations by path (partial vs global) in one delivery's outcomes."""
    counts: dict[str, int] = defaultdict(int)
    for outcome in outcomes or ():
        counts[f"outcomes.{outcome.path.value}"] += 1
    return counts


def _wal_bytes(_result, _writer, record, *_args, **_kwargs) -> dict[str, int]:
    """Bytes one ``WalWriter.append`` added to the log.

    Counted per append because the writer's ``bytes_written`` drops back to
    the compacted size at every snapshot cut.
    """
    from repro.runtime.wal import encode_record

    return {"wal.bytes": len(encode_record(record))}


#: (module, qualified name, span name, key function).  A ``Class.method``
#: wraps that method on the class and on every subclass that overrides it;
#: a bare function is replaced in every ``repro`` module that imported it.
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.runtime.transport", "AsyncioTransport.send", "transport.send", None),
    ("repro.runtime.transport", "AsyncioTransport.broadcast", "transport.send", None),
    ("repro.runtime.codec", "encode_envelope", "codec.encode", None),
    ("repro.runtime.codec", "decode_envelope", "codec.decode", None),
    ("repro.runtime.codec", "decode_envelopes", "codec.decode", None),
    ("repro.cluster.replica", "MultiBFTReplica.receive", "replica.receive", None),
    ("repro.sb.pbft.endpoint", "PBFTEndpoint.handle_message", "pbft.handle", _pbft_key),
    ("repro.core.interfaces", "ConsensusCore.on_block_delivered", "core.deliver", _block_key),
    ("repro.core.interfaces", "ConsensusCore.select_batch", "core.select_batch", None),
    ("repro.ordering.base", "GlobalOrderer.on_deliver", "ordering.on_deliver", _block_key),
    ("repro.ledger.escrow", "EscrowLog.escrow", "ledger.escrow", _escrow_key),
    ("repro.ledger.state", "StateStore.state_digest", "ledger.state_digest", None),
    ("repro.runtime.wal", "WalWriter.append", "wal.append", None),
    ("repro.runtime.wal", "WalWriter.flush", "wal.flush", None),
    ("repro.runtime.durability", "write_snapshot", "snapshot.write", None),
    ("repro.runtime.durability", "ReplicaDurability.recover", "recovery.local", None),
    ("repro.obs.registry", "MetricsRegistry.snapshot", "obs.snapshot", None),
    ("repro.sim.simulator", "Simulator.run", "sim.run", None),
)

#: Span name -> function turning the wrapped call's result and arguments
#: into counts.  It runs after the span's clock stops.
OBSERVE: dict[str, Callable[..., dict[str, int]]] = {
    "core.deliver": _outcome_paths,
    "wal.append": _wal_bytes,
}

#: Modules whose import pulls in every class a subclass override could live in.
_PRELOAD = (
    "repro.cli",
    "repro.runtime.server",
    "repro.runtime.client",
    "repro.runtime.cluster",
    "repro.runtime.workers",
    "repro.protocols",
    "repro.ordering",
    "repro.experiments.engine",
)


class Tracer:
    """In-memory spans and per-layer self time for one process."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent id or -1, key)``.
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Counts taken from results (see :data:`OBSERVE`).
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        ids = self._ids
        clock = time.perf_counter
        observe = OBSERVE.get(name)
        open_spans = self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # [id, time of nested spans]
            stack.append(frame)
            open_spans[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                open_spans[name] -= 1
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                spans.append(
                    (span_id, name, start, end, parent, key(*args, **kwargs) if key else None)
                )
            # An override calling ``super()`` nests the same span: observe
            # only the outermost call so nothing is counted twice.
            if observe is not None and open_spans[name] == 0:
                for count, value in observe(result, *args, **kwargs).items():
                    counts[count] += value
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path: str, **extra: Any) -> None:
        """Write the spans and totals as one JSON document."""
        payload = {
            "pid": os.getpid(),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": [list(span) for span in self.spans],
            **extra,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle, default=str)
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYERS` (idempotent per function)."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for module_name, qualname, span, key in LAYERS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            _wrap_hierarchy(tracer, getattr(module, class_name), method, span, key)
        else:
            _wrap_function(tracer, module, qualname, span, key)


def _subclasses(cls: type) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _wrap_hierarchy(tracer: Tracer, cls: type, method: str, span: str, key) -> None:
    for klass in _subclasses(cls):
        original = klass.__dict__.get(method)
        if original is None or getattr(original, "__wrapped_by_perfbench__", False):
            continue
        setattr(klass, method, tracer.wrap(span, original, key))


def _wrap_function(tracer: Tracer, module, name: str, span: str, key) -> None:
    original = getattr(module, name)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    traced = tracer.wrap(span, original, key)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, traced)


class LoopLagProbe:
    """Samples how late the event loop wakes a periodic sleeper."""

    def __init__(self, period: float = LAG_PERIOD) -> None:
        self.period = period
        self.lags: list[float] = []
        self.task: asyncio.Task | None = None

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due = loop.time() + self.period
            await asyncio.sleep(self.period)
            self.lags.append(loop.time() - due)


def self_seconds(spans: list[list]) -> dict[str, float]:
    """Per-name self time recomputed from raw spans (checks the online sums)."""
    by_id = {span[0]: span for span in spans}
    nested: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] in by_id:
            nested[span[4]] += span[3] - span[2]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += span[3] - span[2] - nested[span[0]]
    return dict(totals)
