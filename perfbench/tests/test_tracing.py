"""Span bookkeeping of the traced run: parents, keys and self time."""

from __future__ import annotations

import time

import tracing


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap("outer", outer)()

    assert tracer.calls == {"leaf": 2, "outer": 1}
    assert 0.035 < tracer.self_s["leaf"] < 0.1
    assert 0.008 < tracer.self_s["outer"] < 0.03
    # The same split, recomputed from the raw spans.
    recomputed = tracing.self_seconds([list(span) for span in tracer.spans])
    assert recomputed["leaf"] == tracer.self_s["leaf"]
    assert abs(recomputed["outer"] - tracer.self_s["outer"]) < 1e-9
    outer_id = next(span[0] for span in tracer.spans if span[1] == "outer")
    assert [span[4] for span in tracer.spans if span[1] == "leaf"] == [outer_id, outer_id]


def test_keys_and_counts_come_from_arguments_and_results():
    tracer = tracing.Tracer()

    class Block:
        instance, sequence_number = 2, 7

    class Path:
        value = "partial"

    class Outcome:
        path = Path()

    deliver = tracer.wrap(
        "core.deliver", lambda self, block: [Outcome(), Outcome()], tracing._block_key
    )
    deliver(None, Block())
    assert tracer.spans[0][5] == (2, 7)
    assert tracer.counts == {"outcomes.partial": 2}


def test_a_failing_call_still_closes_its_span():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("boom", boom)
    try:
        traced()
    except KeyError:
        pass
    assert tracer.calls["boom"] == 1
    assert tracer._stack == []



def test_wal_bytes_are_counted_per_append(tmp_path):
    from repro.runtime.wal import WalWriter

    tracer = tracing.Tracer()
    writer = WalWriter(tmp_path / "wal.jsonl")
    append = tracer.wrap("wal.append", WalWriter.append)
    append(writer, {"t": "b", "i": 0, "s": 1})
    append(writer, {"t": "b", "i": 1, "s": 1, "x": "y" * 100})
    writer.flush()
    assert tracer.counts == {"wal.bytes": writer.path.stat().st_size}
