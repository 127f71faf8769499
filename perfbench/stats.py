"""Statistics shared by every workload: the percentile rule and due-time latency.

Two rules from the benchmark's method live here so the tests can pin them:

* **Percentile rule.** A timing is reported as its median plus the highest
  percentile that still has at least :data:`MIN_BEYOND` samples beyond it,
  and the sample count is always reported next to it.  ``p99`` therefore
  needs at least 1,000 samples in its window.
* **Due-time accounting.** An open-loop request is timed from when it was
  *due* to be sent, not from when the generator got round to sending it, so
  a generator stall is charged to every request queued behind the stall.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the rule may pick, from the lowest to the highest tail.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Metric names: a letter or digit first, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(METRIC_NAME.match(name))


def samples_needed(percentile: float) -> int:
    """Fewest samples for which ``percentile`` has ``MIN_BEYOND`` beyond it."""
    # Rounded first: 100 - 99.9 is not exactly 0.1 in binary floating point.
    return math.ceil(round(MIN_BEYOND * 100.0 / (100.0 - percentile), 6))


def tail_percentile(count: int) -> float | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` that ``count`` supports."""
    best = None
    for percentile in PERCENTILE_LADDER:
        if count >= samples_needed(percentile):
            best = percentile
    return best


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already *sorted* ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    return samples[rank - 1]


@dataclass(frozen=True)
class Timing:
    """A latency distribution: its median, one tail percentile, and ``n``."""

    n: int
    p50: float
    tail_q: float
    tail: float


def timing(groups: Sequence[Sequence[float]], *, q: float = 99.0) -> Timing:
    """Median and ``q`` percentile over the samples of every group pooled.

    A group is one round of a run.  Raises ``ValueError`` when the pooled
    samples are too few for ``q`` under the percentile rule.
    """
    pooled = sorted(sample for samples in groups for sample in samples)
    if len(pooled) < samples_needed(q):
        raise ValueError(f"p{q:g} needs {samples_needed(q)} samples, got {len(pooled)}")
    return Timing(
        n=len(pooled),
        p50=statistics.median(pooled),
        tail_q=q,
        tail=percentile(pooled, q),
    )


@dataclass
class Request:
    """One open- or closed-loop request and its outcome."""

    kind: str
    #: When the request was due (open loop) or issued (closed loop).
    due: float
    sent: float = 0.0
    done: float | None = None
    #: ``f + 1`` matching replies said *committed*.
    ok: bool = False
    #: ``f + 1`` matching replies said *rejected* (completed, not committed).
    rejected: bool = False

    @property
    def latency(self) -> float:
        """Seconds from due time to the ``f + 1`` matching replies."""
        assert self.done is not None
        return self.done - self.due


def latencies_ms(requests: Sequence[Request], kind: str | None = None) -> list[float]:
    """Due-time latencies in ms of committed requests, in due order."""
    return [
        r.latency * 1000.0
        for r in sorted(requests, key=lambda r: r.due)
        if r.ok and (kind is None or r.kind == kind)
    ]


def late_ms(requests: Sequence[Request]) -> list[float]:
    """How late the generator sent each request, in ms (run validity)."""
    return [(r.sent - r.due) * 1000.0 for r in requests]
