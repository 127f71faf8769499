"""Open- and closed-loop load from one single-threaded asyncio process.

The benchmark schedules sends itself instead of using ``repro loadgen``:
an open-loop request is due at ``start + i / rate`` and its latency runs
from that due time to the ``f + 1`` matching replies, so a stalled
generator shows up as latency on everything queued behind the stall (see
:mod:`stats`).  Both loops drive one :class:`OrthrusClient`.

Only a *committed* outcome counts as a success (``Request.ok``): the client
also completes a transaction whose ``f + 1`` matching replies reject it,
and every per-transaction figure divides by committed transactions, so
rejections are kept apart (``Request.rejected``).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterable, Iterator

from stats import Request

from repro.runtime.client import ClientError

#: Submissions between two flow-control drains of the client's sockets.
FLUSH_EVERY = 64


def _kind(tx) -> str:
    return "payment" if tx.is_payment else "contract"


def _settle(request: Request, result) -> None:
    """Record a completed submission's verdict on ``request``."""
    request.ok = result.committed
    request.rejected = not result.committed


def _track(loop: asyncio.AbstractEventLoop, future: asyncio.Future, request: Request) -> None:
    def done(fut: asyncio.Future) -> None:
        request.done = loop.time()
        if not fut.cancelled() and fut.exception() is None:
            _settle(request, fut.result())

    future.add_done_callback(done)


async def open_loop(
    client,
    transactions: Iterable,
    rate_tps: float,
    *,
    start: float | None = None,
    before_send: Callable[[int], None] | None = None,
) -> list[Request]:
    """Send ``transactions`` at ``rate_tps`` and wait for every outcome.

    ``before_send(index)`` runs just before each send; the tests use it to
    inject a generator stall.
    """
    loop = asyncio.get_running_loop()
    interval = 1.0 / rate_tps
    start = loop.time() if start is None else start
    requests: list[Request] = []
    futures: list[asyncio.Future] = []
    for index, tx in enumerate(transactions):
        due = start + index * interval
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if before_send is not None:
            before_send(index)
        request = Request(kind=_kind(tx), due=due, sent=loop.time())
        future = client.submit_nowait(tx)
        _track(loop, future, request)
        requests.append(request)
        futures.append(future)
        if index % FLUSH_EVERY == FLUSH_EVERY - 1:
            await client.flush()
    await asyncio.gather(*futures, return_exceptions=True)
    # Done callbacks run one loop iteration after the futures resolve.
    await asyncio.sleep(0)
    return requests


async def closed_loop(
    client, transactions: Iterator, concurrency: int, seconds: float
) -> list[Request]:
    """``concurrency`` callers that each wait for a reply before sending again.

    Callers stop issuing after ``seconds``; what they issued before is
    awaited, so count throughput with :func:`completed_within`.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    deadline = start + seconds
    requests: list[Request] = []

    async def caller() -> None:
        while loop.time() < deadline:
            tx = next(transactions)
            now = loop.time()
            request = Request(kind=_kind(tx), due=now, sent=now)
            requests.append(request)
            try:
                _settle(request, await client.submit(tx))
            except ClientError:  # a failed submission is counted, not raised
                pass
            request.done = loop.time()

    await asyncio.gather(*(caller() for _ in range(concurrency)))
    return requests


def completed_within(requests: list[Request], start: float, end: float) -> int:
    """Committed completions inside ``[start, end]``."""
    return sum(1 for r in requests if r.ok and r.done is not None and start <= r.done <= end)
