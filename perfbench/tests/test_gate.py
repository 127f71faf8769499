"""The live correctness gate, on hand-made replica statuses."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from live import CHURN_REPLICA, GateError, gate
from stats import Request


def _requests(committed: int, rejected: int) -> list[Request]:
    return [Request(kind="payment", due=0.0, done=1.0, ok=True) for _ in range(committed)] + [
        Request(kind="payment", due=0.0, done=1.0, rejected=True) for _ in range(rejected)
    ]


def _load(completed: int, failed: int = 0):
    return SimpleNamespace(submitted=completed + failed, completed=completed, failed=failed)


def _statuses(committed: int, rejected: int, **overrides):
    statuses = [
        SimpleNamespace(replica=i, committed=committed, rejected=rejected, view_changes=0)
        for i in range(4)
    ]
    for replica, values in overrides.items():
        for key, value in values.items():
            setattr(statuses[int(replica[1:])], key, value)
    return statuses


QUIET = {i: {} for i in range(4)}


def test_a_round_that_agrees_with_the_client_passes():
    gate(_statuses(90, 10), QUIET, _load(100), _requests(90, 10), churned=False)


def test_rejections_do_not_count_as_commits():
    # The client was told of 90 commits; a replica that committed only 80
    # fails even though it executed all 100.
    statuses = _statuses(90, 10, r2={"committed": 80, "rejected": 20})
    with pytest.raises(GateError, match="replica 2 committed 80"):
        gate(statuses, QUIET, _load(100), _requests(90, 10), churned=False)


def test_every_completion_must_be_a_commit_or_a_rejection():
    with pytest.raises(GateError, match="client completed 100"):
        gate(_statuses(90, 10), QUIET, _load(100), _requests(90, 5), churned=False)


def test_view_changes_and_lost_frames_fail_outside_the_kill():
    lossy = {i: {"transport.frames_dropped": float(i == 1)} for i in range(4)}
    with pytest.raises(GateError, match="lost frames"):
        gate(_statuses(90, 10), lossy, _load(100), _requests(90, 10), churned=False)
    gate(_statuses(90, 10), lossy, _load(100), _requests(90, 10), churned=True)


def test_after_the_kill_only_the_restarted_and_transferred_replicas_are_exempt():
    metrics = {i: {"durability.catch_ups": float(i == 0)} for i in range(4)}
    behind = {f"r{CHURN_REPLICA}": {"committed": 3}, "r0": {"committed": 5}}
    gate(_statuses(90, 10, **behind), metrics, _load(100), _requests(90, 10), churned=True)
    with pytest.raises(GateError, match="replica 1"):
        gate(
            _statuses(90, 10, r1={"committed": 89}),
            metrics,
            _load(100),
            _requests(90, 10),
            churned=True,
        )
