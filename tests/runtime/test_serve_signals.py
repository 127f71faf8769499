"""A polite stop during start-up still shuts a durable replica down cleanly.

Start-up (local recovery, then state transfer from peers) already appends
to the WAL.  A SIGTERM that lands inside that window must run the graceful
shutdown path — exit code 0, WAL tail flushed — instead of killing the
process with records still in the writer's buffer.

The replica runs in a child process whose state transfer is replaced by a
stand-in: it persists one transferred block, announces itself on stdout and
then stalls, so the test can deliver SIGTERM at a known point of start-up.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.runtime.cluster import free_port
from repro.runtime.wal import WAL_FILE_NAME, read_wal

#: Child program: a durable replica whose start-up stalls in state transfer.
_CHILD = textwrap.dedent(
    """
    import asyncio
    import sys

    from repro.ledger.blocks import Block
    from repro.runtime.config import ReplicaRuntimeConfig
    from repro.runtime.server import ReplicaServer, run_server

    async def stalled_transfer(self):
        core = self.replica.core
        block = Block.create(
            instance=0,
            sequence_number=0,
            transactions=[],
            state=core.delivered_state(),
            proposer=0,
            rank=core.next_rank() if core.uses_ranks else None,
        )
        self.durability.record_transferred_block(block)
        print("transferring", flush=True)
        await asyncio.sleep(60)
        return 1, [0] * core.config.num_instances

    ReplicaServer._state_transfer = stalled_transfer
    ports = [int(port) for port in sys.argv[2:]]
    config = ReplicaRuntimeConfig(
        replica_id=0,
        peers=tuple(("127.0.0.1", port) for port in ports),
        num_instances=2,
        run_dir=sys.argv[1],
    )
    asyncio.run(run_server(config))
    """
)


def test_sigterm_during_start_up_exits_gracefully_with_wal_flushed(tmp_path):
    run_dir = tmp_path / "replica-0"
    ports = [str(free_port()) for _ in range(4)]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).resolve().parents[1])
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(run_dir), *ports],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        ready, _, _ = select.select([process.stdout], [], [], 20.0)
        assert ready, "the replica never reached state transfer"
        assert process.stdout.readline().strip() == "transferring"
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=20)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0, stderr
    blocks = [record for record in read_wal(run_dir / WAL_FILE_NAME) if record["k"] == "b"]
    assert [(b["blk"]["instance"], b["blk"]["sequence_number"]) for b in blocks] == [(0, 0)]
