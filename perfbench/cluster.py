"""A :class:`LocalCluster` whose files all live under the benchmark's work dir.

Two things differ from the stock supervisor, both without touching it:

* Unix-socket endpoints sit under a short *relative* directory, because a
  socket path is limited to ~107 bytes and the checkout may be deep.
* A traced run starts each replica through ``replica_entry.py``, which wraps
  the layers' public functions and then runs the normal ``repro serve``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro.runtime.cluster import LocalCluster

ENTRY = Path(__file__).resolve().parent / "replica_entry.py"


class BenchCluster(LocalCluster):
    """``LocalCluster`` with relative UDS paths and an optional traced entry."""

    def __init__(self, spec, *, work: Path, spans_dir: Path | None = None) -> None:
        self._work = work
        self.spans_dir = spans_dir
        self._spawns: dict[int, int] = {}
        super().__init__(spec)

    def _pick_endpoints(self):
        if self._socket_dir is None:
            self._work.mkdir(parents=True, exist_ok=True)
            directory = tempfile.mkdtemp(prefix="s", dir=self._work)
            self._socket_dir = Path(os.path.relpath(directory))
        return tuple(
            (f"unix:{self._socket_dir / f'r{index}.sock'}", 0)
            for index in range(self.spec.num_replicas)
        )

    def serve_command(self, replica_id: int, *, recovery: str = "snapshot") -> list[str]:
        command = super().serve_command(replica_id, recovery=recovery)
        if self.spans_dir is None:
            return command
        # [python, -m, repro.cli, serve, ...] -> [python, entry, --out F, serve, ...]
        # A restarted replica writes a second file rather than overwrite.
        self._spawns[replica_id] = self._spawns.get(replica_id, 0) + 1
        out = self._span_file(replica_id, self._spawns[replica_id])
        return [sys.executable, str(ENTRY), "--out", str(out), *command[3:]]

    def _span_file(self, replica_id: int, spawn: int) -> Path:
        return self.spans_dir / f"replica-{replica_id}-{spawn}.json"

    def last_span_files(self) -> list[Path]:
        """The span file of each replica's latest process (the ones stopped gracefully)."""
        return [self._span_file(replica, spawn) for replica, spawn in sorted(self._spawns.items())]

    @property
    def pids(self) -> list[int]:
        return [process.pid for process in self.processes]
