"""CPU and memory of processes, read from ``/proc`` (Linux)."""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` so far (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode()
    except OSError:
        return 0.0
    # The command name (field 2) may hold spaces; fields after it are fixed.
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_cpu_seconds() -> float:
    """User plus system CPU of this process, all threads included."""
    times = os.times()
    return times.user + times.system

