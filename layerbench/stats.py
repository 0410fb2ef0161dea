"""Small statistics shared by the harness: percentiles, spreads, /proc CPU.

Pure functions over plain lists, so ``layerbench/tests`` can pin them
without building a deployment.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, Optional, Sequence, Tuple

from repro.load.closedloop import percentile as _sorted_percentile


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (p in [0, 100]) of unsorted values:
    the launcher's own percentile math, minus its silent 0 for no samples."""
    if not values:
        raise ValueError("percentile of no samples")
    return _sorted_percentile(sorted(values), p)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the p-th percentile. A tail
    percentile is only trustworthy with at least ten; the count is reported
    beside the gated tail percentile so a reader can tell."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def iqr_over_median(values: Sequence[float]) -> float:
    """Run-to-run spread the driver judges: (Q3 - Q1) / median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


# -- /proc/<pid>/stat ---------------------------------------------------------


def parse_proc_stat(text: str) -> Tuple[str, int, int]:
    """(comm, utime_ticks, stime_ticks) from one ``/proc/<pid>/stat`` line.

    ``comm`` sits in parentheses and may itself contain spaces and
    parentheses (``(tmux: server (1))``), so the fields are located
    relative to the *last* closing parenthesis, never by naive split.
    """
    open_at = text.index("(")
    close_at = text.rindex(")")
    comm = text[open_at + 1 : close_at]
    rest = text[close_at + 1 :].split()
    # rest[0] is field 3 (state); utime/stime are fields 14/15.
    return comm, int(rest[11]), int(rest[12])


def cpu_seconds(pid: int) -> Optional[float]:
    """utime + stime of ``pid`` in seconds; None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8", errors="replace") as handle:
            _comm, utime, stime = parse_proc_stat(handle.read())
    except (OSError, ValueError, IndexError):
        return None
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def sample_cpu(pids: Dict[str, int]) -> Dict[str, float]:
    """CPU seconds per named process, skipping any that already exited."""
    sample = {}
    for name, pid in pids.items():
        seconds = cpu_seconds(pid)
        if seconds is not None:
            sample[name] = seconds
    return sample
