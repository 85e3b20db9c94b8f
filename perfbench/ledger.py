"""Span ledger, percentiles and process accounting for the benchmark.

The ledger records spans from the benchmark's own code, around the
public calls into each layer.  Spans nest strictly (one thread), so a
span's self time is its duration minus the durations of its direct
children.  Only per-name totals are kept, in memory, and read out when
the run ends.
"""

from __future__ import annotations

import math
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence

#: Samples a percentile needs strictly beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond the rank, so a reported p90 always rests on at
    least ten slower requests.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return sorted(values)[rank - 1]


class Ledger:
    """Per-name span totals: calls, inclusive seconds and self seconds."""

    def __init__(self) -> None:
        self._stack: List[float] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def _close(self, name: str, started: float) -> None:
        duration = time.perf_counter() - started
        children = self._stack.pop()
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started)

    def copy(self) -> "Ledger":
        """The totals so far; spans that end later do not reach the copy."""
        other = Ledger()
        for mine, theirs in (
            (self.calls, other.calls),
            (self.total_s, other.total_s),
            (self.self_s, other.self_s),
            (self.counts, other.counts),
        ):
            theirs.update(mine)
        return other

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, started)

        return traced


@contextmanager
def patched(owner: Any, name: str, replacement: Any) -> Iterator[None]:
    """Temporarily replace ``owner.name`` (restored on exit)."""
    original = owner.__dict__[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# --------------------------------------------------------------------- #
# Process accounting (Linux /proc, with a getrusage fallback)            #
# --------------------------------------------------------------------- #
_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (0.0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", "r") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == os.getpid():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0
