"""Host-speed probe: times measured on a shared host, stated for a quiet one.

The reference host gives this benchmark two vCPUs of a shared machine, and
each of them flips — independently, for anything from a fraction of a
second to a minute — between a quiet state and contended states in which
the same single-threaded Python runs 1.3x to 4x slower.  A 15 s window
lands in whatever mix of states the neighbours produce, so raw medians of
runs of the *same* code spread 20-35 %, more than any bound could allow.

Two measures take that out, and both are the benchmark's, not the
program's:

* ``pin()`` keeps the process on one CPU.  Under the GIL one thread runs at
  a time anyway (pinned, ``serve_warm`` is *faster*: no cross-core GIL
  hand-off), and the probe then samples the very core the work runs on.
* ``Meter`` cuts the run into short segments and times a fixed piece of
  plain-Python work — ``probe()`` — on both sides of each.  A segment's
  times are multiplied by ``REFERENCE_MS / probe time``: they are stated as
  on a host where the probe takes ``REFERENCE_MS``.  The probe is none of
  the program's code, so no change to the program moves it.

What is left after scaling is a 3-7 % spread between runs; the raw values
are printed beside the scaled ones (``# raw`` lines, ``host.probe_ms``).
"""

from __future__ import annotations

import os
import statistics
import time

#: Quiet-state time of ``probe()`` on the reference host (Xeon 2.1 GHz vCPU,
#: CPython 3.11): scaled times read as measured there on a quiet core.
REFERENCE_MS = 0.85
PROBE_PASSES = 4  # the first pass re-warms the CPU caches the program just used

# Shaped like the engine's inner loops: tuples scanned, a predicate call,
# a dict of small lists updated, a result list built.
_ROWS = [(i, (i * 7919) % 900, (i * 31) % 1440, i % 25) for i in range(5000)]


def _between(row: tuple, lo: int, hi: int) -> bool:
    return lo <= row[1] <= hi


def _work() -> list:
    groups: dict[tuple, list] = {}
    for row in list(_ROWS):
        if row[3] > 2 and _between(row, 100, 700):
            key = (row[1], row[3])
            acc = groups.get(key)
            if acc is None:
                groups[key] = [row[2], 1]
            else:
                acc[0] += row[2]
                acc[1] += 1
    return [(key, acc[0] / acc[1]) for key, acc in groups.items()]


def probe() -> float:
    """Fastest of ``PROBE_PASSES`` timed passes of the fixed work, in ms."""
    best = float("inf")
    for _ in range(PROBE_PASSES):
        begin = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - begin)
    return best * 1000.0


def pin() -> int | None:
    """Keep this process (and the threads it starts later) on one CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


class Meter:
    """Consecutive segments of wall time, each with the host-speed scale
    measured on both of its sides.  Probe time is in no segment."""

    def __init__(self) -> None:
        self.probes = [probe()]
        self._begin = time.perf_counter()

    def mark(self) -> tuple[float, float]:
        """Close the segment since the previous mark (or construction).
        Returns (its raw seconds, the factor that scales its times)."""
        raw = time.perf_counter() - self._begin
        self.probes.append(probe())
        scale = REFERENCE_MS / statistics.mean(self.probes[-2:])
        self._begin = time.perf_counter()
        return raw, scale

    def median_probe_ms(self) -> float:
        return statistics.median(self.probes)
