"""Timing against the machine's momentary speed.

This benchmark runs on a few cores of a host shared with other tenants.
Their load slows the same Python code by up to 1.8x for stretches of a
fraction of a second to minutes, and CPU time slows with wall time, so the
cores slow, not the scheduling.  Such a stretch can cover a whole run, so
no statistic of wall times alone tells a slow machine from slow code.

So the benchmark measures the machine alongside the program: every
``EVERY_S`` seconds of measured time it times a fixed set of small pieces
of work (the calibration units), and it scales each measured interval by
how fast the units ran around it.  The units use only the standard library
and numpy, never gtx, so a change to gtx cannot change them.  Each mirrors
one kind of work gtx does, and no single kind tracks every workload: the
host's slow stretches slow some kinds more than others.  A time in
*reference seconds* is what the interval would have taken had the units run
in their reference times, which they take on this host in its fast
stretches.  The units' own time is taken off the clock, so it never counts
as the program's.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from time import perf_counter

# Runs of each unit per calibration; the fewest seconds of them count.
REPEATS = 3
# Measured seconds between calibrations.
EVERY_S = 0.5


def _units():
    """The units by name: (function, its fewest seconds on the 2-vCPU
    reference host in a fast stretch).  Built on first use, so that
    importing this module imports no numpy."""
    import numpy as np

    rng = random.Random(7)
    floats = [rng.random() for _ in range(600)]
    lines = [
        json.dumps(
            {"example_id": i, "labeler_id": f"w{i % 20:02d}", "step": i + 1, "value": i & 1},
            sort_keys=True,
        )
        for i in range(250)
    ]
    np_rng = np.random.default_rng(7)

    def dicts():
        # Dict updates and float arithmetic: the collection engines.
        totals = {}
        for i in range(5000):
            k = i & 1023
            totals[k] = totals.get(k, 0.0) + (i * 0.5) % 7.0
        return sorted(totals.values())

    def parse():
        # JSON records parsed and grouped: reading label files.
        groups = {}
        for line in lines:
            row = json.loads(line)
            groups.setdefault(row["example_id"] % 31, []).append((row["labeler_id"], row["value"]))
        return len(groups)

    def format_rows():
        # Numbers formatted into text rows: the result writers.
        rows = [f"{i},{x!r},{i % 7},w{i % 20:02d}" for i, x in enumerate(floats)]
        return len("\n".join(rows))

    def arrays():
        # Small numpy draws, sorts and sums: random streams and scoring.
        total = 0.0
        for _ in range(40):
            a = np_rng.random(500)
            total += float(np.cumsum(a[np.argsort(a)])[-1])
        return total

    def allocate():
        # Many small objects made and dropped: records and aggregates.
        out = []
        for i in range(3000):
            out.append((i, "x", i * 0.5, [i]))
        return len(out)

    return {
        "dicts": (dicts, 1.06e-3),
        "parse": (parse, 0.64e-3),
        "format_rows": (format_rows, 0.885e-3),
        "arrays": (arrays, 0.70e-3),
        "allocate": (allocate, 0.86e-3),
    }


_UNITS = None


def speed():
    """The machine's speed now relative to the reference: the geometric
    mean, over the units, of the unit's reference time over its fewest
    seconds of ``REPEATS`` runs.  1.0 is the reference host in a fast
    stretch; a slower machine reads less."""
    global _UNITS
    if _UNITS is None:
        _UNITS = _units()
    log_sum = 0.0
    for fn, ref_s in _UNITS.values():
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            fn()
            best = min(best, perf_counter() - t0)
        log_sum += math.log(ref_s / best)
    return math.exp(log_sum / len(_UNITS))


class Clock:
    """``perf_counter()`` less the seconds spent calibrating.

    ``mark`` reads the clock and calibrates once ``EVERY_S`` has passed
    since the last calibration; the calibrations are the samples from which
    ``reference`` scales an interval of the clock's time."""

    def __init__(self):
        self.paused = 0.0
        self.due = float("-inf")
        self.times = []  # clock time of each calibration
        self.speeds = []  # the machine's speed at that calibration

    def now(self):
        return perf_counter() - self.paused

    def mark(self):
        now = perf_counter() - self.paused
        if now >= self.due:
            t0 = perf_counter()
            self.speeds.append(speed())
            self.times.append(now)
            self.paused += perf_counter() - t0
            self.due = now + EVERY_S
        return now

    def speed_at(self, t):
        """The speed at clock time ``t``, interpolated between the
        calibrations around it."""
        i = bisect_left(self.times, t)
        if i == 0:
            return self.speeds[0]
        if i == len(self.times):
            return self.speeds[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        s0, s1 = self.speeds[i - 1], self.speeds[i]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0)

    def reference(self, start, end):
        """Reference seconds of the clock interval [start, end]."""
        return (end - start) * self.speed_at((start + end) / 2)
