"""Host-speed probe, sampled between the timed operations of a run.

The benchmark runs in a VM on a shared host.  Other tenants contend for
the host's last-level cache and memory, and the workloads' speed drifts
by 20-40% over minutes with them, while an integer loop barely moves.
A pointer chase through an array eight times the size of a core's L2
cache slows with the same contention.  Timed in short slices between
operations, so that it sees the host over the same window as the
operations, its median per run tracked the runs' median operation time
with a correlation of 0.88, and their wall time with 0.93, over 55
back-to-back runs of one input seed.  Dividing by it cut the runs'
variation (standard deviation / mean) from 0.14 to 0.09 for the median
operation time and from 0.12 to 0.07 for wall time.  A chase through
Python tuples tracked less well (0.60-0.79), and an integer loop or a
dict workload timed between runs did not track at all.

Every wall-time metric is therefore reported at a reference host speed:
the raw figure times ``REFERENCE_NS / median slice time``.  A change to
the program moves the operations and not the probe, so it shows in full.
The probe's own memory is subtracted from the peak RSS.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

#: Entries in the chased array: 16 MiB, eight times a core's L2 cache.
SIZE = 1 << 22
#: Steps of one probe slice.
STEPS = 256
#: A slice is taken after every ``EVERY``-th timed operation.
EVERY = 4
#: Slice time at the reference host speed to which wall-time metrics are
#: reported: about the median slice time during a quiet period on the
#: 2-CPU sandbox the figures in README.md come from.
REFERENCE_NS = 150_000


class HostProbe:
    """A fixed pointer chase, timed one slice at a time."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._next = array("I", [0]) * SIZE
        chunk = 1 << 18  # filled 1 MiB at a time: no 16 MiB transient copy
        for first in range(0, SIZE, chunk):
            self._next[first:first + chunk] = array("I", rng.randbytes(4 * chunk))
        self._at = 0
        self._step = 0
        self.samples = array("q")
        #: Memory the probe holds, outside Python's small-object arenas.
        self.footprint_bytes = len(self._next) * self._next.itemsize

    def sample(self) -> None:
        """Time one slice and record its duration in nanoseconds."""
        nxt, at, step = self._next, self._at, self._step
        began = time.perf_counter_ns()
        for step in range(step, step + STEPS):
            # Adding the step count keeps the chase off short cycles.
            at = (nxt[at] + step) & (SIZE - 1)
        took = time.perf_counter_ns() - began
        self._at, self._step = at, step + 1
        self.samples.append(took)

    def scale(self) -> float:
        """Factor that brings this run's wall times to the reference speed."""
        return REFERENCE_NS / statistics.median(self.samples)
