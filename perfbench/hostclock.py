"""Host time scaled to a reference speed.

The benchmark shares its host, and the host's speed swings by up to
about 1.8x within a second as neighbours come and go. Timing the same
input twice therefore gives different seconds, and no choice of repeat
count or median removes a slow spell that covers a whole run.

A ``SegmentTimer`` measures work in short consecutive segments and times
a fixed pure-Python reference kernel between them. A segment's scaled
time is its host time multiplied by ``REF_NOMINAL_S`` over the mean of
the reference timings on either side of it: a slowdown that hits the
work and the kernel alike cancels out. The kernel is the benchmark's
own code, never ``repro``'s, so a change to the simulator moves the
scaled time exactly as it moves the raw time. Scaled seconds read as
host seconds on a host that runs the kernel in ``REF_NOMINAL_S``.

Only the standard library is imported here, so a fresh interpreter can
time the kernel before it imports anything heavy.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import List, Tuple

#: Wall time of one ``reference_kernel()`` call, between simulation
#: slices, on a quiet 2-core Intel Xeon host: the speed scaled seconds
#: are expressed at.
REF_NOMINAL_S = 0.0013

#: Host seconds of work between two reference timings.
REF_EVERY_S = 0.025

_KEYS = [random.Random(7).randrange(1 << 30) for _ in range(4096)]


def reference_kernel() -> int:
    """A fixed burst of interpreter work: dict updates and a bounded heap,
    the operations an event-driven simulator spends its time on."""
    heap: List[Tuple[int, int]] = []
    counts = {}
    for i in range(3000):
        key = _KEYS[i & 4095]
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (key ^ i, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts)


class SegmentTimer:
    """Host times of consecutive work segments, scaled by the reference
    kernel timed between them (see the module docstring)."""

    def __init__(self, repeats: int = 1) -> None:
        self.repeats = repeats
        self.refs: List[Tuple[float, float]] = []
        # (wall, cpu, index of the last reference taken before it; -1
        # when none was taken yet)
        self.segments: List[Tuple[float, float, int]] = []
        self._pending = 0.0

    def calibrate(self) -> None:
        """Time the reference kernel ``repeats`` times; keep the median."""
        samples = []
        for _ in range(self.repeats):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_kernel()
            samples.append((time.perf_counter() - wall0,
                            time.process_time() - cpu0))
        samples.sort()
        self.refs.append(samples[len(samples) // 2])
        self._pending = 0.0

    def add(self, wall: float, cpu: float) -> None:
        """Record one segment; calibrate once enough work has piled up."""
        self.segments.append((wall, cpu, len(self.refs) - 1))
        self._pending += wall
        if self._pending >= REF_EVERY_S:
            self.calibrate()

    def close(self) -> None:
        """Calibrate after the last segment, so that every segment has a
        reference timing on both sides."""
        if self.segments and self.segments[-1][2] == len(self.refs) - 1:
            self.calibrate()

    def scaled(self) -> List[Tuple[float, float]]:
        """(wall, cpu) of every segment in scaled seconds."""
        out = []
        for wall, cpu, before in self.segments:
            near = [self.refs[i] for i in (before, before + 1)
                    if 0 <= i < len(self.refs)]
            ref_wall = sum(r[0] for r in near) / len(near)
            ref_cpu = sum(r[1] for r in near) / len(near)
            out.append((wall * REF_NOMINAL_S / ref_wall,
                        cpu * REF_NOMINAL_S / ref_cpu))
        return out
