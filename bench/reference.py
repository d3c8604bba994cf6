"""A fixed reference loop that reads how fast the machine runs right now.

On a shared host the same pure-Python code runs up to about 1.6 times
slower for seconds to minutes at a time, so the raw times of runs made
minutes apart spread more than the benchmark's bounds allow.  The benchmark
times this loop before every operation of a pass and reports its times at
a fixed machine speed: ``seconds * REFERENCE_S / mean(loop time)``.  Both
the passes and the loop are averaged over the whole run, so a run that
spends a third of its time in a slow spell slows both by the same share.

The loop is the benchmark's own code, so no change to the program moves
it.  It runs with the garbage collector off, so the size of the program's
heap does not change its time, and it is timed in thread CPU time, so
another thread of the program holding the interpreter lock does not slow
it and such a thread's cost stays in the reported times.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# The loop's time on a quiet core of a 2-core x86-64 host under CPython
# 3.11, so reported times read close to seconds there.
REFERENCE_S = 0.001
LOOPS_PER_READING = 3


def reference_loop() -> int:
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 31, (i * 7) % 13)
        table[key] = table.get(key, 0) + i
        acc = math.gcd(acc + 12 * i, 360)
    return len(table) + acc


class Speedometer:
    """Times of the reference loop taken through a run."""

    def __init__(self):
        self.samples: list[float] = []

    def read(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(LOOPS_PER_READING):
                start = time.thread_time()
                reference_loop()
                self.samples.append(time.thread_time() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)
