"""Machine-speed reference for timings taken on a shared host.

On a small shared host the same code runs up to ~1.6x slower for seconds
at a time while neighbours are busy, which swamps differences between
program versions.  A `Meter` times a fixed reference kernel (code of the
benchmark's own, never of the program) between windows of about half a
second of ops.  Each op's latency is then scaled by
`nominal / ref(window)`, where `ref(window)` is the mean of the reference
times bracketing its window and `nominal` is the kernel's time on an idle
2-core Xeon (its 10th-percentile time there).  Scaled latencies read as
milliseconds at that nominal machine speed; a slow phase, even one that
lasts a whole run, no longer shifts them, as long as the reference slows
down as much as the ops do.  Raw latencies are reported alongside.

Standard library only: the orchestrator also scales CLI ops and set-up
probes with it.
"""

import time

WINDOW_S = 0.5
REPEATS = 3


PYTHON_KERNEL_S = 0.95e-3


def python_kernel():
    """~1 ms of interpreter work: integer arithmetic in a loop."""
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


class Meter:
    """Reference times between windows of timed calls, and the window of
    each call."""

    def __init__(self, kernel, nominal_s):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.refs = [self._reference()]
        self.windows = []
        self._opened = time.perf_counter()

    def _reference(self):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def tick(self):
        """Record one timed call; close its window when it is due."""
        self.windows.append(len(self.refs) - 1)
        if time.perf_counter() - self._opened >= WINDOW_S:
            self.refs.append(self._reference())
            self._opened = time.perf_counter()

    def factors(self):
        """Per-call scale factors, in call order."""
        if self.windows and self.windows[-1] == len(self.refs) - 1:
            self.refs.append(self._reference())
        return [2.0 * self.nominal_s / (self.refs[w] + self.refs[w + 1]) for w in self.windows]
