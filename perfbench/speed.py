"""Machine-speed calibration.

The benchmark's reference machine shares its cores with other tenants, and
its speed drifts by up to 40% within seconds, for any CPU-bound code
alike.  A pass therefore times a fixed pure-Python reference loop at its
start, at its end, and every INTERVAL_S in between: an interval timer's
signal runs the loop in the pass's only thread, between two bytecodes of
whatever is running.  Each timed interval has the samples taken inside it
subtracted and is scaled by NOMINAL_S over the loop time measured in and
around it, so times read as seconds at the speed where one loop takes
NOMINAL_S (an unloaded core of the reference machine: 2.1 GHz,
Python 3.11).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.0065
INTERVAL_S = 0.25


def reference_loop() -> int:
    # Dict, tuple and int work, like the library's inner loops, on int
    # keys so that the string-hash seed does not change it.
    table: dict[int, int] = {}
    acc = 0
    for i in range(24000):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        pair = (key, i & 7)
        acc += pair[0] ^ len(table)
    return acc


class SpeedProbe:
    """Speed samples taken over one pass, each with its start and end."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factor: list[float] = []  # NOMINAL_S / loop seconds
        self.listener = None  # called with each sample's duration
        # While True, the timer's signal takes no sample: set during a
        # sample, and by the listener's owner while it updates state that
        # a sample's listener call would leave inconsistent.
        self.busy = False

    def measure(self, rounds: int = 2) -> None:
        start = perf_counter()
        loops = []
        for _ in range(rounds):
            t0 = perf_counter()
            reference_loop()
            loops.append(perf_counter() - t0)
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.factor.append(NOMINAL_S / statistics.median(loops))
        if self.listener:
            self.listener(end - start)

    def _on_alarm(self, signum, frame) -> None:
        if not self.busy:  # a late signal must not nest a second sample
            self.busy = True
            try:
                self.measure()
            finally:
                self.busy = False

    def start(self) -> None:
        """Take a sample now and every INTERVAL_S until stop()."""
        self.measure()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.measure()

    def _around(self, start: float, end: float) -> tuple[int, int]:
        """The last sample that ends by `start` and the first that starts
        from `end` on (or the first and last samples); those between them
        lie inside the interval."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        return first, last

    def unscaled(self, start: float, end: float) -> float:
        """The interval's seconds less the samples taken inside it."""
        first, last = self._around(start, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(first + 1, last))

    def scaled(self, start: float, end: float) -> float:
        """The interval's seconds at reference speed: unscaled, times the
        mean factor of the samples inside it and of the ones just before
        and just after it."""
        first, last = self._around(start, end)
        return self.unscaled(start, end) * statistics.fmean(self.factor[first:last + 1])
