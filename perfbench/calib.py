"""Host-speed correction for the benchmark's timings.

The host this benchmark was built on changes speed by up to ~1.9x from one
moment to the next, in spells of a few to a few hundred milliseconds, and the
share of slow spells drifts from minute to minute.  CPU time moves with wall
time, so it is not time spent descheduled, and a longer run does not take it
out: ten 40 s runs of one seed spread by a quarter.

So while a run is timed, an interval timer (SIGALRM every PERIOD_S) runs a
fixed probe of pure-Python work twice and times the second, warm, run; that
takes 2-3 % of the run.  The probe imports nothing of the program, so a
change to the program cannot change it.  A timed interval counts its wall
time minus the probe time spent inside it, scaled by PROBE_REF_S / (mean
probe time): the time the work would take on a host that runs the probe in
PROBE_REF_S.  The mean is over the probes that fired inside the interval or,
for an interval too short to hold one, the last probe before it ended.  Each
probe is capped at CAP times the fastest probe seen, so a probe that was
descheduled does not count as a slow host.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.008
# The probe's time on the reference host: its fast spells on a 2-vCPU
# Sapphire Rapids VM with Python 3.11.7.  Sets the scale of every time the
# benchmark reports.
PROBE_REF_S = 72e-6
CAP = 2.5
WARM_PROBES = 40
clock = time.perf_counter


_LENGTHS = [Fraction(50.3 + i % 7) for i in range(16)]


def probe() -> int:
    """Fixed pure-Python work of the kinds the program does: sums and
    comparisons of exact fractions, and small records in a dict."""
    total = Fraction(0)
    best = None
    for i in range(12):
        total = total + _LENGTHS[i % 16]
        cand = (total, _LENGTHS[i * 5 % 16])
        if best is None or cand < best:
            best = cand
    table: dict[str, list] = {}
    for i in range(60):
        table.setdefault(f"r{i % 20:02d}", []).append((i, i * 0.5))
    return int(total) + len(table)


class Speedometer:
    """Samples the host's speed with a timed probe every PERIOD_S while
    started, and turns wall times into times at the reference speed."""

    def __init__(self):
        self.spent = 0.0       # wall time spent in probes since start
        self.total = 0.0       # sum of (capped) probe times
        self.count = 0
        self.last = 0.0
        self.fastest = float("inf")
        self._busy = False

    def _sample(self) -> float:
        probe()                # the program has just run: warm the probe's code
        t0 = clock()
        probe()
        dt = clock() - t0
        self.fastest = min(self.fastest, dt)
        return min(dt, CAP * self.fastest)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        dt = self._sample()
        self.total += dt
        self.count += 1
        self.last = dt
        self.spent += clock() - t0
        self._busy = False

    def start(self) -> None:
        for _ in range(WARM_PROBES):
            self.last = self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, float, int]:
        return clock(), self.spent, self.total, self.count

    def since(self, mark: tuple[float, float, float, int]) -> float:
        """Time at the reference speed of the work done since `mark`."""
        t0, spent0, total0, count0 = mark
        wall = clock() - t0 - (self.spent - spent0)
        n = self.count - count0
        probe_s = (self.total - total0) / n if n else self.last
        return wall * PROBE_REF_S / probe_s
