"""Sample the host's speed while a measured process runs.

On a shared host the same code can run twice as fast in one second as in
the next.  :class:`HostSpeed` lets a timer signal interrupt the main
thread every :data:`INTERVAL_S` seconds, between two bytecodes, and time
one fixed *tick* of reference work there.  Each tick's time against
:data:`TICK_S`, its time on the reference host, gives the host's speed at
that moment, so a host time measured over a window can be scaled to the
reference host speed (:meth:`HostSpeed.scaled`).  The time spent in ticks
is left out of every window (:meth:`HostSpeed.now`).

The tick is plain Python (dictionary and integer work, the interpreter's
bread and butter), so it can run before ``numpy`` or ``repro`` are
imported, and no change to ``repro`` changes it.
"""

from __future__ import annotations

import signal
import time

#: Seconds between two ticks, in host time.
INTERVAL_S = 0.05
#: Seconds one tick takes on the reference host.
TICK_S = 0.001
#: Windows shorter than this are widened on both sides before their ticks
#: are averaged, so a short window still sees enough ticks.
MIN_WINDOW_S = 1.0


def tick_work() -> int:
    """One fixed unit of reference work."""
    table = {}
    total = 0
    for index in range(4000):
        table[index & 255] = table.get(index & 255, 0) + index
        total += index * index % 7
    return total


class HostSpeed:
    """Time a tick of reference work every :data:`INTERVAL_S` seconds.

    Parameters
    ----------
    clock : callable
        Zero-argument time source in seconds (``time.perf_counter``).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: (:meth:`now` at the tick, seconds the tick's work took)
        self.ticks: list[tuple[float, float]] = []
        #: Host seconds spent inside ticks so far.
        self.spent = 0.0
        self._previous = None

    def now(self) -> float:
        """Host time that leaves out the time spent in ticks."""
        return self.clock() - self.spent

    def tick(self, *_signal_args) -> None:
        """Time one unit of reference work (the timer signal's handler)."""
        entered = self.clock()
        tick_work()
        worked = self.clock()
        self.ticks.append((entered - self.spent, worked - entered))
        self.spent += self.clock() - entered

    def start(self) -> None:
        """Start ticking (main thread only; uses ``SIGALRM``)."""
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop ticking and restore the previous ``SIGALRM`` handler."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Reference-host seconds of the window between two :meth:`now` readings.

        The window's host time is multiplied by the mean of ``TICK_S /
        tick`` over the ticks in it: the share of the reference host's
        speed the host had, averaged over equal slices of time.  A window
        shorter than :data:`MIN_WINDOW_S` is widened on both sides first.
        Without any tick nearby, the host time is returned unchanged.
        """
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2.0)
        speeds = [TICK_S / seconds for at, seconds in self.ticks
                  if start - pad <= at <= end + pad]
        if not speeds:
            return end - start
        return (end - start) * sum(speeds) / len(speeds)
