"""A stdlib span recorder with self-time accounting.

A span is one timed call: a name, a start and an end (both
``time.perf_counter`` readings), the span it ran inside (its parent) and
the sweep point it belongs to.  The *self time* of a span is its duration
minus the time its child spans cover, so summing self times over every
span never counts a second twice.

Spans marked *hot* (functions called hundreds of thousands of times per
run) are folded into the per-name totals only; every other span is also
kept as a record, so the output can show the tree of one sweep point
without holding millions of tuples in memory.

Nothing here is installed by default: when tracing is off the recorder is
never created and no library function is wrapped (see
:mod:`perfbench.instrument`), so the untraced run pays nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable


class SpanRecorder:
    """Collect spans and their per-name call counts, total and self times.

    Parameters
    ----------
    clock : callable
        Zero-argument time source in seconds; ``time.perf_counter`` by
        default (tests pass a fake clock).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Kept spans: [name, start, end, parent record index or None, point id].
        self.records: list[list] = []
        #: Free-form event counters filled by call observers.
        self.counters: dict[str, int] = {}
        #: Id of the sweep point currently executing (None outside points).
        self.point: int | None = None
        # Open spans, innermost last: [name, start, child seconds, record index].
        self._stack: list[list] = []

    def enter(self, name: str, hot: bool = False) -> None:
        """Open a span named ``name`` inside the innermost open span."""
        start = self.clock()
        index = None
        if not hot:
            parent = None
            for frame in reversed(self._stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
            index = len(self.records)
            self.records.append([name, start, None, parent, self.point])
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        """Close the innermost open span and charge its time."""
        end = self.clock()
        name, start, child, index = self._stack.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.records[index][2] = end

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`enter` / :meth:`exit`."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to the event counter ``counter``."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(
        self,
        name: str,
        function: Callable,
        hot: bool = False,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[Any, tuple, Any], None] | None = None,
        point: bool = False,
    ) -> Callable:
        """Return ``function`` wrapped so every call is recorded as a span.

        ``before(args)`` runs ahead of the span and ``after(pre, args,
        result)`` after it, so observers that count events do not inflate
        the span's time.  ``point=True`` makes every call a new sweep point:
        the spans it opens share a fresh point id.
        """
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(function)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            if point:
                outer = self.point
                self.point = self.counters["points"] = self.counters.get("points", 0) + 1
            enter(name, hot)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_()
                if point:
                    self.point = outer
            if after is not None:
                after(pre, args, result)
            return result

        return traced

    def self_time(self, *names: str) -> float:
        """Summed self seconds of the spans named ``names``."""
        return sum(self.totals[name][2] for name in names if name in self.totals)

    def calls(self, *names: str) -> int:
        """Summed call counts of the spans named ``names``."""
        return sum(self.totals[name][0] for name in names if name in self.totals)

    def as_json(self) -> dict:
        """Records, totals and counters in a JSON-serialisable form."""
        return {
            "fields": ["name", "start", "end", "parent", "point"],
            "records": self.records,
            "totals": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def no_span(name: str):
    """The span context used when tracing is off: a shared no-op."""
    return _NULL_CONTEXT


_NULL_CONTEXT = contextlib.nullcontext()
