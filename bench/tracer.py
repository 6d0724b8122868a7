"""In-process span tracer for the benchmark's traced run.

A span is one call of a wrapped callable. A callable is wrapped by replacing
the attribute through which neurofl code reaches it (its call site), so the
package itself is not modified. For every span name the tracer keeps the
inclusive duration and the self duration of each call. A span's self time is
its duration minus the durations of the spans it directly encloses; time in
code that is not wrapped stays with the nearest enclosing span.
"""

from __future__ import annotations

import math
import time
from array import array


class SpanStats:
    """Per-call durations, in seconds, of every span with one name."""

    __slots__ = ("incl", "self_")

    def __init__(self):
        self.incl = array("d")
        self.self_ = array("d")

    @property
    def calls(self) -> int:
        return len(self.incl)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.absent: set[str] = set()
        # time spent inside spans that have no enclosing span
        self.root_s = 0.0
        # one entry per open span: the time its finished child spans took
        self._open: list[float] = []

    def declare(self, *names: str) -> None:
        """Register spans that wrap() will create later, so they read as
        zero calls rather than absent if the code never builds them."""
        for name in names:
            self.spans.setdefault(name, SpanStats())

    def wrap(self, name: str, fn, after=None):
        """Return a traced stand-in for fn. `after(args, kwargs, result)`, if
        given, runs once fn has returned, outside the timed interval."""
        stats = self.spans.setdefault(name, SpanStats())
        incl_append = stats.incl.append
        self_append = stats.self_.append
        open_spans = self._open
        clock = self.clock

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = open_spans.pop()
                incl_append(dur)
                self_append(dur - child)
                if open_spans:
                    open_spans[-1] += dur
                else:
                    self.root_s += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> bool:
        """Replace owner.attr by a traced wrapper. A missing attribute marks
        the span absent and leaves everything else running."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.add(name)
            return False
        setattr(owner, attr, self.wrap(name, fn, after))
        return True

    def module_self_s(self, module: str) -> float:
        """Total self time of every span named `<module>.<...>`."""
        prefix = module + "."
        return sum(math.fsum(st.self_) for name, st in self.spans.items() if name.startswith(prefix))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
