"""Outside-in span tracer for the benchmark.

The tracer replaces a library function with a timing wrapper at the name its
callers look up (``congsym.linalg.charpoly``, ``congsym.spectra.hecke_tn_fast``
and so on), so no file of the library changes.  Spans are aggregated in
memory per name: call count, total time and self time (span time minus the
time of the spans it encloses).  The caller reads them through calls(),
total() and self_time() once the workload has finished.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, total_s, self_s]
        self._stack = []     # open spans: [name, start, child_s]

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, module, attr, name, observe=None):
        """Replace module.attr by a traced wrapper.  observe(args, result),
        when given, runs after the span has closed, so size bookkeeping is
        not charged to the span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]
