"""Timing wrappers installed from outside the library, for the traced run.

Each wrapper replaces the module (or class) attribute that callers actually
look up at call time, e.g. ``sclmetric.evaluation.euclidean_distance``
rather than ``sclmetric.losses.euclidean_distance``, because ``evaluation``
imported the name into its own namespace.

Every wrapped call updates aggregated counters: call count, inclusive
nanoseconds and self nanoseconds (inclusive minus the time of wrapped calls
nested directly inside it).  Only coarse calls (``span=True``) also record a
span with its parent, so hot functions such as ``euclidean_distance`` cost
one counter update, not one record, per call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _frames: list = field(default_factory=list)
    _open_spans: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, owner, attr: str, name: str, *, span: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded under ``name``.

        ``after(result, args, kwargs)`` runs once the call has returned, so
        it can count work (rows, units, bytes) into :attr:`counts`.  A
        function the library no longer has stays at zero calls.
        """
        stat = self.stats.setdefault(name, Stat())
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        frames = self._frames
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            if span:
                self._open_spans.append(len(self.spans))
                self.spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                if span:
                    index = self._open_spans.pop()
                    parent = self._open_spans[-1] if self._open_spans else -1
                    self.spans[index] = Span(name, start, start + elapsed, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        timed.__wrapped__ = fn
        setattr(owner, attr, timed)
        self._patches.append((owner, attr, fn))

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        """Zero every counter and drop recorded spans; wrappers stay installed."""
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = 0
        self.counts.clear()
        self.spans.clear()

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def seconds(self, *names: str) -> float:
        return sum(self.stats[n].total_ns for n in names) / 1e9

    def self_seconds(self, name: str) -> float:
        return self.stats[name].self_ns / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names)

    def accounted_seconds(self) -> float:
        """Sum of every wrapped function's self time.  When the root wrapper
        encloses the whole timed region this equals the region's wall time,
        up to the wrappers' own cost."""
        return sum(s.self_ns for s in self.stats.values()) / 1e9
