"""In-memory span recorder for the benchmark's traced run.

A span is one call across a layer boundary: its name, the module whose
lookup was wrapped (``site``), start and end on the tracer's clock, and the
span that was open when it began.  Counters are kept beside the spans.

Wrapping replaces a module or class attribute, so only callers that look
the name up at call time go through the wrapper; ``restore`` puts every
original object back and ``unrestored`` lists any that are still missing.

Time spent inside ``excluded()`` (re-timing qhull, sizing files) is taken
off the clock, so it is in no span and in no traced wall time.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "tag", "child_s",
                 "attrs")

    def __init__(self, name, site, start, parent, tag):
        self.name = name
        self.site = site
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by nested spans (which never
        overlap one another: one thread records them)."""
        return self.duration - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._excluded = 0.0
        self._open: list[Span] = []
        self._patched: list[tuple] = []
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        # label copied onto every span begun while it is set (the intensity
        # of the table being built)
        self.tag = None

    def now(self) -> float:
        return self._clock() - self._excluded

    def begin(self, name: str, site: str | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, site, self.now(), parent, self.tag)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.now()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.duration

    @contextmanager
    def span(self, name: str, site: str | None = None):
        s = self.begin(name, site)
        try:
            yield s
        finally:
            self.end(s)

    @contextmanager
    def excluded(self):
        t0 = self._clock()
        try:
            yield
        finally:
            self._excluded += self._clock() - t0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping -------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until ``restore``; a
        staticmethod stays a staticmethod."""
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            replacement = staticmethod(replacement)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        ``after(span, args, result)`` runs once the span has closed."""
        original = getattr(owner, attr)
        site = owner.__name__

        def traced(*args, **kwargs):
            s = self.begin(name, site)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(s)
            if after is not None:
                after(s, args, result)
            return result

        self.patch(owner, attr, traced)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` and ``key@site``."""
        original = getattr(owner, attr)
        site_key = f"{key}@{owner.__name__}"

        def counted(*args, **kwargs):
            self.count(key)
            self.count(site_key)
            return original(*args, **kwargs)

        self.patch(owner, attr, counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if vars(owner)[attr] is not original]

    # -- summaries ------------------------------------------------------

    def named(self, name: str, site: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (site is None or s.site == site)]

    def busy(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))
