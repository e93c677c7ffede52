"""In-memory spans around layer entry points, installed from outside the package.

A :class:`Tracer` replaces a function at the place its caller looks it
up (a module global such as ``ttjko.cross.maxvol``, or a class
attribute such as ``HeatPropagator.apply``) with a wrapper that records
one span per call: name, start, end and the index of the enclosing
span.  Counts taken from a call's arguments or result (points, sweeps,
unconverged solves) are summed per span name as the calls happen.
Every replaced attribute is put back by :meth:`Tracer.restore`.

The recorder assumes one thread: spans nest strictly, so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list = []          # (owner, attr, original)
        self.restored = True

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span; ``count(args, kwargs, result)`` may
        return a dict of integers added to the span name's counters."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.starts[i] = t0
            self.ends[i] = t1
        if count is not None:
            bucket = self.counts[name]
            for key, value in count(args, kwargs, out).items():
                bucket[key] += int(value)
        return out

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Route lookups of ``owner.attr`` through a span named ``name``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> bool:
        """Put every patched attribute back; True if all are the originals."""
        ok = True
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            ok = ok and vars(owner)[attr] is original
        return ok

    @contextmanager
    def installed(self, sites):
        """Patch ``(owner, attr, name, count)`` sites for the ``with`` body."""
        try:
            for owner, attr, name, count in sites:
                self.patch(owner, attr, name, count)
            yield self
        finally:
            self.restored = self.restore()

    def summary(self) -> dict:
        """Per span name: calls, total time, self time and summed counts."""
        dur, own = self._durations()
        out: dict = {}
        for i, name in enumerate(self.names):
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "time_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["time_s"] += float(dur[i])
            entry["self_s"] += float(own[i])
        for name, bucket in self.counts.items():
            out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            out[name].update(bucket)
        return out

    def subtree_self_s(self, root_name: str) -> float:
        """Summed self time of every span at or below spans named ``root_name``."""
        n = len(self.names)
        inside = np.zeros(n, dtype=bool)
        for i in range(n):       # parents always precede their children
            p = self.parents[i]
            inside[i] = self.names[i] == root_name or (p >= 0 and inside[p])
        return float(self._durations()[1][inside].sum())

    def _durations(self):
        """Each span's duration and its self time (duration minus children)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.intp)
        child = np.zeros(dur.size)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child
