"""Span recording by wrapping attributes that callers look up at call time.

The program under test is not edited.  Its modules call one another through
module attributes (``physics.step``, ``rng.stream_key``) and through methods
found on classes (``MLP.forward``), so replacing those attributes with
recording wrappers sees every call, including calls made inside the module
itself.  ``Patches`` owns the replacements and puts the originals back.

A span is ``[name, start, end, parent, phase]``; ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager


class Patches:
    """Attribute replacements on modules and classes, undone in reverse."""

    def __init__(self):
        self._saved = []  # (owner, attr, original, owned)

    def replace(self, owner, attr: str, make_wrapper) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._saved.append((owner, attr, original, owned))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """Records one span per call of every wrapped attribute."""

    def __init__(self, patches: Patches, clock=time.perf_counter):
        self.patches = patches
        self.clock = clock
        self.phase = "setup"
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = self.clock()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Trace ``owner.attr``.  ``name`` is a span name or a function of the
        call's positional arguments; ``count(result)`` adds to a counter."""
        naming = name if callable(name) else (lambda args: name)

        def make(original):
            def traced(*args, **kwargs):
                s = self._open(naming(args))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(s)
                if count is not None:
                    key = (s[0], s[4])
                    self.counts[key] = self.counts.get(key, 0) + count(result)
                return result

            return traced

        self.patches.replace(owner, attr, make)


class StepClock:
    """Start and end of each control step: from the previous mark (a reset,
    the start of a rollout, or the end of the last step) to the end of the
    task's ``step``."""

    def __init__(self, patches: Patches, clock=time.perf_counter):
        self.patches = patches
        self.clock = clock
        self.samples: list[tuple[float, float]] = []
        self._last: float | None = None

    def mark(self) -> None:
        self._last = self.clock()

    def install(self, task_cls) -> None:
        def make_step(original):
            def timed(*args, **kwargs):
                result = original(*args, **kwargs)
                now = self.clock()
                if self._last is not None:
                    self.samples.append((self._last, now))
                self._last = now
                return result

            return timed

        def make_reset(original):
            def timed(*args, **kwargs):
                result = original(*args, **kwargs)
                self.mark()
                return result

            return timed

        self.patches.replace(task_cls, "step", make_step)
        self.patches.replace(task_cls, "reset_all", make_reset)


# ----------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Calls
    nest on one thread, so children never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_stats(spans: list[list], phases) -> dict[str, dict]:
    """Per span name over the given phases: calls, ms/call p50, self ms."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        if s[4] not in phases:
            continue
        row = out.setdefault(s[0], {"calls": 0, "durations": [], "self_s": 0.0})
        row["calls"] += 1
        row["durations"].append(s[2] - s[1])
        row["self_s"] += own
    for row in out.values():
        row["ms_p50"] = 1e3 * statistics.median(row.pop("durations"))
        row["self_ms"] = 1e3 * row.pop("self_s")
    return out

