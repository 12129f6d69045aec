"""In-memory span recorder that times pagescope's layers from outside.

A span is one call of a wrapped function: its name, start and end on the
`time.perf_counter` clock, the span open on the same thread when it began
(its parent), the thread it ran on, and a few attributes taken from its
arguments and result. Wrappers are installed by assigning module or class
attributes and removed by restoring the saved originals, so the program
source never changes. Calls may arrive from several threads at once (the
meminfo monitor polls from its own thread), so the span list and the id
counter are guarded by a lock and each thread keeps its own parent stack.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner.attr` becomes a span called `name`.

    `describe(args, kwargs, result)` returns attributes taken from a
    successful call; `sample()` is read before and after the call and the
    span keeps the difference of each value.
    """

    owner: object
    attr: str
    name: str
    describe: Callable[[tuple, dict, object], dict] | None = None
    sample: Callable[[], dict] | None = None


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            before = target.sample() if target.sample else None
            stack.append(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            else:
                if target.describe:
                    attrs.update(target.describe(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if before is not None:
                    after = target.sample()
                    attrs.update({k: after[k] - v for k, v in before.items()})
                span = Span(span_id, target.name, start, end, parent,
                            threading.get_ident(), attrs)
                with self._lock:
                    self.spans.append(span)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator[None]:
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its children's intervals.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so a self time is never negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = s.duration - covered
    return out
