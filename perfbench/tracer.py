"""In-memory span tracer that times a program from the outside.

The tracer never edits the program's source: :meth:`Tracer.wrap` swaps a
class attribute or module function for a timing wrapper and
:meth:`Tracer.uninstall` puts the original back.  Each finished call
becomes a :class:`Span` with its name, start, end, parent span and the
turn/request id it served.  Spans stay in memory until the run ends.

Parents come from a per-thread stack of open spans, so nested calls on
one thread link up by themselves.  Work that crosses threads or
interleaves on an event loop is recorded with :meth:`Tracer.add` and an
explicit parent instead.

A span's *self time* is its duration minus the union of its children's
intervals, clipped to the span.  Children may overlap, as concurrent
client requests under one session do, so the union is taken, not the sum.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[str] = None
    thread: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def begin(self, name: str, request: Optional[str] = None, **attrs) -> Span:
        """Open a span under the calling thread's innermost open span."""
        top = self.current()
        span = Span(
            id=self._new_id(),
            name=name,
            start=self.clock(),
            end=math.nan,
            parent=top.id if top is not None else None,
            request=request if request is not None or top is None else top.request,
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        self._stack().append(span)
        return span

    def end(self, span: Span) -> Span:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs) -> Iterator[Span]:
        """``with tracer.span(name):`` — begin on entry, end on exit."""
        span = self.begin(name, request=request, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[str] = None,
        **attrs,
    ) -> Span:
        """Record an already-finished interval with an explicit parent."""
        span = Span(
            id=self._new_id(),
            name=name,
            start=start,
            end=end,
            parent=parent,
            request=request,
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        return span

    def spans_since(self, mark: int) -> List[Span]:
        with self._lock:
            return list(self.spans[mark:])

    def mark(self) -> int:
        with self._lock:
            return len(self.spans)

    # -- installing wrappers ------------------------------------------- #
    def patch(self, owner: object, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)`` until uninstall.

        For a module-level function every loaded module that imported the
        same function object by name is patched too, so ``from m import f``
        call sites are timed as well.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make_wrapper(original)
        owners = [owner]
        if not isinstance(owner, type):
            owners = [
                module
                for module in list(sys.modules.values())
                if module is not None and getattr(module, attr, None) is original
            ]
        for target in owners:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        annotate: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call; its result is
        handed to ``annotate(span, args, kwargs, result, token)``, which
        may add attributes to the span once the call has returned.
        """
        tracer = self

        def make_wrapper(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before is not None else None
                span = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        annotate(span, args, kwargs, result, token)
                    return result
                finally:
                    tracer.end(span)

            return wrapper

        self.patch(owner, attr, make_wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------- #
    def finished(self) -> List[Span]:
        """The recorded spans, with request ids inherited from ancestors."""
        with self._lock:
            spans = list(self.spans)
        inherit_requests(spans)
        return spans


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        result[span.id] = span.seconds - covered
    return result


def layer_table(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.seconds
        row["self_s"] += own[span.id]
    return table


def inherit_requests(spans: List[Span]) -> None:
    """Give spans without a request id the id of their nearest ancestor."""
    by_id = {span.id: span for span in spans}

    def lookup(span: Span) -> Optional[str]:
        seen = 0
        node: Optional[Span] = span
        while node is not None and node.request is None and seen < len(by_id):
            node = by_id.get(node.parent) if node.parent is not None else None
            seen += 1
        return node.request if node is not None else None

    for span in spans:
        if span.request is None:
            span.request = lookup(span)
