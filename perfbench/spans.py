"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` replaces chosen functions and methods of the program
with wrappers that record a span (id, parent, name, start, end) per
call, or just count calls.  Spans stay in memory until :meth:`dump`.
A layer's self time is the sum of its spans' durations minus the parts
covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from common import now

Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = now()
        try:
            return func(*args, **kwargs)
        finally:
            ended = now()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent, name, started, ended))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching -----------------------------------------------------

    @staticmethod
    def _get(owner: object, attr: str):
        return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]

    @staticmethod
    def _set(owner: object, attr: str, value: object) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, new: object) -> None:
        """Replace ``owner.attr`` with ``new`` until :meth:`restore`."""
        self._patches.append((owner, attr, self._get(owner, attr)))
        self._set(owner, attr, new)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``."""
        raw = self._get(owner, attr)
        bound = isinstance(raw, classmethod)
        func = raw.__func__ if bound else raw

        def wrapper(*args, **kwargs):
            result = self.call(name, func, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        if not isinstance(func, type):
            # Keeps attributes callers read off the function (names,
            # flags such as an experiment runner's ``requires_pki``).
            wrapper = functools.wraps(func)(wrapper)
        self.patch(owner, attr, classmethod(wrapper) if bound else wrapper)

    def span_iteration(self, owner: object, attr: str, name: str) -> None:
        """Record a span around each step of a generator ``owner.attr``."""
        func = self._get(owner, attr)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                try:
                    item = self.call(name, next, iterator)
                except StopIteration:
                    return
                yield item

        self.patch(owner, attr, wrapper)

    def counter(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        func = self._get(owner, attr)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def counter_everywhere(self, func: Callable, modules, name: str) -> None:
        """Count calls of ``func`` through every module that imported it."""
        for module in modules:
            if module.__dict__.get(func.__name__) is func:
                self.counter(module, func.__name__, name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            self._set(owner, attr, original)

    # -- output -------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def self_times(spans) -> Dict[str, float]:
    """Per-name self time: span durations minus their children's."""
    covered: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for sid, _parent, name, start, end in spans:
        totals[name] += (end - start) - covered.get(sid, 0.0)
    return dict(totals)


def load(path) -> Tuple[list, Dict[str, int]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["spans"], payload["counts"]
