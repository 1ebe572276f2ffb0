"""Outside-in tracing: time public callables of ``repro`` without editing it.

The benchmark's per-layer numbers come from a *traced run* in which
:class:`Tracer` temporarily replaces public callables (methods on their
class, module-level functions in every ``repro`` module that imported
them) with timing wrappers.  Nothing under ``src/`` changes and every
patch is undone when the ``with tracer.installed(...)`` block exits.

Accounting follows the choosing-metrics guide: a span's *self time* is
its duration minus the part its child spans cover, so the self times of
all names add up to the traced root's total.  Spans live in memory only;
coarse spans (``record=True``) are kept individually as
``(name, parent, start_s, end_s)`` rows for ``--out``, hot callables
(one call per chunk) are only aggregated — a row per call would cost
more than the call.

Generator functions (``MRBGStore.merge_delta``) are timed by
*consumption*: every resumption of the generator is inside the span,
the consumer's own work between two items is not.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: A span name, or a function of the call's first positional argument
#: (``self``) for callables whose layer depends on the receiver's class.
SpanName = Union[str, Callable[[Any], str]]

#: Hook run after a traced call, outside its span: ``(args, kwargs, result)``.
AfterHook = Callable[[tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One public callable to time.

    ``owner`` is a class (the method ``attr`` is replaced on it) or a
    module (the function ``owner.attr`` is replaced in every loaded
    ``repro`` module that holds a reference to it).
    """

    owner: Any
    attr: str
    name: SpanName
    #: keep one row per call in :attr:`Tracer.spans`.
    record: bool = False
    #: keep every call's duration in :attr:`Tracer.durations` (percentiles).
    keep: bool = False
    after: Optional[AfterHook] = None


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        #: name -> seconds spent in spans of that name, children included.
        self.total_s: Dict[str, float] = {}
        #: name -> seconds not covered by any child span.
        self.self_s: Dict[str, float] = {}
        #: name -> completed calls (a generator counts once).
        self.calls: Dict[str, int] = {}
        #: name -> per-call durations, for targets with ``keep=True``.
        self.durations: Dict[str, List[float]] = {}
        #: ``(name, parent_row or -1, start_s, end_s)`` for ``record=True``.
        self.spans: List[Tuple[str, int, float, float]] = []
        #: while true the wrappers call straight through.  A tracer starts
        #: paused; the drivers resume it around each refresh only, so query
        #: bursts and oracle reads never show up as layer time.
        self.paused = True
        # open frames: [name, child_seconds, start, row]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # span bookkeeping                                                   #
    # ------------------------------------------------------------------ #

    def _enter(self, name: str, record: bool) -> None:
        row = -1
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            row = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append([name, 0.0, time.perf_counter(), row])

    def _exit(self) -> float:
        end = time.perf_counter()
        name, child_s, start, row = self._stack.pop()
        duration = end - start
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        if row >= 0:
            self.spans[row] = (name, self.spans[row][1], start, end)
        return duration

    @contextmanager
    def span(self, name: str, record: bool = False) -> Iterator[None]:
        """Time the enclosed block as one span (benchmark-side spans)."""
        self._enter(name, record)
        try:
            yield
        finally:
            self._exit()
            self.calls[name] = self.calls.get(name, 0) + 1

    @property
    def num_spans(self) -> int:
        """Calls observed, aggregated ones included."""
        return sum(self.calls.values())

    # ------------------------------------------------------------------ #
    # wrapping                                                           #
    # ------------------------------------------------------------------ #

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, record, keep, after = target.name, target.record, target.keep, target.after
        resolve = (lambda args: name) if isinstance(name, str) else (
            lambda args: name(args[0])
        )

        def finish(span_name: str, duration: float, call: tuple, result: Any) -> None:
            self.calls[span_name] = self.calls.get(span_name, 0) + 1
            if keep:
                self.durations.setdefault(span_name, []).append(duration)
            if after is not None:
                with self.span("trace.observer"):
                    after(call[0], call[1], result)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any):
                if self.paused:
                    yield from fn(*args, **kwargs)
                    return
                span_name = resolve(args)
                inner = fn(*args, **kwargs)
                spent = 0.0
                try:
                    while True:
                        self._enter(span_name, record)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spent += self._exit()
                        yield item
                finally:
                    # an abandoned consumer must still close the inner
                    # generator (merge_delta ends its session in finally).
                    inner.close()
                    finish(span_name, spent, (args, kwargs), None)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = resolve(args)
            self._enter(span_name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit()
            finish(span_name, duration, (args, kwargs), result)
            return result

        return traced

    def _patch(self, holder: Any, attr: str, replacement: Any, original: Any) -> None:
        setattr(holder, attr, replacement)
        self._patches.append((holder, attr, original))

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Replace every target with its timing wrapper; restore on exit."""
        try:
            for target in targets:
                if inspect.isclass(target.owner):
                    original = target.owner.__dict__.get(target.attr)
                    if not inspect.isfunction(original):
                        raise TypeError(
                            f"{target.owner.__name__}.{target.attr} is not a "
                            "plain method defined on that class"
                        )
                    self._patch(
                        target.owner, target.attr, self._wrap(original, target), original
                    )
                    continue
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(original, target)
                # ``from x import f`` copies the reference: patch the name in
                # every repro module that holds it, not just the defining one.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").split(".")[0] != "repro":
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper, original)
            yield self
        finally:
            while self._patches:
                holder, attr, original = self._patches.pop()
                setattr(holder, attr, original)

    def report(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` for the result file."""
        return {
            name: {
                "calls": self.calls.get(name, 0),
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.total_s)
        }
