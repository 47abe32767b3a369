"""Outside-in tracing: spans recorded around calls into the program.

The benchmark never edits the program.  It replaces public functions and
methods with thin wrappers that open a span, call the original and close
the span -- at every place the program can reach the function from: the
defining class for methods, and *every* ``repro`` module global bound to
the function object for functions (``repro.experiments.bench`` calls its
own imported name ``summarize_topology``, not the one in
``repro.topology.validation``).  A target the program no longer has is
skipped, so its metrics read zero calls instead of failing.

A span records its name, start, end, parent and the operation it belongs
to.  Spans live in memory and are written out once the run ends.  A
span's *self time* is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import sys
import time
import weakref
from typing import Any, Callable, Optional, Sequence

#: ``hook(counts, args, kwargs, result)`` adds counts for one call.
CountHook = Callable[[collections.Counter, tuple, dict, Any], None]


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]


class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        #: Operation id stamped on spans opened from now on.
        self.op: Optional[int] = None
        self._clock = clock
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op}
            for s in self.spans
        ]


def covered_length(
    start: float, end: float, intervals: Sequence[tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    >>> covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)])
    5.0
    """
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return [
        (span.end - span.start) - covered_length(
            span.start, span.end,
            [(spans[c].start, spans[c].end) for c in children[index]],
        )
        for index, span in enumerate(spans)
    ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        original = (
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        )
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def lookup(path: str) -> Optional[tuple[Any, str, Any]]:
    """Resolve ``"module:Qual.name"`` to ``(owner, attribute, object)``.

    Returns ``None`` when the module, class or attribute does not exist.
    For a class attribute the raw ``__dict__`` entry is returned, so a
    property comes back as the property object.
    """
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        found = owner.__dict__.get(attribute)
    else:
        found = getattr(owner, attribute, None)
    if found is None:
        return None
    return owner, attribute, found


def timed(
    original: Callable, on_call: Callable[[], int], on_return: Callable[[int], None],
    hook: Optional[CountHook] = None, counts: Optional[collections.Counter] = None,
) -> Callable:
    """Wrap ``original`` between an open/close pair (and a count hook)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = on_call()
        try:
            result = original(*args, **kwargs)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        finally:
            on_return(token)

    return wrapper


def import_sites(function: Callable, prefix: str = "repro") -> list[tuple[Any, str]]:
    """Every ``(module, name)`` under ``prefix`` whose global is ``function``."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                sites.append((module, name))
    return sites


def install_span(
    tracer: Tracer, patches: Patches, path: str, name: str,
    hook: Optional[CountHook] = None,
) -> bool:
    """Trace ``path`` as span ``name``; False when the target is gone."""
    found = lookup(path)
    if found is None:
        return False
    owner, attribute, original = found

    def on_call() -> int:
        tracer.counts[name + "_calls"] += 1
        return tracer.open(name)

    wrapper = timed(original, on_call, tracer.close, hook, tracer.counts)
    if isinstance(owner, type):
        patches.set(owner, attribute, wrapper)
    else:
        for module, global_name in import_sites(original):
            patches.set(module, global_name, wrapper)
    return True


def install_first_access_span(
    tracer: Tracer, patches: Patches, path: str, name: str
) -> bool:
    """Trace only the first read of a lazy property, per instance.

    The first read of ``ResolvedExecution.schedule`` is what compiles the
    schedule; later reads return the memoized value and are not spans.
    """
    found = lookup(path)
    if found is None or not isinstance(found[2], property):
        return False
    owner, attribute, prop = found
    seen: "weakref.WeakSet" = weakref.WeakSet()

    def getter(instance):
        if instance in seen:
            return prop.fget(instance)
        seen.add(instance)
        tracer.counts[name + "_calls"] += 1
        token = tracer.open(name)
        try:
            return prop.fget(instance)
        finally:
            tracer.close(token)

    patches.set(owner, attribute, property(getter, doc=prop.__doc__))
    return True


class Stopwatch:
    """Accumulated wall time inside one class method, for untraced runs."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def install(self, patches: Patches, path: str) -> bool:
        found = lookup(path)
        if found is None:
            return False
        owner, attribute, original = found

        def on_call() -> int:
            return time.perf_counter_ns()

        def on_return(started: int) -> None:
            self.seconds += (time.perf_counter_ns() - started) * 1e-9

        patches.set(owner, attribute, timed(original, on_call, on_return))
        return True
