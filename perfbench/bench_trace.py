"""Benchmark-side tracer: spans and counts around the public functions of
``iterreg``, installed from outside the package.

Every public function of every loaded ``iterreg`` module (the names in
its ``__all__`` that it defines itself), plus the constructors listed in
``EXTRA_TARGETS``, is replaced by a wrapper in its defining module *and*
in every ``iterreg`` module that imported it by name (for example
``iterreg.cli.sgd_run`` and ``iterreg.problems.jacobi_eigh``), so calls
are seen whichever module makes them.  ``uninstall`` puts the originals
back.

Spans are kept in memory as (name, start, end, parent, thread) on a
per-thread stack, because ``variance-mc`` runs its seeds in a thread
pool.  A span that starts with an empty stack in a worker thread is
adopted by the span open on the installing thread at that moment, so a
pool's work counts as the children of the call that submitted it.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "iterreg"

# Constructors that do real work (eigendecomposition, moment checks) but
# are classes or class methods rather than functions in ``__all__``.
# A target that no longer exists is skipped: its metrics read zero calls.
EXTRA_TARGETS = ("problems.KernelProblem", "problems.QuadraticProblem.from_data")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    result: object = None


def _package_modules():
    return sorted((m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))),
                  key=lambda m: m.__name__)


class Tracer:
    """Records a span per call of every wrapped function while installed.

    ``hooks`` maps a span name to a function of the call's result whose
    return value is kept on the span (the hook runs after the span is
    closed, so its cost is not attributed to the call).
    """

    def __init__(self, hooks: Optional[Dict[str, Callable]] = None):
        self.hooks = dict(hooks or {})
        self.spans: List[Span] = []
        self.wrapped: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: List[int] = []
        self.main_thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        span = Span(name, time.perf_counter(), 0.0, parent, threading.get_ident())
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the caller's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            hook = tracer.hooks.get(name)
            if hook is not None:
                try:
                    span.result = hook(args, kwargs, result)
                except (TypeError, AttributeError, ValueError):
                    pass    # a result of another shape: keep the span, not the detail
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _targets(self):
        """(span name, function) for public functions, and (span name,
        (owner, attribute, class or classmethod)) for ``EXTRA_TARGETS``."""
        for mod in _package_modules():
            short = mod.__name__[len(PACKAGE) + 1:]
            if not short:
                continue
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{short}.{attr}", obj
        for target in EXTRA_TARGETS:
            short, *path = target.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{short}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                obj = inspect.getattr_static(owner, path[-1])
            except (ImportError, AttributeError):
                continue
            yield target, (owner, path[-1], obj)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        self.main_thread = threading.get_ident()
        modules = _package_modules()
        self.wrapped = []
        for name, target in self._targets():
            if isinstance(target, tuple):
                owner, attr, obj = target
                if inspect.isclass(obj):
                    # Patch the constructor so every reference to the
                    # class, in any module, goes through the span.
                    self._patch(obj, "__init__", self._wrap(name, obj.__init__))
                elif isinstance(obj, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, obj.__func__)))
                else:
                    continue
            else:
                wrapper = self._wrap(name, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, attr, wrapper)
            self.wrapped.append(name)
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._local.stack = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ---------------------------------------------------------

    def summary(self, names) -> Dict[str, Tuple[int, float]]:
        """(calls, inclusive seconds) for each name; absent names read (0, 0)."""
        out = {name: (0, 0.0) for name in names}
        for span in self.spans:
            if span.name in out:
                calls, total = out[span.name]
                out[span.name] = (calls + 1, total + span.end - span.start)
        return out

    def results(self, name: str) -> list:
        return [s.result for s in self.spans if s.name == name]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reached = 0.0, float("-inf")
    for start, end in sorted(intervals):
        total += max(0.0, end - max(start, reached))
        reached = max(reached, end)
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping children (concurrent pool workers) are counted once.
    """
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(index, ())
            if c.end > span.start and c.start < span.end
        )
        out.append(span.end - span.start - covered)
    return out


def self_time_by_module(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per module (the first component of a span name)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        module = span.name.split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + own
    return totals
