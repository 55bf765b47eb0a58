"""Structured tracing: nested, monotonic-clock span trees.

The observability layer's timing primitive.  A *span* is one named,
timed region of code; spans nest, forming a tree per trial::

    with trace.capture("trial", publisher="noisefirst", seed=3) as root:
        with trace.span("publish"):
            with trace.span("partition.dp", k=32, n=1024):
                ...
    root.to_dict()   # JSON-ready nested tree

Design constraints (see ``docs/observability.md``):

* **Off by default, near-free when off.**  ``span`` consults one
  thread-local attribute; with no active capture it returns a shared
  null context manager — no allocation, no clock read.  A perf test
  (``tests/obs/test_overhead.py``) asserts the disabled cost stays
  under 5% of a representative publish.
* **Monotonic.**  Durations come from ``time.perf_counter`` (the
  monotonic high-resolution clock); spans never read wall-clock time,
  so traces are immune to clock steps.  This module is the only reader
  of that clock in ``repro``.
* **One clock per request.**  :func:`root` opens a root that records
  whether or not tracing is on; the serving wing derives each
  request's latency, stage map and histograms from that one tree
  (``repro.serve.telemetry``).
* **Worker-safe.**  Activation is by the :data:`ENV_VAR` environment
  variable (inherited by pool workers, exactly like
  ``repro.robust.faults``) or a process-local :func:`set_enabled` flag.
  The worker builds its span tree locally and ships it back through the
  existing pickle channel as plain dicts inside
  ``RunRecord.meta["trace"]`` — timing-exempt meta, so the
  parallel-equals-serial bit-identity contract is untouched.
* **Zero dependencies.**  Stdlib only; everything serializes to plain
  ``dict``/``list``/``str``/``float`` so both pickle (worker channel)
  and JSON (checkpoint journal) round-trip it losslessly.

The module also owns the repo's shared low-level timers —
:class:`Stopwatch` and :func:`best_of` — so ``experiments/runner.py``
and ``perf/bench.py`` report through one code path instead of each
hand-rolling ``perf_counter`` arithmetic.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "Span",
    "Stopwatch",
    "best_of",
    "capture",
    "enabled",
    "root",
    "self_seconds",
    "set_enabled",
    "span",
    "stage_totals",
    "walk",
]

#: Environment variable that turns tracing on (any non-empty value).
#: Environment activation is what makes worker processes inherit it.
ENV_VAR = "REPRO_TRACE"

#: Process-local override: ``None`` defers to the environment.
_ENABLED: Optional[bool] = None


class _State(threading.local):
    """Per-thread span stack; ``None`` while no root is open.

    The class default makes the disabled read a plain attribute hit.  A
    bare ``threading.local`` that never held a stack answers
    ``getattr(local, "stack", None)`` only after raising and catching
    ``AttributeError`` inside, which costs more than the rest of
    :func:`span` put together.
    """

    stack: Optional[List["Span"]] = None


_STATE = _State()


def set_enabled(value: Optional[bool]) -> Optional[bool]:
    """Set the process-local tracing flag; returns the previous value.

    ``True``/``False`` override the environment; ``None`` restores
    environment-driven behavior (:data:`ENV_VAR`).  Note that worker
    *processes* only see the environment variable — a CLI that wants
    traced workers must export :data:`ENV_VAR` (the ``--trace`` flag
    does exactly that).
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = value
    return previous


def enabled() -> bool:
    """Whether new captures will record spans."""
    if _ENABLED is not None:
        return _ENABLED
    return bool(os.environ.get(ENV_VAR))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce span attributes to JSON-safe scalars (str fallback)."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, bool) or value is None:
            out[key] = value
        elif isinstance(value, (int, float, str)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


@dataclass
class Span:
    """One timed region: name, attributes, duration, children.

    ``seconds`` is filled when the span closes; ``children`` hold the
    sub-spans opened while this span was the innermost open one.
    """

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form: picklable, JSON-able, journal-safe."""
        out: Dict[str, Any] = {"name": self.name, "seconds": self.seconds}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload.get("name", "")),
            attrs=dict(payload.get("attrs", {})),
            seconds=float(payload.get("seconds", 0.0)),
            children=[
                cls.from_dict(child)
                for child in payload.get("children", [])
            ],
        )


class _NullSpanContext:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL = _NullSpanContext()


class _LiveSpanContext:
    """Context manager that appends a timed child span to the stack."""

    __slots__ = ("_stack", "_span", "_t0")

    def __init__(self, stack: List[Span], name: str,
                 attrs: Dict[str, Any]) -> None:
        self._stack = stack
        self._span = Span(name=name, attrs=_clean_attrs(attrs))

    def __enter__(self) -> Span:
        self._stack[-1].children.append(self._span)
        self._stack.append(self._span)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._t0
        popped = self._stack.pop()
        popped.seconds = elapsed
        return False


def span(name: str, **attrs: Any):
    """Open a child span under the active capture (no-op without one).

    The disabled path is a single thread-local attribute read returning
    a shared null context manager — safe to leave on hot paths.
    """
    stack = _STATE.stack
    if stack is None:
        return _NULL
    return _LiveSpanContext(stack, name, attrs)


class _RootContext:
    """Root-span context installing a fresh span stack for this thread."""

    __slots__ = ("_name", "_attrs", "_root", "_previous", "_t0")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._root = Span(name=self._name, attrs=_clean_attrs(self._attrs))
        self._previous = _STATE.stack
        _STATE.stack = [self._root]
        self._t0 = time.perf_counter()
        return self._root

    def __exit__(self, *exc: Any) -> bool:
        self._root.seconds = time.perf_counter() - self._t0
        _STATE.stack = self._previous
        return False


def root(name: str, **attrs: Any):
    """Start a root span for this thread, whether tracing is on or off.

    Returns a context manager yielding the root :class:`Span`; spans
    opened under it record as under :func:`capture`.  For callers whose
    own numbers are read off the tree, so they must not depend on the
    tracing flag.  Roots stack like captures: the inner one records into
    its own tree and restores the outer one on exit.
    """
    return _RootContext(name, attrs)


def capture(name: str, **attrs: Any):
    """Start a root span (when tracing is enabled) for this thread.

    Returns a context manager yielding the root :class:`Span`, or
    ``None`` when tracing is disabled.  Nested captures stack: the inner
    capture records into its own tree and restores the outer one on
    exit.
    """
    if not enabled():
        return _NULL
    return _RootContext(name, attrs)


# ---------------------------------------------------------------------------
# Trace-tree analytics
# ---------------------------------------------------------------------------

def walk(tree: Dict[str, Any], prefix: str = "") -> Iterator[
        Tuple[str, Dict[str, Any]]]:
    """Depth-first ``(path, span_dict)`` pairs over a serialized tree.

    Paths are slash-joined span names (``"trial/publish/partition.dp"``),
    the scheme the metrics bridge and the run reports aggregate on.
    """
    path = f"{prefix}/{tree.get('name', '')}" if prefix else str(
        tree.get("name", ""))
    yield path, tree
    for child in tree.get("children", ()):
        yield from walk(child, path)


def self_seconds(node: Dict[str, Any]) -> float:
    """A span's own time: its seconds minus its direct children's.

    The "unattributed" remainder of a serialized span — what the
    serving debug endpoint reports as time a request spent outside any
    documented stage.  Clamped at zero (float rounding can make child
    sums exceed the parent by a few ulps).
    """
    own = float(node.get("seconds", 0.0))
    children = sum(
        float(child.get("seconds", 0.0))
        for child in node.get("children", ())
    )
    return max(0.0, own - children)


def stage_totals(tree: Dict[str, Any]) -> Dict[str, Tuple[int, float]]:
    """Aggregate a serialized trace: path -> (calls, total seconds)."""
    totals: Dict[str, Tuple[int, float]] = {}
    for path, node in walk(tree):
        calls, seconds = totals.get(path, (0, 0.0))
        totals[path] = (calls + 1, seconds + float(node.get("seconds", 0.0)))
    return totals


# ---------------------------------------------------------------------------
# Shared low-level timers (the one perf_counter code path)
# ---------------------------------------------------------------------------

class Stopwatch:
    """Minimal monotonic timer: ``with Stopwatch() as sw: ...; sw.seconds``.

    Measures regardless of whether tracing is enabled — this is the
    primitive behind ``RunRecord.seconds`` and the tracked benchmarks,
    not an observability feature that can be off.
    """

    __slots__ = ("seconds", "_t0")

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.seconds = time.perf_counter() - self._t0
        return False


def best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``.

    The benchmark timer (best-of-N suppresses scheduler noise); shared
    by ``repro.perf.bench`` and the perf tests.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        with Stopwatch() as sw:
            fn()
        best = min(best, sw.seconds)
    return best
