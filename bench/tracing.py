"""In-memory spans around calls into chainsweep's public functions.

The tracer wraps functions at their module bindings for the duration of a
traced replay and restores them afterwards, so the program itself carries no
tracing code.  A span records its name, start, end, parent span, the item
being replayed, the RuntimeWarnings emitted while it was open and an optional
count of work units (chain sites, amplitude updates).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str
    warnings: int = 0
    work: float = 0.0


class Tracer:
    """Collects spans; ``warning_log`` is the list a surrounding
    ``warnings.catch_warnings(record=True)`` appends to."""

    def __init__(self, warning_log: list):
        self.spans: list[Span] = []
        self.item = ""
        self._stack: list[int] = []
        self._log = warning_log

    def wrap(self, name: str, fn, work=None):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = 0.0
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                units = float(work(bound.arguments))
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.item, 0, units)
            self.spans.append(span)
            self._stack.append(idx)
            seen = len(self._log)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.warnings = len(self._log) - seen

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer, package: str, targets):
    """Replace every binding of each target function inside ``package`` (its
    defining module and every module that imported it by name) with a traced
    wrapper; restore all bindings on exit.

    ``targets`` holds (module, function, work) triples, ``work`` mapping the
    call's bound arguments to work units or None.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    patched = []
    try:
        for module_name, func_name, work in targets:
            owner = sys.modules[f"{package}.{module_name}"]
            original = getattr(owner, func_name)
            wrapper = tracer.wrap(f"{module_name}.{func_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, [])):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    warnings: int = 0
    work: float = 0.0
    durations: list[float] = field(default_factory=list)


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name totals over all spans: inclusive and self time, calls,
    warnings (inclusive of nested calls) and work units."""
    stats: dict[str, LayerStats] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span.name, LayerStats())
        duration = span.end - span.start
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += own
        entry.warnings += span.warnings
        entry.work += span.work
        entry.durations.append(duration)
    return stats


def layer_value(stats: dict[str, LayerStats], metric: str, passes: int) -> float:
    """Value of a ``<module>.<function>.<stat>`` metric, per traced pass;
    0 when the function was never called."""
    layer, _, stat = metric.rpartition(".")
    entry = stats.get(layer)
    if entry is None or entry.calls == 0:
        return 0.0
    if stat == "calls":
        return entry.calls / passes
    if stat == "ms":
        return 1e3 * entry.total_s / passes
    if stat == "self_ms":
        return 1e3 * entry.self_s / passes
    if stat == "us_p50":
        return 1e6 * statistics.median(entry.durations)
    if stat == "warnings":
        return entry.warnings / passes
    if stat in ("sites_per_s", "amps_per_s"):
        return entry.work / entry.total_s if entry.total_s > 0 else 0.0
    raise ValueError(f"unknown layer statistic in {metric!r}")
