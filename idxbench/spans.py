"""Span recording around idxminer's layer functions, from outside the program.

``patched`` replaces module attributes that ``idxminer.cli.main`` and
``workload.parse_workload`` look up at call time with wrappers that record
one span per call (name, start, end, parent), and restores every original
on exit, even when the run raises. Spans stay in memory until the run ends.

A name that a later version of idxminer no longer has is skipped, so its
metrics come out absent instead of failing the run.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

TARGETS = (
    ("workload", "parse_workload"),
    ("workload", "split_statements"),
    ("workload", "tokenize"),
    ("workload", "parse_statement"),
    ("workload", "extract_workload"),
    ("workload", "parse_schema"),
    ("catalog", "load_stats"),
    ("advisor", "build_database"),
    ("miner", "mine_closed"),
    ("advisor", "derive_candidates"),
    ("advisor", "select"),
    ("report", "emit_ddl"),
    ("report", "emit_report"),
)

# Stages whose tracemalloc peak is reported. None of them calls another,
# so resetting the peak at each one's entry cannot disturb an enclosing one.
PEAK_TARGETS = (
    ("workload", "parse_workload"),
    ("workload", "extract_workload"),
    ("miner", "mine_closed"),
    ("advisor", "derive_candidates"),
)


def _diagnostics_len(args: tuple, kwargs: dict) -> Optional[int]:
    sink = kwargs.get("diagnostics", args[3] if len(args) > 3 else None)
    return len(sink) if isinstance(sink, list) else None


# Calls whose results the counts are computed from. Only references and an
# O(1) length are taken here; the counting happens after the run.
_KEEP: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "workload.parse_workload": lambda args, kwargs, result: result,
    "workload.extract_workload": lambda args, kwargs, result: (
        result, _diagnostics_len(args, kwargs)),
    "advisor.build_database": lambda args, kwargs, result: result,
    "miner.mine_closed": lambda args, kwargs, result: result,
    "advisor.derive_candidates": lambda args, kwargs, result: result,
    "advisor.select": lambda args, kwargs, result: result,
    "report.emit_ddl": lambda args, kwargs, result: result,
    "report.emit_report": lambda args, kwargs, result: result,
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Recorder.spans, -1 for a root


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.kept: dict[str, list] = {}
        self.wrapped: set[str] = set()
        self._open: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        keep = _KEEP.get(name)
        self.wrapped.add(name)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0, 0, self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._open.pop()
            if keep is not None:
                self.kept.setdefault(name, []).append(keep(args, kwargs, result))
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_ns):
            own = (span.end - span.start - covered) / 1e9
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)


class PeakRecorder:
    """tracemalloc peak above the entry level, per stage, in bytes."""

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}

    def span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[name] = max(self.peaks.get(name, 0), peak)

        return wrapper


@contextmanager
def patched(modules: dict[str, Any], recorder, targets=TARGETS):
    """Wrap every present target with ``recorder.span``; restore on exit."""
    saved = []
    try:
        for module_name, attr in targets:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, recorder.span(f"{module_name}.{attr}", original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
