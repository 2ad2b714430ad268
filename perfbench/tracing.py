"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces module attributes the CLI looks up at call time
with timing wrappers and ``uninstall`` puts the originals back; nothing in
``patterngrid`` changes. Spans are kept in memory. Each wrapper also keeps
the call's arguments and result, so counts can be read from the returned
objects after the job, outside every timed region.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from time import perf_counter

# span name -> (module, attribute) pairs the span wraps, as the CLI calls them
SPANS = {
    "ingest.parse": [("cli", "parse_transactions_path")],
    "model.vocab": [("ingest", "build_vocabulary")],
    "reinforce.count": [("reinforce", "count_events")],
    "reinforce.band": [("reinforce", "band_clusters")],
    "counting.present": [("counting", "present_all")],
    "counting.select": [("counting", "select_clusters")],
    "grid.count": [("grid", "count_events")],
    "grid.extract": [("grid", "extract_clusters")],
    "grid.render": [("grid", "matrix_json"), ("grid", "matrix_text")],
    "hierarchy.present": [("hierarchy", "present_all")],
    "hierarchy.consolidate": [("hierarchy", "consolidate")],
    "hierarchy.render": [("hierarchy", "tree_json")],
    "evaluate.agreement": [("cli", "pairwise_agreement")],
}
ROOT = "cli.entry"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str


@dataclass(slots=True)
class Call:
    name: str
    arguments: inspect.BoundArguments
    result: object


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.job = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = perf_counter()

    def _wrapper(self, name: str, original):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            self.calls.append(Call(name, signature.bind(*args, **kwargs), result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = modules[module_name]
                original = getattr(module, attr)
                self._installed.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[Span], list[Call]]:
        """Hand over and forget everything recorded so far."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], []
        return spans, calls


def self_times_ms(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part its
    child spans cover. The CLI is single threaded, so children never
    overlap and their durations simply add."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for span, covered in zip(spans, children):
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - covered) * 1000
    return totals
