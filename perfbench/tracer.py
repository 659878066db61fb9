"""In-memory spans around the public functions the CLI calls, wrapped from outside.

``chromaladder.cli`` binds its imports by name (``from .ladder import
optimize_arcs``), so a span must replace the name bound in the module that
calls it: ``chromaladder.cli.optimize_arcs``, not ``chromaladder.ladder``'s.
``candidates_for`` and ``bounds_for`` are called from ``chromaladder.ladder``
and are wrapped there. The per-candidate ``composite_normalized`` is left
unwrapped on purpose: at ~600k calls per run its wrapper cost would distort
the ladder self times. Private helpers are not wrapped either.

A binding that no longer exists (renamed or removed by a refactor) is
reported as unwrapped with zero calls; installing never raises.
"""

from __future__ import annotations

import functools
import importlib
import time


def _count_records(counters, datasets):
    counters["measurements.records"] += sum(len(ds.records) for ds in datasets)


def _count_candidates(counters, records):
    counters["measurements.candidates"] += len(records)


def _count_rungs(counters, ladder):
    counters["ladder.rungs_total"] += len(ladder.rungs)
    counters["ladder.rungs_absent"] += sum(r.choice is None for r in ladder.rungs)


def _count_json(counters, text):
    # The reports are ASCII, so characters equal UTF-8 bytes.
    counters["cli.to_json_text.bytes"] += len(text)


# (module that binds the name, attribute, span name, result counter or None).
# Span names use the module that defines the function.
TARGETS = (
    ("chromaladder.cli", "main", "cli.main", None),
    ("chromaladder.cli", "parse_dataset", "measurements.parse_dataset", _count_records),
    ("chromaladder.ladder", "candidates_for", "measurements.candidates_for", _count_candidates),
    ("chromaladder.ladder", "bounds_for", "objective.bounds_for", None),
    ("chromaladder.cli", "optimize_arcs", "ladder.optimize_arcs", _count_rungs),
    ("chromaladder.cli", "build_dynres", "ladder.build_dynres", _count_rungs),
    ("chromaladder.cli", "build_default", "ladder.build_default", _count_rungs),
    ("chromaladder.cli", "build_fixed", "ladder.build_fixed", _count_rungs),
    ("chromaladder.cli", "chroma_pmf", "ladder.chroma_pmf", None),
    ("chromaladder.cli", "build_curve", "bdmetrics.build_curve", None),
    ("chromaladder.cli", "bd_delta", "bdmetrics.bd_delta", None),
    ("chromaladder.cli", "aggregate", "bdmetrics.aggregate", None),
    ("chromaladder.cli", "to_json_text", "cli.to_json_text", _count_json),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
COUNTERS = (
    "measurements.records",
    "measurements.candidates",
    "ladder.rungs_total",
    "ladder.rungs_absent",
    "cli.to_json_text.bytes",
)


class Tracer:
    """Records one span per wrapped call: [name index, parent index, start ns,
    end ns, raised]. Spans stay in memory until ``summary``/``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for index, (module_name, attr, span_name, count) in enumerate(TARGETS):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, index, count))

    def _wrap(self, fn, index, count):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, raised calls and self seconds (duration minus
        the time covered by child spans); plus the counters and unwrapped names."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers = {name: {"calls": 0, "failed": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (index, _, start, end, raised) in enumerate(self.spans):
            layer = layers[SPAN_NAMES[index]]
            layer["calls"] += 1
            layer["failed"] += raised
            layer["self_s"] += (end - start - child_ns[i]) / 1e9
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "unwrapped": list(self.unwrapped),
        }

    def dump(self) -> dict:
        """All spans, for writing out after the run."""
        return {
            "names": list(SPAN_NAMES),
            "fields": ["name", "parent", "start_ns", "end_ns", "raised"],
            "spans": self.spans,
        }
