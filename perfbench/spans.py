"""Span recording around the library's public functions, from outside it.

The traced run must measure the same program as the timed runs, so it
never passes ``tracer=`` or ``sink=`` into the library (either one turns
the vectorised column kernels off).  Instead :func:`patched` wraps the
public functions and methods named in :data:`LAYERS` where the calling
code looks them up -- every ``repro`` module attribute bound to a wrapped
function, and the defining class of each wrapped method -- and restores
every original on exit.

A span is ``(id, parent id, name, start, end)``.  Each span's self time
(its duration minus the time its direct children cover) is folded into
per-name totals as the span closes, so memory stays flat however many
spans a run makes; only the first :data:`KEEP_SPANS` raw spans are kept
for writing out.  Spans are recorded in the process that installed the
patches only: forked shard workers inherit the wrappers disarmed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections.abc import Callable, Iterator
from pathlib import Path

#: Raw spans kept in memory for the span file (totals count every span).
KEEP_SPANS = 50_000

#: Estimator classes whose own ``core.*`` methods are wrapped.
_ESTIMATOR_CLASSES = (
    ("repro.core.landmark_extrema", "LandmarkExtremaEstimator"),
    ("repro.core.landmark_avg", "LandmarkAvgEstimator"),
    ("repro.core.sliding_extrema", "SlidingExtremaEstimator"),
    ("repro.core.sliding_avg", "SlidingAvgEstimator"),
)

#: Span name -> estimator method wrapped on every class in the estimators' MROs.
_ESTIMATOR_METHODS = {
    "core.update": "update",
    "core.update_many": "update_many",
    "core.update_columns": "update_columns",
    "core.estimate": "estimate",
    "core.estimate_bounds": "estimate_bounds",
    "core.merge_from": "merge_from",
}

#: Span name -> ``(module, class, method)`` of one public method.
_METHODS = {
    "structures.interval_tracker.push": (
        "repro.structures.intervals",
        "IntervalExtremaTracker",
        "push",
    ),
    "structures.ring_buffer.push": ("repro.structures.ring_buffer", "RingBuffer", "push"),
    "structures.moments.push": ("repro.structures.welford", "RunningMoments", "push"),
    "keyed.bank.update": ("repro.keyed.gated", "GatedKeyedBank", "update"),
    "keyed.bank.top": ("repro.keyed.gated", "GatedKeyedBank", "top"),
    "keyed.admission.update": ("repro.keyed.admission", "SpaceSavingAdmission", "update"),
    "parallel.start": ("repro.parallel.sharded", "ShardedIngestor", "start"),
    "parallel.ingest": ("repro.parallel.sharded", "ShardedIngestor", "ingest"),
    "parallel.query": ("repro.parallel.sharded", "ShardedIngestor", "query"),
}

#: Span name -> module-level functions, wrapped wherever a module binds them.
_FUNCTIONS = {
    "core.build_estimator": (("repro.core.engine", "build_estimator"),),
    "histograms.piecemeal_reallocate": (("repro.histograms.reallocate", "piecemeal_reallocate"),),
    "histograms.wholesale_reallocate": (("repro.histograms.reallocate", "wholesale_reallocate"),),
    "histograms.merge_split_swap": (("repro.histograms.maintenance", "merge_split_swap"),),
    "histograms.band_mass": (("repro.histograms.mass", "band_mass"),),
    "histograms.band_bounds": (("repro.histograms.mass", "band_bounds"),),
    "histograms.pour_uniform": (("repro.histograms.mass", "pour_uniform"),),
    "histograms.partition": (
        ("repro.histograms.partition", "uniform_boundaries"),
        ("repro.histograms.partition", "quantile_boundaries_from_histogram"),
        ("repro.histograms.partition", "quantile_boundaries_from_values"),
        ("repro.histograms.partition", "normal_quantile_boundaries"),
    ),
    "streams.records_to_columns": (("repro.streams.columns", "records_to_columns"),),
}

#: Every traced layer, in report order.
LAYERS = tuple(_ESTIMATOR_METHODS) + tuple(_FUNCTIONS) + tuple(_METHODS)


class SpanRecorder:
    """In-memory span stack with per-name call counts and self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 1
        self.armed = True
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[tuple[int, int, str, float, float]] = []
        # A forked child keeps the wrappers but must not record; the hook
        # holds the recorder weakly so it dies with its run.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _disarm(ref()))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        totals = self.totals.setdefault(name, [0, 0.0])
        clock = self._clock
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((span_id, parent, name, start, end))

        return traced

    def call(self, name: str, fn: Callable[[], object]) -> object:
        """Run ``fn()`` as one ``name`` span; returns its result."""
        return self.wrap(name, fn)()

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


def _disarm(recorder: SpanRecorder | None) -> None:
    if recorder is not None:
        recorder.armed = False


def _targets() -> Iterator[tuple[str, object, str]]:
    """Every ``(span name, owner, attribute)`` to wrap: classes, then modules."""
    seen: set[tuple[int, str]] = set()
    for module_name, class_name in _ESTIMATOR_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        for owner in cls.__mro__:
            for name, attr in _ESTIMATOR_METHODS.items():
                if attr in vars(owner) and (id(owner), attr) not in seen:
                    seen.add((id(owner), attr))
                    yield name, owner, attr
    for name, (module_name, class_name, attr) in _METHODS.items():
        yield name, getattr(importlib.import_module(module_name), class_name), attr
    for name, defs in _FUNCTIONS.items():
        for module_name, attr in defs:
            original = getattr(importlib.import_module(module_name), attr)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            yield name, module, bound


@contextlib.contextmanager
def patched(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every :data:`LAYERS` entry for the ``with`` body, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr in list(_targets()):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
