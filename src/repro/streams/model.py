"""Records, the stream-algorithm protocol, and stream runners.

The paper's model of computation (Section 2.1, after Henzinger et al.)
proceeds in steps: read ``S_in[i]``, compute in memory, write ``S_out[i]``.
A :class:`StreamAlgorithm` is exactly that contract: :meth:`~StreamAlgorithm.
update` consumes the next input record and returns the next output value.

Records carry two numeric attributes ``x`` and ``y`` matching the paper's
schema R(X, Y): the *independent* aggregate ranges over ``x`` and the
*dependent* aggregate over ``y``.  Plain ``(x, y)`` tuples are accepted
anywhere a :class:`Record` is; the estimators only unpack two fields.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError, StreamError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

#: Valid ``collect=`` modes for batched ingestion.
COLLECT_MODES = ("all", "none")


def check_collect(collect: str) -> None:
    """Validate a ``collect=`` argument with a did-you-mean error."""
    if collect not in COLLECT_MODES:
        raise ConfigurationError(
            f"unknown collect mode {collect!r}; choose one of "
            f"{', '.join(COLLECT_MODES)}"
        )


class Record(NamedTuple):
    """One stream tuple of the schema R(X, Y)."""

    x: float
    y: float = 1.0


def ensure_finite(record: Record) -> Record:
    """Reject NaN/infinite attributes before they poison a summary.

    A single NaN silently corrupts every running aggregate it touches
    (means, histogram totals, extrema comparisons), so estimators validate
    at ingestion and fail loudly instead.
    """
    if not (math.isfinite(record.x) and math.isfinite(record.y)):
        raise StreamError(f"non-finite record {record!r}")
    return record


@runtime_checkable
class StreamAlgorithm(Protocol):
    """One read–compute–emit step of the stream computation model.

    Implementations consume one input record per call and return the current
    value of their output sequence.  They must use bounded state (up to the
    logarithmic-growth caveat the paper notes).

    The two batch entries, :meth:`update_many` and :meth:`update_columns`,
    only change how tuples arrive, never what the step does; both take
    ``collect="all"`` (one output per tuple) or ``collect="none"`` (no
    outputs).  The focused estimators run both through one kernel loop
    (``FocusedEstimatorBase._ingest_batch``); the baselines, heuristics,
    exact oracle and accuracy auditor mix in :class:`BatchedIngest`, which
    loops over :meth:`update`.
    """

    def update(self, record: Record) -> float:
        """Consume ``S_in[i]`` and return ``S_out[i]``."""
        ...

    def update_many(
        self, records: Iterable[Record], collect: str = "all"
    ) -> list[float]:
        """Consume a chunk of records; return outputs per ``collect``.

        ``collect="all"`` (the default) must be exactly equivalent to
        ``[self.update(r) for r in records]`` — batching is an ingestion
        fast path, never a semantic change.  ``collect="none"`` ingests
        the chunk into the identical post-chunk state but returns ``[]``,
        letting implementations skip per-record answer extraction and the
        O(n) output list on million-tuple batches; call ``estimate()``
        afterwards for the final answer.
        """
        ...

    def update_columns(
        self,
        xs: "Iterable[float]",
        ys: "Iterable[float] | None" = None,
        collect: str = "all",
    ) -> list[float]:
        """Consume a columnar chunk: parallel arrays of x and y values.

        Equivalent to ``update_many([Record(x, y) for x, y in zip(xs, ys)],
        collect)`` with ``ys=None`` meaning y=1.0 throughout.  Columnar
        implementations may route the arrays through vectorised kernels
        instead of materialising records.
        """
        ...


class BatchedIngest:
    """Default ``update_many``/``update_columns`` for algorithms without a
    native batch path.

    Mixing this in satisfies the :class:`StreamAlgorithm` batch contract
    with a straight transcription of the scalar loop (plus the same tuple
    coercion ``run_stream`` performs), so callers can batch uniformly
    without caring which algorithms have a hand-tuned fast loop.
    """

    def update_many(
        self, records: Iterable[Record], collect: str = "all"
    ) -> list[float]:
        """Consume a chunk of records via the scalar ``update`` loop."""
        check_collect(collect)
        update = self.update  # type: ignore[attr-defined]
        if collect == "all":
            return [
                update(r if isinstance(r, Record) else Record(*r)) for r in records
            ]
        for r in records:
            update(r if isinstance(r, Record) else Record(*r))
        return []

    def update_columns(
        self,
        xs: Iterable[float],
        ys: Iterable[float] | None = None,
        collect: str = "all",
    ) -> list[float]:
        """Consume a columnar chunk via the scalar ``update`` loop."""
        from repro.streams.columns import as_columns, columns_to_records

        x_col, y_col = as_columns(xs, ys)
        return self.update_many(columns_to_records(x_col, y_col), collect=collect)


@runtime_checkable
class ObservableAlgorithm(StreamAlgorithm, Protocol):
    """A stream algorithm that also reports live state-size gauges.

    Every estimator in this library implements it: ``obs_state()`` returns
    a flat name→value mapping of the summary's current footprint (bucket
    count, ring length, tail mass, ...), which the evaluation tracker
    copies into ``state.<key>`` gauges after a run.
    """

    def obs_state(self) -> dict[str, float]:
        """Current state-size gauges, name → value."""
        ...


def profile_stream(
    algorithm: StreamAlgorithm,
    stream: Iterable[Record],
    registry: "MetricsRegistry",
) -> list[float]:
    """Drive ``algorithm`` over ``stream``, timing every update.

    Each ``update`` call is clocked with :func:`time.perf_counter_ns` into
    the registry's ``update.latency_ns`` timer; if the algorithm is
    :class:`ObservableAlgorithm`, its final ``obs_state()`` lands in
    ``state.<key>`` gauges.  Returns the full output sequence.
    """
    from time import perf_counter_ns

    timer = registry.timer("update.latency_ns")
    observe = timer.observe_ns
    update = algorithm.update
    outputs: list[float] = []
    for item in stream:
        record = item if isinstance(item, Record) else Record(*item)
        start = perf_counter_ns()
        value = update(record)
        observe(perf_counter_ns() - start)
        outputs.append(value)
    state_fn = getattr(algorithm, "obs_state", None)
    if state_fn is not None:
        for key, value in state_fn().items():
            registry.gauge(f"state.{key}").set(value)
    return outputs


def run_stream(algorithm: StreamAlgorithm, stream: Iterable[Record]) -> Iterator[float]:
    """Lazily drive ``algorithm`` over ``stream``, yielding each output.

    This is the model's outer loop: one output value per input record.
    """
    for item in stream:
        record = item if isinstance(item, Record) else Record(*item)
        yield algorithm.update(record)


def materialize(algorithm: StreamAlgorithm, stream: Iterable[Record]) -> list[float]:
    """Run ``algorithm`` over ``stream`` and collect the full output sequence."""
    return list(run_stream(algorithm, stream))


def as_records(values: Iterable[float | tuple[float, ...] | Record]) -> list[Record]:
    """Coerce a mixed iterable into :class:`Record` objects.

    Bare floats become ``Record(x=v, y=1.0)``, so COUNT-style dependent
    aggregates work without callers having to invent a y attribute.
    """
    records = []
    for item in values:
        if isinstance(item, Record):
            records.append(item)
        elif isinstance(item, tuple):
            records.append(Record(*item))
        else:
            records.append(Record(float(item)))
    return records
