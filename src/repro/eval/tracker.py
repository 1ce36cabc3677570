"""Run estimators over recorded streams and collect error series.

The tracker is the glue between the estimator factory and the metrics: it
replays one recorded stream through one or many methods, computes the exact
series once, and packages the output/error series the figures and tests
consume.

With ``obs=True`` each method additionally gets a
:class:`~repro.obs.sink.RecordingSink` attached: lifecycle events aggregate
into a per-method :class:`~repro.obs.registry.MetricsRegistry`, every
``estimator.update`` call is clocked with :func:`time.perf_counter_ns` into
the ``update.latency_ns`` timer, and the estimator's final ``obs_state()``
gauges are copied in under ``state.<key>``.  The whole apparatus is skipped
when ``obs`` is False, so the default path pays nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from repro.checkpoint import CheckpointManager
from repro.core.engine import build_estimator, methods_for_query
from repro.core.exact import exact_series
from repro.core.multiplex import QueryEngine
from repro.core.query import CorrelatedQuery
from repro.eval.metrics import prefix_rmse_series, rmse, sliding_rmse_series
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.audit import AccuracyAuditor
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import ObsSink, RecordingSink
from repro.obs.trace import Tracer
from repro.streams.model import Record, StreamAlgorithm

#: Callback invoked once per instrumented method with its live sink and
#: tracer (the CLI hangs the ``/metrics`` hub off this seam).
InstrumentHook = Callable[[str, RecordingSink | None, Tracer | None], None]

#: Methods whose construction scans the stream for offline knowledge
#: (equiwidth's domain, equidepth's and exact's universe).  The tracker
#: derives that knowledge once per evaluation and shares it.
_OFFLINE_METHODS = ("equiwidth", "equidepth", "exact")

#: Timer name under which per-update latencies are recorded.
UPDATE_TIMER = "update.latency_ns"


@dataclass
class MethodResult:
    """One method's run over one stream."""

    method: str
    outputs: np.ndarray
    exact: np.ndarray
    rmse_series: np.ndarray = field(repr=False)
    obs: RecordingSink | None = field(default=None, repr=False)

    @property
    def final_rmse(self) -> float:
        """The figure's headline number: ``RMSE_n`` at the last step."""
        return float(self.rmse_series[-1])

    @property
    def overall_rmse(self) -> float:
        """Plain RMSE over the whole series."""
        return rmse(self.outputs, self.exact)

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The method's metrics registry (None when run without obs)."""
        return self.obs.registry if self.obs is not None else None


def _replay(
    estimator: StreamAlgorithm,
    records: Sequence[Record],
    registry: MetricsRegistry | None = None,
    batch_size: int | None = None,
) -> list[float]:
    """Drive every record through ``estimator``; optionally clock each update.

    Without a registry the records go through ``update_many`` (in
    ``batch_size`` chunks when given, one batch otherwise) — the batched
    path is parity-tested to transcribe the scalar loop exactly.  The
    tracker always wants ``collect="all"`` (the default): its whole
    output is the per-record estimate series the error metrics consume,
    so the lean ``"none"`` mode the sharded workers and benchmarks use
    would defeat it here.  With a registry the scalar
    loop is kept: per-update latency profiling *is* the point there, and
    wrapping the clock around a batch would hide it.
    """
    if registry is None:
        update_many = getattr(estimator, "update_many", None)
        if update_many is None:  # third-party algorithm: scalar contract only
            update = estimator.update
            return [update(r) for r in records]
        if not batch_size:
            return update_many(records)
        outputs: list[float] = []
        for i in range(0, len(records), batch_size):
            outputs.extend(update_many(records[i : i + batch_size]))
        return outputs
    update = estimator.update
    observe = registry.timer(UPDATE_TIMER).observe_ns
    outputs = []
    append = outputs.append
    for r in records:
        start = perf_counter_ns()
        value = update(r)
        observe(perf_counter_ns() - start)
        append(value)
    return outputs


def _snapshot_state(estimator: object, registry: MetricsRegistry) -> None:
    """Copy the estimator's live-size gauges into ``state.<key>``."""
    state_fn = getattr(estimator, "obs_state", None)
    if state_fn is None:
        return
    for key, value in state_fn().items():
        registry.gauge(f"state.{key}").set(value)


def run_method(
    records: Sequence[Record],
    query: CorrelatedQuery,
    method: str,
    num_buckets: int = 10,
    sink: ObsSink | None = None,
    batch_size: int | None = None,
    tracer: Tracer | None = None,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    **kwargs: object,
) -> list[float]:
    """Replay ``records`` through one method; return its output series.

    With ``tracer`` the estimator's lifecycle edges record spans and the
    whole replay runs inside an ``eval.replay`` span; with ``audit_every``
    the estimator is wrapped in an :class:`~repro.obs.audit.AccuracyAuditor`
    auditing every that many tuples against ``audit_budget``.
    """
    if not records:
        raise ConfigurationError("run_method needs a non-empty stream")
    if tracer is not None:
        kwargs["tracer"] = tracer
    estimator = build_estimator(
        query, method, num_buckets=num_buckets, stream=records, sink=sink, **kwargs
    )
    if audit_every is not None:
        if kwargs.get("time_window") is not None:
            raise ConfigurationError(
                "auditing drives update(record) and cannot wrap a "
                "time-window estimator's (time, record) contract"
            )
        estimator = AccuracyAuditor(
            estimator,
            query,
            every=audit_every,
            budget=audit_budget,
            sink=sink,
            tracer=tracer,
        )
    registry = sink.registry if isinstance(sink, RecordingSink) else None
    if tracer is not None:
        with tracer.span("eval.replay", method=method, records=float(len(records))):
            outputs = _replay(estimator, records, registry, batch_size=batch_size)
    else:
        outputs = _replay(estimator, records, registry, batch_size=batch_size)
    if registry is not None:
        _snapshot_state(estimator, registry)
    return outputs


@dataclass
class ResumableEvaluation:
    """The checkpointed unit of a resumable multi-method evaluation.

    One :class:`~repro.core.multiplex.QueryEngine` fans the stream out to
    every method under evaluation, and the per-method output series
    collected so far ride along — so a run restored mid-stream still has
    the prefix outputs its error series need.  The whole object is what a
    :class:`~repro.checkpoint.CheckpointManager` pickles per generation.
    """

    engine: QueryEngine
    outputs: dict[str, list[float]]

    def update(self, record: Record) -> dict[str, float]:
        """One stream step: fan out, then append every method's output."""
        report = self.engine.update(record)
        for name, series in self.outputs.items():
            series.append(report[name])
        return report


def _package_results(
    outputs_by_method: dict[str, Sequence[float]],
    reference: np.ndarray,
    query: CorrelatedQuery,
    obs_by_method: dict[str, RecordingSink | None] | None = None,
) -> dict[str, MethodResult]:
    """Fold raw output series into :class:`MethodResult` objects."""
    window = query.window
    results: dict[str, MethodResult] = {}
    for method, raw in outputs_by_method.items():
        outputs = np.asarray(raw, dtype=np.float64)
        if query.is_sliding:
            assert window is not None
            series = sliding_rmse_series(outputs, reference, window)
        else:
            series = prefix_rmse_series(outputs, reference)
        results[method] = MethodResult(
            method=method,
            outputs=outputs,
            exact=reference,
            rmse_series=series,
            obs=(obs_by_method or {}).get(method),
        )
    return results


def evaluate_methods_resumable(
    records: Sequence[Record],
    query: CorrelatedQuery,
    checkpoint: CheckpointManager,
    methods: Sequence[str] | None = None,
    num_buckets: int = 10,
    exact: Sequence[float] | None = None,
    resume: bool = False,
    **kwargs: object,
) -> dict[str, MethodResult]:
    """Crash-safe variant of :func:`evaluate_methods`.

    All methods run through one :class:`~repro.core.multiplex.QueryEngine`
    whose state (plus the outputs collected so far) is checkpointed by
    ``checkpoint`` on its every-N schedule, with one final generation at
    end of stream.  With ``resume=True`` the newest intact generation is
    restored first and only the gap ``records[offset:]`` is replayed; the
    resulting estimates and error series are identical to an
    uninterrupted run (each estimator's update sequence is the same).

    The per-update latency instrumentation of ``obs=True`` is
    intentionally not offered here — resumed timings would splice two
    processes' clocks — so results carry ``obs=None``.
    """
    if not records:
        raise ConfigurationError("evaluate_methods_resumable needs a non-empty stream")
    if methods is None:
        methods = methods_for_query(query)
    wanted = list(methods)
    reference = np.asarray(
        exact if exact is not None else exact_series(records, query), dtype=np.float64
    )

    offline = [m for m in wanted if m in _OFFLINE_METHODS]
    universe = [r.x for r in records] if offline else None
    domain = None
    if universe is not None:
        low, high = min(universe), max(universe)
        if high <= low:  # constant stream: widen the domain minimally
            pad = max(abs(low) * 1e-9, 1e-12)
            low, high = low - pad, high + pad
        domain = (low, high)

    def fresh() -> ResumableEvaluation:
        engine = QueryEngine(num_buckets=num_buckets)
        for method in wanted:
            engine.register(
                method,
                query,
                method=method,
                num_buckets=num_buckets,
                domain=domain,
                universe=universe,
                **kwargs,
            )
        return ResumableEvaluation(engine, {method: [] for method in wanted})

    if resume:
        # No fresh fallback: an explicit resume of an empty directory is a
        # user error (wrong path), not a licence to start over silently.
        state, offset = checkpoint.resume(records)
        if not isinstance(state, ResumableEvaluation):
            raise StreamError(
                f"checkpoint in {checkpoint.directory} does not hold a "
                f"resumable evaluation (got {type(state).__name__})"
            )
        if list(state.outputs) != wanted:
            raise StreamError(
                f"checkpoint in {checkpoint.directory} evaluates methods "
                f"{list(state.outputs)}, but this run asked for {wanted}"
            )
    else:
        state, offset = fresh(), 0

    checkpoint.run(state, records, start=offset)
    return _package_results(state.outputs, reference, query)


def evaluate_methods(
    records: Sequence[Record],
    query: CorrelatedQuery,
    methods: Sequence[str] | None = None,
    num_buckets: int = 10,
    exact: Sequence[float] | None = None,
    obs: bool = False,
    batch_size: int | None = None,
    trace: bool = False,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    on_instrument: InstrumentHook | None = None,
    **kwargs: object,
) -> dict[str, MethodResult]:
    """Replay ``records`` through several methods against the exact oracle.

    Parameters
    ----------
    records:
        The recorded stream.
    query:
        The correlated aggregate.
    methods:
        Method names (defaults to every method applicable to the query).
    num_buckets:
        Bucket budget for histogram methods.
    exact:
        Precomputed exact series (recomputed once here when omitted).
    obs:
        Attach a :class:`~repro.obs.sink.RecordingSink` per method and
        profile per-update latency; results carry the sink in ``.obs``.
    batch_size:
        Feed each method through ``update_many`` in chunks of this many
        records (None = one batch per stream).  Ignored under ``obs``,
        which needs the scalar loop to clock individual updates.
    trace:
        Give each method a :class:`~repro.obs.trace.Tracer` exporting into
        its recording sink: lifecycle spans (``kernel.*``, ``eval.replay``)
        aggregate as ``span.*.duration_ns`` histograms.  Implies ``obs``.
    audit_every:
        Wrap each method in an :class:`~repro.obs.audit.AccuracyAuditor`
        auditing every that many tuples (``audit.*`` metrics land in the
        method's registry).  Implies ``obs``.
    audit_budget:
        Relative-error budget for the auditor's breach accounting.
    on_instrument:
        Called once per method with ``(method, sink, tracer)`` right after
        construction — the seam the CLI uses to expose live registries on
        ``/metrics`` while the replay is still running.
    kwargs:
        Extra configuration for focused estimators.
    """
    if not records:
        raise ConfigurationError("evaluate_methods needs a non-empty stream")
    if methods is None:
        methods = methods_for_query(query)
    if audit_every is not None and kwargs.get("time_window") is not None:
        raise ConfigurationError(
            "auditing drives update(record) and cannot wrap a time-window "
            "estimator's (time, record) contract"
        )
    instrumented = obs or trace or audit_every is not None
    reference = np.asarray(
        exact if exact is not None else exact_series(records, query), dtype=np.float64
    )

    # Offline knowledge (domain/universe) is derived in ONE scan here and
    # shared, instead of once per baseline inside build_estimator.
    offline = [m for m in methods if m in _OFFLINE_METHODS]
    universe: list[float] | None = None
    domain: tuple[float, float] | None = None
    scans_saved = 0
    if offline:
        universe = [r.x for r in records]
        low, high = min(universe), max(universe)
        if high <= low:  # constant stream: widen the domain minimally
            pad = max(abs(low) * 1e-9, 1e-12)
            low, high = low - pad, high + pad
        domain = (low, high)
        scans_saved = len(offline) - 1

    window = query.window
    results: dict[str, MethodResult] = {}
    for method in methods:
        sink = RecordingSink() if instrumented else None
        tracer = Tracer(sink) if trace else None
        method_kwargs = dict(kwargs)
        if tracer is not None:
            method_kwargs["tracer"] = tracer
        estimator = build_estimator(
            query,
            method,
            num_buckets=num_buckets,
            stream=records,
            domain=domain,
            universe=universe,
            sink=sink,
            **method_kwargs,
        )
        if audit_every is not None:
            estimator = AccuracyAuditor(
                estimator,
                query,
                every=audit_every,
                budget=audit_budget,
                sink=sink,
                tracer=tracer,
            )
        if on_instrument is not None:
            on_instrument(method, sink, tracer)
        registry = sink.registry if sink is not None else None
        if tracer is not None:
            with tracer.span(
                "eval.replay", method=method, records=float(len(records))
            ):
                raw = _replay(estimator, records, registry, batch_size=batch_size)
        else:
            raw = _replay(estimator, records, registry, batch_size=batch_size)
        outputs = np.asarray(raw, dtype=np.float64)
        if registry is not None:
            _snapshot_state(estimator, registry)
            registry.counter("eval.domain_scans_saved").inc(float(scans_saved))
        if query.is_sliding:
            assert window is not None
            series = sliding_rmse_series(outputs, reference, window)
        else:
            series = prefix_rmse_series(outputs, reference)
        results[method] = MethodResult(
            method=method,
            outputs=outputs,
            exact=reference,
            rmse_series=series,
            obs=sink,
        )
    return results
