"""Sharded multi-process ingestion over mergeable summaries.

:class:`ShardedIngestor` is a front-end over the existing estimators: it
partitions a stream across ``multiprocessing`` workers, each running one
estimator over its shard via the columnar ``update_columns`` path, and merges
the per-shard summaries at query time in the coordinator (the
``add``/``merge``/``end`` aggregation-function shape).

Exactness boundaries (see docs/PARALLEL.md for the full table):

* counts, weights, moments (mean/variance) and extrema merge **exactly**;
* GK rank sketches merge within ``(sum of shard eps) * n`` ranks;
* bucket-histogram mass is re-poured pro-rata under the paper's local-
  uniformity assumption — the merged estimator's ``merge_error_bound()``
  reports the mass whose placement relied on it.

Only landmark-scope focused estimators are shardable: sliding windows are
defined over a single arrival order, which partitioning destroys, so
sliding queries (and ``time_window=``) are rejected up front.

The coordinator works on columns: :meth:`ShardedIngestor.ingest` turns
each batch into one ``(xs, ys)`` float64 pair and hands it to
:meth:`ShardedIngestor.ingest_columns`, which validates it, partitions it
with the partitioner's ``split``, and buffers column pieces per shard
until a chunk is full.

IPC protocol: one input queue per shard and one shared output queue.
:meth:`ShardedIngestor._send_columns` pickles each ``chunk_size`` slice
of a flushed column pair into one ``bytes`` blob and puts it on the
shard's queue; the ``("query",)`` and ``("stop",)`` messages share that
queue, so per-shard FIFO makes them fences behind every chunk sent
before them.  Each worker feeds chunks straight into its estimator's
``update_columns`` kernel with ``collect="none"`` — no per-record
estimates, no per-record objects on the wire.  Workers receive their
estimator as an explicit pickle payload, so construction is identical —
and tested — under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import traceback
from collections.abc import Iterable

import numpy as np

from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.focused import FocusedEstimatorBase
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import NULL_SINK, ObsSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.partition import RangePartitioner, RoundRobinPartitioner, make_partitioner
from repro.streams import columns
from repro.streams.model import Record

__all__ = ["ShardedIngestor"]

_MAX_SHARDS = 64


class _ColumnBuffer:
    """Column pieces waiting to be sent, in arrival order."""

    def __init__(self) -> None:
        self._xs: list[np.ndarray] = []
        self._ys: list[np.ndarray] = []
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self._xs.append(xs)
        self._ys.append(ys)
        self._n += len(xs)

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        """Empty the buffer, returning its pieces as one column pair."""
        xs, ys = self._xs, self._ys
        self._xs, self._ys, self._n = [], [], 0
        if len(xs) == 1:
            return xs[0], ys[0]
        return np.concatenate(xs), np.concatenate(ys)


def _shard_worker(shard_id: int, estimator_payload: bytes, in_queue, out_queue) -> None:
    """One worker process: unpickle the estimator, drain chunks, answer queries."""
    ingested = 0
    try:
        estimator = pickle.loads(estimator_payload)
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "chunk":
                xs, ys = pickle.loads(message[1])
                estimator.update_columns(xs, ys, collect="none")
                ingested += len(xs)
            elif kind == "query":
                out_queue.put(("summary", shard_id, estimator, ingested))
            elif kind == "stop":
                out_queue.put(("stopped", shard_id, ingested))
                return
    except Exception:
        # Report how far this shard got so the coordinator can log the
        # partial progress alongside the traceback.
        out_queue.put(("error", shard_id, traceback.format_exc(), ingested))


class ShardedIngestor:
    """Partition a stream across worker processes; merge summaries on query.

    Parameters
    ----------
    query:
        A landmark-scope :class:`~repro.core.query.CorrelatedQuery`
        (sliding windows are not shardable).
    method:
        One of the four focused methods — their estimators implement the
        MergeableSummary protocol.
    shards:
        Number of worker processes (``1..64``).
    partition:
        ``'round-robin'`` (default), ``'hash'``, or ``'range'`` — see
        :mod:`repro.parallel.partition` for the trade-offs.
    chunk_size:
        Records per IPC message; batching amortises per-message overhead.
    start_method:
        ``multiprocessing`` start method (``'fork'``/``'spawn'``/...);
        ``None`` uses the platform default.
    sink, tracer:
        Coordinator-side observability.  Workers run without obs plumbing
        (their summaries travel back whole; per-shard gauges are exposed
        via :meth:`obs_state` and the ``parallel.*`` events instead).
    estimator_kwargs:
        Forwarded to :func:`~repro.core.engine.build_estimator` for every
        shard's estimator (``k_std``, ``swap_period``, ...).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        method: str = "piecemeal-uniform",
        num_buckets: int = 10,
        shards: int = 2,
        partition: str = "round-robin",
        chunk_size: int = 4096,
        start_method: str | None = None,
        result_timeout: float = 120.0,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
        **estimator_kwargs,
    ) -> None:
        if not isinstance(shards, int) or not 1 <= shards <= _MAX_SHARDS:
            raise ConfigurationError(
                f"shards must be an integer in [1, {_MAX_SHARDS}], got {shards!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if query.is_sliding:
            raise ConfigurationError(
                "sliding-window queries are not shardable: the window is "
                "defined over a single arrival order, which partitioning "
                "destroys; drop the window= scope or ingest single-process"
            )
        if "time_window" in estimator_kwargs:
            raise ConfigurationError(
                "time_window= is not shardable (a time window is a sliding "
                "scope); drop it or ingest single-process"
            )
        if method not in FOCUSED_METHODS:
            raise ConfigurationError(
                "sharded ingestion merges focused summaries; method must be "
                f"one of {FOCUSED_METHODS}, not {method!r}"
            )
        valid = (None,) + tuple(mp.get_all_start_methods())
        if start_method not in valid:
            raise ConfigurationError(
                f"unknown start method {start_method!r}; "
                f"this platform supports {mp.get_all_start_methods()}"
            )
        self._query = query
        self._method = method
        self._shards = shards
        self._chunk_size = chunk_size
        self._partitioner = make_partitioner(partition, shards)
        self._start_method = start_method
        self._timeout = result_timeout
        self._obs = sink if sink is not None else NULL_SINK
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Build every shard's estimator in the coordinator and ship it as
        # an explicit pickle: workers never re-run the factory, and the
        # payload path exercises spawn-safety identically under fork.
        self._payloads = [
            pickle.dumps(
                build_estimator(query, method, num_buckets=num_buckets, **estimator_kwargs),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            for _ in range(shards)
        ]
        self._buffers = [_ColumnBuffer() for _ in range(shards)]
        self._prime_buffer = _ColumnBuffer()
        self._sent = [0] * shards
        self._ingested = 0
        self._last_bound: float | None = None
        self._failure: str | None = None
        self._chunks = 0
        self._bytes = 0
        self._processes: list[mp.process.BaseProcess] = []
        self._queues: list = []
        self._out = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Launch the worker processes (idempotent)."""
        if self._started:
            return
        if self._closed:
            raise StreamError("ShardedIngestor was closed; build a new one")
        ctx = mp.get_context(self._start_method)
        self._out = ctx.Queue()
        self._queues = [ctx.Queue() for _ in range(self._shards)]
        self._processes = []
        for shard_id in range(self._shards):
            process = ctx.Process(
                target=_shard_worker,
                args=(shard_id, self._payloads[shard_id], self._queues[shard_id], self._out),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            process.start()
            self._processes.append(process)
        self._started = True

    def _raise_if_failed(self) -> None:
        """After a worker failed, died or stopped answering, refuse further work."""
        if self._failure is not None:
            raise StreamError(
                "a shard worker failed earlier, so this ingestor can neither "
                f"ingest nor answer; first reported failure: {self._failure}"
            )

    def close(self) -> None:
        """Stop the workers, reclaim the processes, close the queues."""
        if not self._started or self._closed:
            self._closed = True
            return
        for shard in range(self._shards):
            try:
                self._queues[shard].put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for queue in (*self._queues, self._out):
            queue.close()
            queue.cancel_join_thread()
        self._closed = True
        self._started = False

    def __enter__(self) -> "ShardedIngestor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ ingestion

    def ingest(self, records: Iterable[Record]) -> None:
        """Partition a batch of records across the shards.

        The batch becomes one ``(xs, ys)`` column pair (non-``Record``
        items are built into records first, so ``(x,)`` means ``y=1.0``),
        then goes through :meth:`ingest_columns`.
        """
        records = records if isinstance(records, list) else list(records)
        self.ingest_columns(*columns.records_to_columns(records))

    def ingest_columns(self, xs: Iterable[float], ys: Iterable[float] | None = None) -> None:
        """Partition a columnar batch across the shards.

        ``ys=None`` means every tuple has y=1.0, as in ``update_columns``.
        A batch holding a NaN or infinite value raises
        :class:`~repro.exceptions.StreamError` naming its first position;
        nothing from that batch is sent and the ingestor stays usable.
        The columns are copied, so the caller may reuse its arrays.
        """
        self._raise_if_failed()
        x_col, y_col = columns.as_columns(xs, ys)
        bad = ~(np.isfinite(x_col) & np.isfinite(y_col))
        if bad.any():
            i = int(bad.argmax())
            raise StreamError(
                f"non-finite record at position {i} of the batch "
                f"(x={float(x_col[i])!r}, y={float(y_col[i])!r}); nothing was ingested"
            )
        if not self._started:
            self.start()
        n = len(x_col)
        if not n:
            return
        x_col, y_col = x_col.copy(), y_col.copy()
        if self._tracer.enabled:
            with self._tracer.span("parallel.ingest", records=float(n)):
                self._partition(x_col, y_col)
        else:
            self._partition(x_col, y_col)
        self._ingested += n
        if self._obs.enabled:
            self._obs.emit("parallel.ingest", records=float(n), shards=float(self._shards))

    def _partition(self, xs: np.ndarray, ys: np.ndarray) -> None:
        partitioner = self._partitioner
        if isinstance(partitioner, RangePartitioner) and not partitioner.primed:
            # Buffer until one chunk's worth of sample fixes the split points.
            self._prime_buffer.append(xs, ys)
            if len(self._prime_buffer) >= max(self._chunk_size, 4 * self._shards):
                self._prime_range()
            return
        if isinstance(partitioner, RoundRobinPartitioner):
            parts = partitioner.split(xs, ys, self._chunk_size)
        else:
            parts = partitioner.split(xs, ys)
        for shard, x_part, y_part in parts:
            buffer = self._buffers[shard]
            buffer.append(x_part, y_part)
            if len(buffer) >= self._chunk_size:
                self._flush_shard(shard)

    def _prime_range(self) -> None:
        assert isinstance(self._partitioner, RangePartitioner)
        xs, ys = self._prime_buffer.take()
        self._partitioner.prime(xs.tolist())
        self._partition(xs, ys)

    def _flush_shard(self, shard: int) -> None:
        buffer = self._buffers[shard]
        if not len(buffer):
            return
        xs, ys = buffer.take()
        self._send_columns(shard, xs, ys)
        self._sent[shard] += len(xs)

    def _send_columns(self, shard: int, xs: np.ndarray, ys: np.ndarray) -> None:
        """Ship the columns to ``shard`` as pickled chunks of ``chunk_size``.

        Each chunk is pickled here, synchronously: ``Queue.put`` pickles in
        a feeder thread later, and a ``bytes`` blob cannot be seen
        half-changed.
        """
        queue = self._queues[shard]
        for lo in range(0, len(xs), self._chunk_size):
            hi = lo + self._chunk_size
            blob = pickle.dumps((xs[lo:hi], ys[lo:hi]), protocol=pickle.HIGHEST_PROTOCOL)
            queue.put(("chunk", blob))
            self._chunks += 1
            self._bytes += len(blob)

    def flush(self) -> None:
        """Push every partially filled buffer out to its shard."""
        self._raise_if_failed()
        if isinstance(self._partitioner, RangePartitioner) and len(self._prime_buffer):
            self._prime_range()
        for shard in range(self._shards):
            self._flush_shard(shard)

    # -------------------------------------------------------------- queries

    def merged_estimator(self) -> FocusedEstimatorBase:
        """Collect every shard's summary and merge them into one estimator.

        The returned estimator is a coordinator-side snapshot: the workers
        keep their live estimators, so ingestion can continue and further
        queries see the newer state.
        """
        if not self._started:
            self.start()
        self.flush()
        for shard in range(self._shards):
            self._queues[shard].put(("query",))
        summaries: dict[int, FocusedEstimatorBase] = {}
        counts: dict[int, int] = {}
        waited = 0.0
        poll = min(2.0, self._timeout)
        while len(summaries) < self._shards:
            try:
                message = self._out.get(timeout=poll)
            except queue_mod.Empty:
                dead = [p.name for p in self._processes if not p.is_alive()]
                waited += poll
                if dead:
                    self._failure = (
                        f"shard workers died before answering: {dead} "
                        "(a worker that was killed or could not unpickle its "
                        "estimator exits without reporting; check the stderr above)"
                    )
                    raise StreamError(self._failure) from None
                if waited >= self._timeout:
                    # A late summary from this round would otherwise be
                    # merged as current by the next query.
                    self._failure = (
                        f"timed out waiting for shard summaries after {self._timeout}s"
                    )
                    raise StreamError(self._failure) from None
                continue
            tag = message[0]
            if tag == "error":
                _, shard_id, trace, done = message
                if self._obs.enabled:
                    self._obs.emit(
                        "parallel.worker_error",
                        shard=float(shard_id),
                        ingested=float(done),
                        sent=float(self._sent[shard_id]),
                    )
                self._failure = (
                    f"shard {shard_id} failed after ingesting {done} of "
                    f"{self._sent[shard_id]} sent records:\n{trace}"
                )
                raise StreamError(self._failure)
            if tag == "summary":
                summaries[message[1]] = message[2]
                counts[message[1]] = message[3]
        with self._tracer.span("parallel.merge", shards=float(self._shards)):
            merged = summaries[0]
            for shard in range(1, self._shards):
                merged.merge_from(summaries[shard])
        try:
            self._last_bound = merged.merge_error_bound()
        except ConfigurationError:  # AVG dependents have no defined bound
            self._last_bound = None
        if self._obs.enabled:
            fields = {f"shard_{i}_records": float(counts[i]) for i in counts}
            self._obs.emit(
                "parallel.merge",
                shards=float(self._shards),
                records=float(sum(counts.values())),
                **fields,
            )
            self._obs.emit(
                "parallel.transport",
                chunks=float(self._chunks),
                bytes=float(self._bytes),
            )
        return merged

    def query(self) -> float:
        """The merged estimate over everything ingested so far."""
        return self.merged_estimator().estimate()

    def merge_error_bound(self) -> float | None:
        """The bound reported by the most recent merge (None before any)."""
        return self._last_bound

    # -------------------------------------------------------- observability

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def ingested(self) -> int:
        """Records accepted by :meth:`ingest` so far."""
        return self._ingested

    def obs_state(self) -> dict[str, float]:
        """Per-shard gauges for the instrumentation layer."""
        state = {
            "shards": float(self._shards),
            "pending": float(sum(map(len, self._buffers)) + len(self._prime_buffer)),
            "ingested": float(self._ingested),
        }
        for shard, sent in enumerate(self._sent):
            state[f"shard.{shard}.records"] = float(sent)
        state["transport.chunks"] = float(self._chunks)
        state["transport.bytes"] = float(self._bytes)
        return state
