"""Stream partitioning policies for sharded ingestion.

A partitioner assigns each record to one of ``shards`` workers.  The
choice trades coordinator cost against shard balance and locality:

* ``round-robin`` — stripe fixed-size chunks cyclically.  Near-zero
  coordinator cost and perfect count balance; every shard sees the full
  value range, so per-shard summaries overlap heavily and merge slack is
  highest.  The default.
* ``hash`` — ``hash(record.x)`` modulo shards.  Deterministic routing of
  equal values to the same shard (the correlated-heavy-hitter papers'
  layout); balanced for high-cardinality streams, degenerate when a few
  values dominate.
* ``range`` — contiguous value ranges per shard, with split points primed
  from the first sampled chunk's quantiles.  Shards own disjoint value
  ranges, so merged histograms barely overlap and merge slack is lowest —
  but count balance depends on how well the first sample predicts the
  distribution.

Each partitioner routes a whole batch at once with ``split``, which takes
the batch as ``(xs, ys)`` float64 columns and yields each shard's share
as column slices in arrival order.  ``assign`` is the same routing for
one record; ``split`` sends every record to the shard ``assign`` would.

Unknown policy names raise :class:`~repro.exceptions.ConfigurationError`
with a did-you-mean hint, same as every other option in the library.
"""

from __future__ import annotations

import difflib
from bisect import bisect_left
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.streams.model import Record

__all__ = [
    "PARTITION_POLICIES",
    "make_partitioner",
    "RoundRobinPartitioner",
    "HashPartitioner",
    "RangePartitioner",
]

PARTITION_POLICIES = ("round-robin", "hash", "range")

#: One shard's share of a batch: ``(shard, xs, ys)``.
Part = tuple[int, np.ndarray, np.ndarray]


def make_partitioner(policy: str, shards: int):
    """Build the partitioner for ``policy``, validating the name."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if policy not in PARTITION_POLICIES:
        close = difflib.get_close_matches(str(policy), PARTITION_POLICIES, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigurationError(
            f"unknown partition policy {policy!r}{hint}; "
            f"valid policies: {', '.join(PARTITION_POLICIES)}"
        )
    if policy == "round-robin":
        return RoundRobinPartitioner(shards)
    if policy == "hash":
        return HashPartitioner(shards)
    return RangePartitioner(shards)


class RoundRobinPartitioner:
    """Cyclic assignment.  The ingestor stripes whole chunks, not records."""

    name = "round-robin"
    requires_prime = False

    def __init__(self, shards: int) -> None:
        self._shards = shards
        self._next = 0

    def assign(self, record: Record) -> int:
        """The next shard in the cycle (the record's value is ignored)."""
        shard = self._next
        self._next = (shard + 1) % self._shards
        return shard

    def next_chunk_shard(self) -> int:
        """Chunk-granular striping: one call per chunk, not per record."""
        return self.assign(None)  # type: ignore[arg-type]

    def split(self, xs: np.ndarray, ys: np.ndarray, chunk_size: int) -> Iterator[Part]:
        """Stripe the batch over the cycle in runs of at most ``chunk_size``.

        The run shrinks for small batches, so one batch still spreads over
        every shard.
        """
        size = min(chunk_size, max(1, -(-len(xs) // self._shards)))
        for lo in range(0, len(xs), size):
            yield self.next_chunk_shard(), xs[lo : lo + size], ys[lo : lo + size]


def _grouped(shard_ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, shards: int) -> Iterator[Part]:
    """Each non-empty shard's records; boolean masks keep arrival order."""
    for shard in range(shards):
        mask = shard_ids == shard
        if mask.any():
            yield shard, xs[mask], ys[mask]


class HashPartitioner:
    """Equal x values always land on the same shard."""

    name = "hash"
    requires_prime = False

    def __init__(self, shards: int) -> None:
        self._shards = shards

    def assign(self, record: Record) -> int:
        """``hash(x)`` modulo the shard count."""
        return hash(record.x) % self._shards

    def split(self, xs: np.ndarray, ys: np.ndarray) -> Iterator[Part]:
        """Group the batch by ``hash(x) % shards``."""
        hashes = np.fromiter(map(hash, xs.tolist()), dtype=np.int64, count=len(xs))
        return _grouped(hashes % self._shards, xs, ys, self._shards)


class RangePartitioner:
    """Contiguous value ranges, split points primed from a first sample."""

    name = "range"
    requires_prime = True

    def __init__(self, shards: int) -> None:
        self._shards = shards
        self._edges: list[float] | None = None

    @property
    def primed(self) -> bool:
        return self._edges is not None

    def prime(self, xs: list[float]) -> None:
        """Fix the split points at the sample's j/shards quantiles."""
        if self._edges is not None:
            return
        if not xs:
            self._edges = []
            return
        ordered = sorted(xs)
        n = len(ordered)
        self._edges = [
            ordered[min((j * n) // self._shards, n - 1)]
            for j in range(1, self._shards)
        ]

    def assign(self, record: Record) -> int:
        """The shard owning the value range ``record.x`` falls in."""
        if self._edges is None:
            raise ConfigurationError("RangePartitioner.assign before prime()")
        return bisect_left(self._edges, record.x)

    def split(self, xs: np.ndarray, ys: np.ndarray) -> Iterator[Part]:
        """Group the batch by value range (``searchsorted`` = ``bisect_left``)."""
        if self._edges is None:
            raise ConfigurationError("RangePartitioner.split before prime()")
        shard_ids = np.searchsorted(self._edges, xs, side="left")
        return _grouped(shard_ids, xs, ys, self._shards)
