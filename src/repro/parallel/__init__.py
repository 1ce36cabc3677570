"""Sharded multi-process ingestion over mergeable summaries.

The paper's estimators decompose into naturally mergeable components
(Welford moments, GK sketches, bucket mass arrays), so a stream can be
partitioned across worker processes and the per-shard summaries combined
at query time.  This package provides:

* :class:`~repro.parallel.mergeable.MergeableSummary` — the protocol
  (``merge_from`` + ``merge_error_bound``) the summary layer implements;
* :mod:`~repro.parallel.partition` — round-robin / hash / range stream
  partitioning policies;
* :class:`~repro.parallel.sharded.ShardedIngestor` — the coordinator
  that pickles column chunks onto one queue per worker and merges the
  workers' summaries.

See docs/PARALLEL.md for merge semantics, exactness boundaries and the
wire format.
"""

from repro.parallel.mergeable import MergeableSummary, merge_all
from repro.parallel.partition import PARTITION_POLICIES, make_partitioner
from repro.parallel.sharded import ShardedIngestor

__all__ = [
    "MergeableSummary",
    "merge_all",
    "PARTITION_POLICIES",
    "make_partitioner",
    "ShardedIngestor",
]
