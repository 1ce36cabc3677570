"""Shared helpers for the sharded-ingestion suites."""

from __future__ import annotations

import numpy as np


def poison_shard(ingestor, shard: int) -> None:
    """Make one worker fail on its next chunk.

    The coordinator refuses non-finite batches, so the NaN chunk goes
    straight onto the shard's queue, where the worker's estimator raises.
    """
    ingestor._send_columns(shard, np.array([np.nan]), np.array([1.0]))
