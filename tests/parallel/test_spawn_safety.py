"""Spawn-safety: configured estimators, registries and tracers must pickle.

Satellite requirement: the observability plumbing (MetricsRegistry,
Tracer, sinks) and the estimator factories must be safe under both the
``fork`` and ``spawn`` start methods.  Spawn is the strict test — the
child re-imports everything and receives its state by pickle, so
anything holding a lock, socket or thread must shed it in
``__getstate__``.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import RecordingSink
from repro.obs.trace import Tracer
from repro.parallel import ShardedIngestor
from repro.streams.model import Record

QUERY = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)


def _records(n: int, seed: int = 7) -> list[Record]:
    rng = random.Random(seed)
    return [Record(x=rng.uniform(10.0, 90.0), y=1.0) for _ in range(n)]


def _configured_estimator():
    """An estimator with the full obs plumbing attached (the hard case)."""
    registry = MetricsRegistry()
    sink = RecordingSink(registry)
    tracer = Tracer(sink)
    return build_estimator(
        QUERY, "piecemeal-uniform", num_buckets=10, sink=sink, tracer=tracer
    )


class TestPickleRoundTrips:
    def test_configured_estimator_pickles_and_keeps_working(self):
        estimator = _configured_estimator()
        estimator.update_many(_records(500))
        clone = pickle.loads(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL))
        clone.update_many(_records(100, seed=11))
        assert math.isfinite(clone.estimate())

    def test_obs_plumbing_pickles(self):
        registry = MetricsRegistry()
        sink = RecordingSink(registry)
        tracer = Tracer(sink)
        sink.emit("probe", value=1.0)
        with tracer.span("probe.span"):
            pass
        for obj in (registry, sink, tracer):
            clone = pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            assert clone is not None

    def test_warm_estimator_mid_warmup_pickles(self):
        estimator = _configured_estimator()
        estimator.update_many(_records(3))  # still buffering
        clone = pickle.loads(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL))
        clone.update_many(_records(500, seed=5))
        assert math.isfinite(clone.estimate())


def _available(method: str) -> bool:
    return method in mp.get_all_start_methods()


class TestStartMethods:
    """The regression test proper: ship a configured estimator into workers."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sharded_ingestion_under_start_method(self, start_method):
        if not _available(start_method):
            pytest.skip(f"{start_method} unavailable on this platform")
        records = _records(600, seed=23)
        registry = MetricsRegistry()
        sink = RecordingSink(registry)
        tracer = Tracer(sink)
        with ShardedIngestor(
            QUERY,
            shards=2,
            chunk_size=64,
            start_method=start_method,
            sink=sink,
            tracer=tracer,
        ) as ingestor:
            ingestor.ingest(records)
            answer = ingestor.query()
        assert math.isfinite(answer)
        assert ingestor.merge_error_bound() is not None
        assert any(e.name == "parallel.merge" for e in sink.events)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_results_agree_across_start_methods(self, start_method):
        if not _available(start_method):
            pytest.skip(f"{start_method} unavailable on this platform")
        records = _records(400, seed=29)
        single = build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)
        single.update_many(records)
        with ShardedIngestor(
            QUERY, shards=2, chunk_size=50, start_method=start_method
        ) as ingestor:
            ingestor.ingest(records)
            merged = ingestor.merged_estimator()
        # Identical records, identical partitioning: the start method must
        # not change the answer at all.
        assert merged.extremum == single.extremum
        assert merged.estimate() == pytest.approx(single.estimate(), abs=1.0)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_normal_run_is_warning_clean_under_W_error(self, start_method):
        """A full run leaks no queue, pipe or process warnings."""
        if not _available(start_method):
            pytest.skip(f"{start_method} unavailable on this platform")
        script = textwrap.dedent(
            f"""
            import random
            from repro.core.query import CorrelatedQuery
            from repro.parallel import ShardedIngestor
            from repro.streams.model import Record
            rng = random.Random(7)
            records = [Record(x=rng.uniform(1.0, 9.0), y=1.0) for _ in range(800)]
            query = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
            with ShardedIngestor(
                query, shards=2, chunk_size=64, start_method={start_method!r}
            ) as ingestor:
                ingestor.ingest(records)
                ingestor.query()
            print("OK")
            """
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{existing}" if existing else src)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "Warning" not in result.stderr
