"""Heavy-hitter-gated keyed bank: million-key multi-tenancy.

:class:`~repro.core.keyed.KeyedEstimatorBank` allocates a full focused
estimator per key — the right shape up to thousands of keys, untenable at
the millions-of-users scale the motivating applications (per-customer
fraud screening, per-interface monitoring) actually run at.  Following
the correlated-heavy-hitter compositions of Lahiri/Mukherjee/Tirthapura
(arXiv:1310.1161) and Epicoco/Cafaro/Pulimeno (arXiv:1611.04942), a
:class:`GatedKeyedBank` puts a Space-Saving admission sketch in front of
the estimator bank:

* every record first hits the :class:`~repro.keyed.admission.
  SpaceSavingAdmission` counters (bounded: ``sketch_capacity`` slots);
* a key whose *guaranteed* hits (the sketch's under-count) cross
  ``promote_threshold`` is **promoted**: a full estimator is built and
  the sketch-held replay buffer is fed through it — exactly (the promoted
  estimator is float-for-float the standalone one) when the sketch never
  charged the key an inherited error, with an explicit ``missed`` bound
  otherwise;
* promoted estimators are charged against an optional ``memory_budget``
  (bytes, measured by pickled size); when promotion would overrun it,
  the coldest promoted keys (least-recently updated) are **demoted**
  back into the sketch with their exactly-known lifetime counters;
* :meth:`estimate` and :meth:`top` answer for *every* key — a point value
  for promoted keys, and for tail keys a conservative point estimate
  with an explicit ``[low, high]`` interval derived from the sketch's
  over/under-count guarantees (see :meth:`estimate_interval`).

Lifecycle transitions emit ``keyed.promote`` / ``keyed.demote`` /
``keyed.evict`` events through the standard obs sink, and the whole bank
pickles, so it checkpoints through :class:`repro.checkpoint.
CheckpointManager` like any estimator.
"""

from __future__ import annotations

import math
import pickle
from collections import deque
from collections.abc import Hashable, Iterator
from dataclasses import dataclass
from itertools import chain

from repro.core.engine import build_estimator
from repro.core.keyed import check_online_method, key_gauge_names, rank_estimates
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.keyed.admission import SpaceSavingAdmission, Slot
from repro.obs.sink import NULL_SINK, ObsSink
from repro.streams.model import Record, StreamAlgorithm

#: Updates between byte-accounting refresh passes.
_ACCOUNTING_EVERY = 4096
#: Promoted estimators re-measured per refresh pass.
_REFRESH_BATCH = 32


@dataclass(frozen=True)
class KeyEstimate:
    """One key's answer with its explicit uncertainty interval.

    ``kind`` is ``"promoted"`` (own estimator; ``low == high == value``
    when the promotion replayed the key's full history), ``"sketch"``
    (monitored tail key) or ``"tail"`` (not individually tracked at all —
    bounded by the sketch's global forgotten ceiling).  Intervals box the
    uncertainty the *admission layer* introduces; the focused estimator's
    own histogram approximation is not re-counted here (a promoted key's
    interval is exactly as tight as a standalone estimator's answer).
    """

    value: float
    low: float
    high: float
    kind: str
    #: Upper bound on records of this key the answer never saw.
    missed: int = 0

    @property
    def exact_history(self) -> bool:
        """True when every record of this key reached the estimator."""
        return self.kind == "promoted" and self.missed == 0


@dataclass
class _Promoted:
    """Bank-side bookkeeping for one promoted key."""

    estimator: StreamAlgorithm
    #: Records this estimator has actually consumed (replayed + routed).
    hits: int
    #: Sum of ``|y|`` over those records.
    mass: float
    #: Upper bound on pre-promotion records the estimator never saw.
    missed: int
    #: Bank sequence number of the last routed record (LRU demotion key).
    last_seq: int
    #: Pickled size at last measurement (byte accounting).
    nbytes: int


class GatedKeyedBank:
    """Admission-gated per-key estimators with a sketch-bounded tail.

    Parameters
    ----------
    query:
        The correlated aggregate every key computes.
    method:
        An online method name (same contract as
        :class:`~repro.core.keyed.KeyedEstimatorBank`).
    num_buckets:
        Bucket budget per promoted key.
    sketch_capacity:
        Monitored slots in the admission sketch; memory is
        ``O(sketch_capacity * replay_buffer)`` records plus the promoted
        estimators.
    promote_threshold:
        Guaranteed (under-count) hits a key needs before it is promoted
        to a full estimator.
    replay_buffer:
        Records buffered per monitored key for promotion replay; defaults
        to ``promote_threshold`` (enough for an exact replay of every
        error-free promotion).
    memory_budget:
        Optional cap in bytes on the pickled size of all promoted
        estimators; crossing it demotes the least-recently-updated keys.
        Must fit at least one estimator — a promotion that cannot fit
        even after demoting everything else is deferred, not crashed.
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving
        ``keyed.promote`` / ``keyed.demote`` / ``keyed.evict`` events.
    obs_key_detail:
        Top-K keys whose per-key gauges appear in :meth:`obs_state`
        (0 = aggregates only).
    kwargs:
        Extra estimator configuration, validated eagerly at construction
        (a typo raises here, not mid-stream at first promotion).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        method: str = "piecemeal-uniform",
        num_buckets: int = 10,
        sketch_capacity: int = 1024,
        promote_threshold: int = 32,
        replay_buffer: int | None = None,
        memory_budget: int | None = None,
        sink: ObsSink | None = None,
        obs_key_detail: int = 0,
        **kwargs: object,
    ) -> None:
        check_online_method(method, kwargs)
        if promote_threshold <= 0:
            raise ConfigurationError(
                f"promote_threshold must be positive, got {promote_threshold}"
            )
        if memory_budget is not None and memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        if obs_key_detail < 0:
            raise ConfigurationError(
                f"obs_key_detail must be >= 0, got {obs_key_detail}"
            )
        if replay_buffer is None:
            replay_buffer = promote_threshold
        self._query = query
        self._method = method
        self._num_buckets = num_buckets
        self._promote_threshold = promote_threshold
        self._memory_budget = memory_budget
        self._obs = sink if sink is not None else NULL_SINK
        self._obs_key_detail = obs_key_detail
        self._kwargs = kwargs
        # Eager validation: building one estimator surfaces unknown-option
        # ConfigurationErrors (with the engine's did-you-mean hints) at
        # construction; its size seeds the byte accounting.
        probe = self._build()
        self._estimator_bytes_hint = len(
            pickle.dumps(probe, pickle.HIGHEST_PROTOCOL)
        )
        self._admission = SpaceSavingAdmission(
            sketch_capacity, buffer_limit=replay_buffer
        )
        self._promoted: dict[Hashable, _Promoted] = {}
        self._promoted_bytes = 0
        self._refresh_queue: deque[Hashable] = deque()
        self._seq = 0
        self._y_min = math.inf
        self._y_max = -math.inf
        self._promotions = 0
        self._demotions = 0
        self._evictions = 0
        self._deferred_promotions = 0

    # ----------------------------------------------------------- inventory

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    @property
    def memory_budget(self) -> int | None:
        return self._memory_budget

    @property
    def promoted_bytes(self) -> int:
        """Pickled size of all promoted estimators at last measurement."""
        return self._promoted_bytes

    def __len__(self) -> int:
        """Individually tracked keys (promoted + monitored)."""
        return len(self._promoted) + len(self._admission)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._promoted or key in self._admission

    def keys(self) -> Iterator[Hashable]:
        """Tracked keys: promoted first, then monitored tail."""
        yield from self._promoted
        yield from self._admission.keys()

    def promoted_keys(self) -> list[Hashable]:
        """Keys currently backed by a full estimator."""
        return list(self._promoted)

    def is_promoted(self, key: Hashable) -> bool:
        """True when ``key`` is currently backed by a full estimator."""
        return key in self._promoted

    # ------------------------------------------------------------- updates

    def _build(self) -> StreamAlgorithm:
        return build_estimator(
            self._query, self._method, num_buckets=self._num_buckets, **self._kwargs
        )

    def update(self, key: Hashable, record: Record) -> float:
        """Route one record; returns the key's new (point) estimate.

        A NaN or infinite record raises :class:`StreamError` before any
        counter, the y range or the sketch moves.
        """
        if not isinstance(record, Record):
            record = Record(*record)
        if not (math.isfinite(record.x) and math.isfinite(record.y)):
            raise StreamError(f"non-finite record {record!r} for key {key!r}")
        self._seq += 1
        if record.y < self._y_min:
            self._y_min = record.y
        if record.y > self._y_max:
            self._y_max = record.y
        entry = self._promoted.get(key)
        if entry is not None:
            entry.hits += 1
            entry.mass += abs(record.y)
            entry.last_seq = self._seq
            value = entry.estimator.update(record)
            if self._seq % _ACCOUNTING_EVERY == 0:
                self._refresh_accounting()
            return value
        slot = self._admission.update(key, record)
        due = slot.promote_at if slot.promote_at else self._promote_threshold
        if slot.observed >= due:
            promoted = self._promote(key, slot)
            if promoted is not None:
                return promoted.estimator.estimate()  # type: ignore[attr-defined]
        if self._seq % _ACCOUNTING_EVERY == 0:
            self._refresh_accounting()
        return self._tail_point(slot)

    # ------------------------------------------------- promotion/demotion

    def _promote(self, key: Hashable, slot: Slot) -> _Promoted | None:
        """Build a full estimator for ``key``, replaying its buffer.

        Returns ``None`` (and defers) when the memory budget cannot fit
        the new estimator even after demoting every colder key.
        """
        estimator = self._build()
        if slot.buffer:
            estimator.update_many(slot.buffer, collect="none")
        replayed = len(slot.buffer)
        missed = slot.count - replayed
        nbytes = len(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL))
        if self._memory_budget is not None:
            while (
                self._promoted_bytes + nbytes > self._memory_budget
                and self._promoted
            ):
                self._demote_coldest()
            if self._promoted_bytes + nbytes > self._memory_budget:
                # Even an empty bank cannot fit it: defer, try again after
                # another threshold's worth of guaranteed hits.
                slot.promote_at = slot.observed + self._promote_threshold
                self._deferred_promotions += 1
                return None
        self._admission.remove(key)
        mass = math.fsum(abs(r.y) for r in slot.buffer)
        entry = _Promoted(
            estimator=estimator,
            hits=replayed,
            mass=mass,
            missed=missed,
            last_seq=self._seq,
            nbytes=nbytes,
        )
        self._promoted[key] = entry
        self._promoted_bytes += nbytes
        self._refresh_queue.append(key)
        self._promotions += 1
        if self._obs.enabled:
            self._obs.emit(
                "keyed.promote",
                key=str(key),
                replayed=float(replayed),
                missed=float(missed),
                exact=float(missed == 0),
                bytes=float(nbytes),
            )
        return entry

    def _demote_coldest(self) -> None:
        """Demote the least-recently-updated promoted key into the sketch."""
        key = min(self._promoted, key=lambda k: self._promoted[k].last_seq)
        self._demote(key)

    def _demote(self, key: Hashable) -> None:
        entry = self._promoted.pop(key)
        self._promoted_bytes -= entry.nbytes
        self._admission.reinsert(
            key,
            hits=entry.hits,
            mass=entry.mass,
            missed=entry.missed,
            promote_at=entry.hits + self._promote_threshold,
        )
        self._demotions += 1
        if self._obs.enabled:
            self._obs.emit(
                "keyed.demote",
                key=str(key),
                updates=float(entry.hits),
                bytes=float(entry.nbytes),
            )

    def demote(self, key: Hashable) -> bool:
        """Demote one promoted key back into the sketch (manual override)."""
        if key not in self._promoted:
            return False
        self._demote(key)
        return True

    def evict(self, key: Hashable) -> bool:
        """Forget ``key`` entirely; returns False if it was not tracked.

        The key's count upper bound is folded into the sketch's forgotten
        ceiling so tail intervals stay sound if it reappears, and a
        ``keyed.evict`` event records the dropped state.
        """
        entry = self._promoted.pop(key, None)
        if entry is not None:
            self._promoted_bytes -= entry.nbytes
            self._admission.raise_ceiling(entry.hits + entry.missed)
            updates = entry.hits
        else:
            slot = self._admission.remove(key, forget=True)
            if slot is None:
                return False
            updates = slot.observed
        self._evictions += 1
        if self._obs.enabled:
            self._obs.emit("keyed.evict", key=str(key), updates=float(updates))
        return True

    def _refresh_accounting(self) -> None:
        """Re-measure a rotating batch of promoted estimators.

        Focused estimators have (near-)bounded state, but warmup buffers
        and GK summaries do grow; the rotation keeps ``promoted_bytes``
        honest without pickling the whole bank on any single update.
        Growth discovered here re-applies the budget.
        """
        queue = self._refresh_queue
        for _ in range(min(_REFRESH_BATCH, len(queue))):
            key = queue.popleft()
            entry = self._promoted.get(key)
            if entry is None:  # demoted/evicted since queued
                continue
            nbytes = len(pickle.dumps(entry.estimator, pickle.HIGHEST_PROTOCOL))
            self._promoted_bytes += nbytes - entry.nbytes
            entry.nbytes = nbytes
            queue.append(key)
        if self._memory_budget is not None:
            while self._promoted_bytes > self._memory_budget and len(self._promoted) > 1:
                self._demote_coldest()

    # ------------------------------------------------------------- answers

    def _y_range(self) -> tuple[float, float]:
        low = min(self._y_min, 0.0) if math.isfinite(self._y_min) else 0.0
        high = max(self._y_max, 0.0) if math.isfinite(self._y_max) else 0.0
        return low, high

    def _tail_point(self, slot: Slot | None) -> float:
        """Conservative point estimate for a sketch/tail key.

        Space-Saving convention: answer the upper end of the key's
        interval (the slot's raw over-count), computed straight from the
        counters so :meth:`update` and :meth:`top` allocate nothing per
        key.  ``slot is None`` gives the forgotten-ceiling form.
        """
        dependent = self._query.dependent
        if dependent == "count":
            return float(slot.count if slot is not None else self._admission.ceiling)
        if dependent == "sum":
            if slot is not None:
                return slot.mass + slot.mass_error
            return self._admission.ceiling * self._admission.max_abs_y
        # avg of a qualifying subset lies within the global y range
        return self._y_range()[1]

    def _tail_estimate(self, slot: Slot | None) -> KeyEstimate:
        high = self._tail_point(slot)
        dependent = self._query.dependent
        if dependent == "count":
            low = 0.0
        elif dependent == "sum":
            low = -high if self._y_range()[0] < 0.0 else 0.0
        else:
            low = self._y_range()[0]
        if slot is not None:
            return KeyEstimate(high, low, high, "sketch", missed=slot.error)
        return KeyEstimate(high, low, high, "tail", missed=self._admission.ceiling)

    def estimate(self, key: Hashable) -> float:
        """Point estimate for *any* key (promoted, monitored, or tail)."""
        return self.estimate_interval(key).value

    def estimate_interval(self, key: Hashable) -> KeyEstimate:
        """Answer with an explicit error interval for *any* key.

        Promoted keys answer their estimator's value; with an exact
        replay history the interval collapses to a point.  A promoted key
        whose replay was bounded (``missed > 0``) widens to the same
        sketch-derived box a tail key gets — the unseen records could
        have shifted the focus region arbitrarily, so only the counting
        bounds are defensible.  Monitored tail keys answer the sketch's
        over-count with ``[low, high]`` from its guarantees; untracked
        keys are bounded by the forgotten ceiling (exactly ``[0, 0]``
        while the sketch never displaced anything).
        """
        entry = self._promoted.get(key)
        if entry is not None:
            value = entry.estimator.estimate()  # type: ignore[attr-defined]
            if entry.missed == 0:
                return KeyEstimate(value, value, value, "promoted", missed=0)
            total_hits = entry.hits + entry.missed
            dependent = self._query.dependent
            if dependent == "count":
                low, high = 0.0, float(total_hits)
            elif dependent == "sum":
                mass_high = entry.mass + entry.missed * self._admission.max_abs_y
                y_low, _ = self._y_range()
                low = -mass_high if y_low < 0.0 else 0.0
                high = mass_high
            else:
                low, high = self._y_range()
            return KeyEstimate(value, low, high, "promoted", missed=entry.missed)
        return self._tail_estimate(self._admission.slot(key))

    def _points(self) -> Iterator[tuple[Hashable, float]]:
        """``(key, point estimate)`` for every tracked key, promoted first."""
        tail_point = self._tail_point
        return chain(
            (
                (key, entry.estimator.estimate())  # type: ignore[attr-defined]
                for key, entry in self._promoted.items()
            ),
            ((key, tail_point(slot)) for key, slot in self._admission.slots()),
        )

    def estimates(self) -> dict[Hashable, float]:
        """Point estimates for every individually tracked key."""
        return dict(self._points())

    def top(self, n: int = 10) -> list[tuple[Hashable, float]]:
        """The ``n`` tracked keys with the largest (point) estimates.

        Promoted keys rank by their estimator's answer, tail keys by the
        sketch's conservative upper bound — so a heavy key that has not
        crossed the promotion threshold yet still surfaces.  The head is
        heap-selected straight from the counters: O(tracked · log n),
        with no per-key dict or :class:`KeyEstimate`.  NaN-safe and
        deterministic like :meth:`KeyedEstimatorBank.top`.
        """
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        return rank_estimates(self._points(), n)

    # ------------------------------------------------------ observability

    def obs_state(self) -> dict[str, float]:
        """Aggregate gauges; per-key detail is opt-in and capped at top-K."""
        gauges: dict[str, float] = {
            "keys": float(len(self)),
            "promoted": float(len(self._promoted)),
            "promoted_bytes": float(self._promoted_bytes),
            "promotions": float(self._promotions),
            "demotions": float(self._demotions),
            "evictions": float(self._evictions),
            "deferred_promotions": float(self._deferred_promotions),
            "updates": float(self._seq),
            "estimator_bytes_hint": float(self._estimator_bytes_hint),
        }
        if self._memory_budget is not None:
            gauges["memory_budget"] = float(self._memory_budget)
        for name, value in self._admission.obs_state().items():
            gauges[f"sketch.{name}"] = value
        if self._obs_key_detail:
            names = key_gauge_names(self.keys())
            for key, value in self.top(self._obs_key_detail):
                answer = self.estimate_interval(key)
                prefix = f"key.{names[key]}"
                gauges[f"{prefix}.estimate"] = value
                gauges[f"{prefix}.low"] = answer.low
                gauges[f"{prefix}.high"] = answer.high
                gauges[f"{prefix}.promoted"] = float(answer.kind == "promoted")
        return gauges
