"""The paper's sliding-window extrema tracker (Section 4.1.1).

    "We partition the sliding window into fixed-length intervals and keep
    track of the local extrema within each interval.  When an outgoing
    (global) extrema value departs from the sliding window, we update the
    extrema using the remaining local extrema."

The tracker keeps one scalar per interval (``num_intervals`` of them), so its
state is O(k) regardless of the window size ``w``.  The estimate is
approximate at interval granularity: an expired global extremum is only
noticed when its whole interval rotates out.

Besides the estimated global extremum, the tracker exposes the quantity the
sliding-window extrema histogram needs for its focus region (Section 4.1.2):
``maxmin`` — the max of the local minima (symmetrically ``minmax`` when
tracking maxima).  The region ``[min, (1+eps) * maxmin]`` is deliberately
wider than the landmark region ``[min, (1+eps) * min]`` because the minimum
can *rise* when old tuples expire; ``maxmin`` bounds how far it can rise
before the tracker notices.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import ConfigurationError, StreamError


class IntervalExtremaTracker:
    """Approximate sliding-window MIN or MAX with O(num_intervals) state.

    Parameters
    ----------
    window:
        Size ``w`` of the sliding window, in tuples.
    num_intervals:
        Number of fixed-length intervals the window is partitioned into
        (at most ``window``).  The interval length is
        ``ceil(window / num_intervals)``, so when ``window`` is not a
        multiple the covered span is slightly longer than the window.
    mode:
        ``'min'`` or ``'max'``.

    :meth:`extremum` and :meth:`worst_local` answer in O(1): the best and
    the worst of the completed intervals are folded once, when an interval
    completes, and each answer compares them with the open interval.  The
    cached folds stay out of the pickled state and are recomputed on load.
    """

    #: Cached folds over ``_locals``; recomputed, never pickled.
    _FOLDS = ("_settled_best", "_settled_worst")

    def __init__(self, window: int, num_intervals: int = 10, mode: str = "min") -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if num_intervals <= 0:
            raise ConfigurationError(f"num_intervals must be positive, got {num_intervals}")
        if num_intervals > window:
            raise ConfigurationError(
                f"num_intervals ({num_intervals}) cannot exceed window ({window})"
            )
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self._window = window
        self._mode = mode
        self._interval_length = -(-window // num_intervals)  # ceil division
        self._max_intervals = num_intervals
        # Completed intervals' local extrema, oldest first.
        self._locals: deque[float] = deque()
        self._current: float | None = None
        self._current_count = 0
        self._total_seen = 0
        self._settled_best: float | None = None
        self._settled_worst: float | None = None

    @property
    def window(self) -> int:
        return self._window

    @property
    def interval_length(self) -> int:
        return self._interval_length

    @property
    def mode(self) -> str:
        return self._mode

    def push(self, value: float) -> None:
        """Observe the next stream value."""
        self._total_seen += 1
        current = self._current
        if current is None:
            self._current = value
        elif self._mode == "min":
            if value < current:  # min(current, value), first minimum kept
                self._current = value
        elif value > current:  # max(current, value), first maximum kept
            self._current = value
        self._current_count += 1
        if self._current_count == self._interval_length:
            self._locals.append(self._current)
            self._current = None
            self._current_count = 0
            # Retain only intervals that can still intersect the window: the
            # current (partial) interval plus num_intervals completed ones.
            while len(self._locals) > self._max_intervals:
                self._locals.popleft()
            self._refresh_folds()

    def _refresh_folds(self) -> None:
        """Fold the completed intervals: builtin ``min``/``max`` keep the
        first extreme element, exactly as a left fold of pairwise
        ``min``/``max`` does (so ``0.0`` vs ``-0.0`` ties come out alike)."""
        if not self._locals:
            self._settled_best = self._settled_worst = None
        elif self._mode == "min":
            self._settled_best = min(self._locals)
            self._settled_worst = max(self._locals)
        else:
            self._settled_best = max(self._locals)
            self._settled_worst = min(self._locals)

    def _install(
        self, locals_: list[float], current: float | None, current_count: int, total_seen: int
    ) -> None:
        """Set the whole interval state at once (batch kernels replay pushes
        outside the tracker and install the result here)."""
        self._locals = deque(locals_)
        self._current = current
        self._current_count = current_count
        self._total_seen = total_seen
        self._refresh_folds()

    def extremum(self) -> float:
        """Estimated window extremum: best over the retained local extrema."""
        best = self._settled_best
        current = self._current
        if best is None:
            if current is None:
                raise StreamError("extremum() before any value was pushed")
            return current
        if current is None:
            return best
        return min(best, current) if self._mode == "min" else max(best, current)

    def worst_local(self) -> float:
        """``maxmin`` for MIN mode (``minmax`` for MAX mode).

        The worst of the retained local extrema — an upper bound (for MIN) on
        where the window extremum can move as intervals expire, used to size
        the histogram focus region in the sliding-window algorithms.
        """
        worst = self._settled_worst
        current = self._current
        if worst is None:
            if current is None:
                raise StreamError("worst_local() before any value was pushed")
            return current
        if current is None:
            return worst
        return max(worst, current) if self._mode == "min" else min(worst, current)

    def __getstate__(self) -> dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k not in self._FOLDS}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._refresh_folds()

    def __len__(self) -> int:
        """Number of retained local extrema (completed + current partial)."""
        return len(self._locals) + (1 if self._current is not None else 0)
