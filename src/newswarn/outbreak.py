"""Food-crisis outbreak definition, threshold classification, and Pareto sweeps.

An outbreak starts at a publication period whose phase reaches 3 or more,
stays there for the following period, and was at 2 or below the period
before. A fitted model's real-valued phase forecasts become a binary
classifier through a lower/upper threshold pair (l, u). Every series here is
one value per period of the publication grid, and an event's ``start`` is its
position on that grid.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_PAIR_BLOCK = 4096  # (l, u) cells per sweep_pareto block, bounding its pair x candidate masks


@dataclass(frozen=True)
class OutbreakEvent:
    district: str
    start: int  # position on the publication grid
    severity: float


@dataclass(frozen=True)
class ParetoPoint:
    l: float
    u: float
    precision: float
    recall: float


@dataclass(frozen=True)
class Score:
    matched: int
    n_predicted: int
    n_actual: int

    @property
    def precision(self) -> float | None:
        return None if self.n_predicted == 0 else self.matched / self.n_predicted

    @property
    def recall(self) -> float | None:
        return None if self.n_actual == 0 else self.matched / self.n_actual


def _start_table(values: np.ndarray):
    """(index, before, after) of each t on the last axis whose values[..., t-1..t+1] has no
    NaN: index is (leading axes' indices..., t) in row-major order, before = values[..., t-1]
    and after = min(values[..., t], values[..., t+1])."""
    before = values[..., :-2]
    after = np.minimum(values[..., 1:-1], values[..., 2:])  # NaN propagates
    ok = ~(np.isnan(before) | np.isnan(after))
    *rows, t = np.nonzero(ok)
    return (*rows, t + 1), before[ok], after[ok]


def detect_outbreaks(phases, district: str = "") -> list[OutbreakEvent]:
    """Outbreak starts in a phase series: ``classify(phases, 2, 3)``."""
    events = classify(phases, 2.0, 3.0, district)
    if np.size(phases) < 3:
        warnings.warn("phase series shorter than 3 periods; no outbreak detectable")
    return events


def classify(predictions, l: float, u: float, district: str = "") -> list[OutbreakEvent]:
    """Predicted outbreak starts: pred(t+1) >= u, pred(t) >= u, pred(t-1) <= l.

    Severity is the maximum over the run of consecutive periods at u or more.
    """
    values = np.asarray(predictions, dtype=float)
    (t,), before, after = _start_table(values)
    events = []
    for start in t[(before <= l) & (after >= u)]:
        run_end = start + 1
        while run_end + 1 < values.size and values[run_end + 1] >= u:  # False on NaN
            run_end += 1
        severity = float(np.max(values[start : run_end + 1]))
        events.append(OutbreakEvent(district=district, start=int(start), severity=severity))
    return events


def _greedy_match(fired, candidates, actual, window: int) -> np.ndarray:
    """Earliest-first one-to-one matching, for every row of ``fired`` at once.

    ``candidates`` is a sorted list of (district, start), and ``fired`` (rows x candidates)
    says which ones each row predicts. Each of the sorted actual (district, start) in turn
    takes the earliest fired candidate of its district still free and at most ``window``
    positions away. Returns (rows x actual) candidate indices, -1 where one is unmatched.
    """
    free = fired.copy()  # fired and not yet matched
    matched = np.full((fired.shape[0], len(actual)), -1)
    for k, (d, a) in enumerate(actual):
        lo = bisect_left(candidates, (d, a - window))
        hi = bisect_right(candidates, (d, a + window))
        if lo < hi:
            rows = np.flatnonzero(free[:, lo:hi].any(axis=1))
            pick = lo + free[rows, lo:hi].argmax(axis=1)
            matched[rows, k] = pick
            free[rows, pick] = False
    return matched


def match_events(predicted, actual, window: int = 0):
    """One-to-one earliest-first pairs of (district, predicted start, actual start).

    Events match when they share a district and their starts lie at most
    ``window`` publication periods apart (0 = exact).
    """
    candidates = sorted((e.district, e.start) for e in predicted)
    actual = sorted((e.district, e.start) for e in actual)
    hit = _greedy_match(np.ones((1, len(candidates)), dtype=bool), candidates, actual, window)
    return [(d, candidates[i][1], a) for (d, a), i in zip(actual, hit[0].tolist()) if i >= 0]


def score(predicted, actual, window: int = 0) -> Score:
    """Precision/recall of predicted against actual outbreak starts.

    With no predicted events precision is undefined and reported as None.
    """
    predicted = list(predicted)
    actual = list(actual)
    pairs = match_events(predicted, actual, window)
    return Score(matched=len(pairs), n_predicted=len(predicted), n_actual=len(actual))


def threshold_grid(lo: float = 1.0, hi: float = 5.0, step: float = 0.1):
    """Exact threshold ladder from lo at the given step (tenths by default).

    It ends at the last rung at or below hi, allowing 1e-9 of a step for float
    error in ``(hi - lo) / step``.
    """
    n = math.floor((hi - lo) / step + 1e-9)
    return [round(lo + k * step, 10) for k in range(n + 1)]


def sweep_pareto(predictions_by_district, actual_events, grid=None,
                 window: int = 0) -> list[ParetoPoint]:
    """Pareto front of (precision, recall) over the (l, u) threshold grid.

    ``predictions_by_district`` maps district -> values, all of one length, and
    ``grid`` lists the threshold levels (``threshold_grid()`` by default). Only
    pairs with l < u describe a rise out of the pre-crisis band and are swept.
    Grid points predicting no events carry undefined precision and never
    reach the front. Among classifiers with identical scores the
    lexicographically smallest (l, u) survives; the front is sorted by recall.
    """
    levels = list(grid if grid is not None else threshold_grid())
    names = sorted(predictions_by_district)
    table = np.array([predictions_by_district[d] for d in names], dtype=float, ndmin=2)
    (row, t), before, after = _start_table(table)
    candidates = [(names[i], s) for i, s in zip(row.tolist(), t.tolist())]
    actual = sorted((e.district, e.start) for e in actual_events)
    # Every (l, u) with l < u, in (l, u) order, _PAIR_BLOCK cells of the levels' square at a time.
    lv, n = np.array(levels, dtype=float), len(levels)
    points = []
    for p0 in range(0, n * n, _PAIR_BLOCK):
        li, ui = np.divmod(np.arange(p0, min(p0 + _PAIR_BLOCK, n * n)), n)
        keep = lv[li] < lv[ui]
        li, ui = li[keep], ui[keep]
        fired = (before <= lv[li, None]) & (after >= lv[ui, None])
        matched = (_greedy_match(fired, candidates, actual, window) >= 0).sum(axis=1)
        for a, b, m, k in zip(li.tolist(), ui.tolist(), matched.tolist(),
                              fired.sum(axis=1).tolist()):
            if k and actual:
                points.append(ParetoPoint(l=levels[a], u=levels[b], precision=m / k,
                                          recall=m / len(actual)))
    return pareto_filter(points)


def pareto_filter(points) -> list[ParetoPoint]:
    """Non-dominated subset, sorted by recall, via a recall-ordered sweep.

    Of points with equal (precision, recall), the smallest (l, u) sorts first
    and is the only one kept.
    """
    front: list[ParetoPoint] = []
    for p in sorted(points, key=lambda p: (-p.recall, -p.precision, p.l, p.u)):
        if not front or p.precision > front[-1].precision:
            front.append(p)
    return front[::-1]


def recall_at_precision(front, target: float = 0.80) -> tuple[float, float, float]:
    """(l, u, recall) of the front point maximizing recall at precision >= target."""
    if not front:
        raise DataError("empty Pareto front")
    eligible = [p for p in front if p.precision >= target]
    if not eligible:
        best = max(p.precision for p in front)
        raise DataError(
            f"no classifier reaches precision {target:.2f}; best achievable {best:.4f}"
        )
    pick = max(eligible, key=lambda p: (p.recall, p.precision, -p.u, -p.l))
    return pick.l, pick.u, pick.recall


def expert_baseline(projections_by_district, actual_events, window: int = 0) -> Score:
    """Score expert phase projections (district -> values) under the outbreak rule."""
    predicted = []
    for district, values in sorted(projections_by_district.items()):
        predicted.extend(detect_outbreaks(values, district))
    return score(predicted, actual_events, window)

