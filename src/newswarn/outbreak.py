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
from dataclasses import dataclass

import numpy as np

from .errors import DataError


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
    """(t, before, after): every t whose window values[t-1..t+1] has no NaN,
    with before = values[t-1] and after = min(values[t], values[t+1])."""
    before = values[:-2]
    after = np.minimum(values[1:-1], values[2:])  # NaN propagates
    ok = ~(np.isnan(before) | np.isnan(after))
    return np.flatnonzero(ok) + 1, before[ok], after[ok]


def _fires(before, after, l: float, u: float) -> np.ndarray:
    """Positions in a start table where an event starts under thresholds (l, u)."""
    return np.flatnonzero((before <= l) & (after >= u))


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
    t, before, after = _start_table(values)
    events = []
    for start in t[_fires(before, after, l, u)]:
        run_end = start + 1
        while run_end + 1 < values.size and values[run_end + 1] >= u:  # False on NaN
            run_end += 1
        severity = float(np.max(values[start : run_end + 1]))
        events.append(OutbreakEvent(district=district, start=int(start), severity=severity))
    return events


def match_events(predicted, actual, window: int = 0):
    """One-to-one earliest-first pairs of (district, predicted start, actual start).

    Events match when they share a district and their starts lie at most
    ``window`` publication periods apart (0 = exact).
    """
    by_district_pred: dict[str, list[int]] = {}
    by_district_act: dict[str, list[int]] = {}
    for e in predicted:
        by_district_pred.setdefault(e.district, []).append(e.start)
    for e in actual:
        by_district_act.setdefault(e.district, []).append(e.start)
    pairs = []
    for district in sorted(by_district_act):
        preds = sorted(by_district_pred.get(district, []))
        taken = [False] * len(preds)
        for a in sorted(by_district_act[district]):
            for i, p in enumerate(preds):
                if not taken[i] and abs(p - a) <= window:
                    taken[i] = True
                    pairs.append((district, p, a))
                    break
    return pairs


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

    ``predictions_by_district`` maps district -> values, and ``grid`` lists
    the threshold levels (``threshold_grid()`` by default). Only
    pairs with l < u describe a rise out of the pre-crisis band and are swept.
    Grid points predicting no events carry undefined precision and never
    reach the front. Among classifiers with identical scores the
    lexicographically smallest (l, u) survives; the front is sorted by recall.
    """
    levels = grid if grid is not None else threshold_grid()
    # Every district's candidate starts, once; severity is not scored, so it stays NaN.
    candidates, before, after = [], [], []
    for district, values in sorted(predictions_by_district.items()):
        t, b, a = _start_table(np.asarray(values, dtype=float))
        candidates.extend(OutbreakEvent(district, int(i), math.nan) for i in t)
        before.extend(b)
        after.extend(a)
    before, after = np.array(before), np.array(after)
    points = []
    for l in levels:
        for u in levels:
            if l >= u:
                continue
            predicted = [candidates[i] for i in _fires(before, after, l, u)]
            s = score(predicted, actual_events, window)
            if s.precision is None or s.recall is None:
                continue
            points.append(ParetoPoint(l=l, u=u, precision=s.precision, recall=s.recall))
    return pareto_filter(points)


def pareto_filter(points) -> list[ParetoPoint]:
    """Non-dominated subset via a recall-ordered sweep."""
    dedup: dict[tuple[float, float], ParetoPoint] = {}
    for p in points:
        key = (p.precision, p.recall)
        prior = dedup.get(key)
        if prior is None or (p.l, p.u) < (prior.l, prior.u):
            dedup[key] = p
    ordered = sorted(dedup.values(), key=lambda p: (-p.recall, -p.precision, p.l, p.u))
    front = []
    best_precision = -np.inf
    for p in ordered:
        if p.precision > best_precision:
            front.append(p)
            best_precision = p.precision
    return sorted(front, key=lambda p: p.recall)


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
        arr = np.asarray(values, dtype=float)
        if np.all(np.isnan(arr)):
            continue
        predicted.extend(detect_outbreaks(arr, district))
    return score(predicted, actual_events, window)

