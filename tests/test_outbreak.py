import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newswarn import outbreak
from newswarn.errors import DataError
from newswarn.outbreak import (OutbreakEvent, ParetoPoint, classify, detect_outbreaks,
                               expert_baseline, match_events, pareto_filter,
                               recall_at_precision, score, sweep_pareto, threshold_grid)


def brute_force_front(points):
    """Oracle: all-pairs dominance filter plus lexicographic tie dedup."""
    dedup = {}
    for p in points:
        key = (p.precision, p.recall)
        if key not in dedup or (p.l, p.u) < (dedup[key].l, dedup[key].u):
            dedup[key] = p
    unique = list(dedup.values())

    def dominated(q):
        return any(
            o.precision >= q.precision and o.recall >= q.recall
            and (o.precision > q.precision or o.recall > q.recall)
            for o in unique
        )

    return sorted((q for q in unique if not dominated(q)), key=lambda q: q.recall)


class TestDetect:
    def test_basic_event(self):
        events = detect_outbreaks([2, 2, 3, 3, 2])
        assert [(e.start, e.severity) for e in events] == [(2, 3.0)]

    def test_no_dwell_no_event(self):
        assert detect_outbreaks([2, 3, 2, 3, 2]) == []

    def test_escalation_severity(self):
        events = detect_outbreaks([1, 2, 3, 4, 5])
        assert [(e.start, e.severity) for e in events] == [(2, 5.0)]

    def test_short_series_warns_empty(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert detect_outbreaks([3, 3]) == []
        assert caught

    def test_multiple_events_not_overlapping(self):
        phases = [2, 3, 3, 2, 2, 3, 4, 3, 1]
        events = detect_outbreaks(phases)
        assert [(e.start, e.severity) for e in events] == [(1, 3.0), (5, 4.0)]

    def test_nan_blocks_starts_and_ends_runs(self):
        nan = float("nan")
        events = detect_outbreaks([2, nan, 3, 3, 2, 3, 3])
        assert [(e.start, e.severity) for e in events] == [(5, 3.0)]
        events = detect_outbreaks([2, 3, 3, nan, 5])
        assert [(e.start, e.severity) for e in events] == [(1, 3.0)]


class TestClassify:
    def test_paper_style_thresholds(self):
        events = classify([2.0, 3.2, 3.3], l=2.2, u=3.1)
        assert [e.start for e in events] == [1]

    def test_pre_period_above_l_blocks(self):
        assert classify([2.5, 3.5, 3.5], l=2.2, u=3.1) == []

    def test_u_above_max_pred_blocks(self):
        assert classify([2.0, 3.2, 3.3], l=2.2, u=4.0) == []

    def test_nan_window_blocks(self):
        assert classify([np.nan, 3.5, 3.5], l=2.2, u=3.1) == []

    def test_monotone_in_u(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred = rng.uniform(1, 5, 12)
            l = rng.uniform(1, 5)
            u1, u2 = sorted(rng.uniform(1, 5, 2))
            e1 = {e.start for e in classify(pred, l, u1)}
            e2 = {e.start for e in classify(pred, l, u2)}
            assert e2 <= e1

    def test_monotone_in_l(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = rng.uniform(1, 5, 12)
            u = rng.uniform(1, 5)
            l2, l1 = sorted(rng.uniform(1, 5, 2))
            e1 = {e.start for e in classify(pred, l1, u)}
            e2 = {e.start for e in classify(pred, l2, u)}
            assert e2 <= e1

    def test_truth_classifier_recovers_events(self):
        # with (l, u) = (2, 3) on true integer phases, predicted events cover
        # actual ones; equal when phases dwell before rising
        rng = np.random.default_rng(2)
        for _ in range(30):
            phases = np.array([2, 2, 3, 3, 2, 2, 2, 3, 3, 3, 1, 1], dtype=float)
            actual = {e.start for e in detect_outbreaks(phases)}
            predicted = {e.start for e in classify(phases, 2.0, 3.0)}
            assert actual == predicted


class TestScore:
    def test_perfect(self):
        events = [OutbreakEvent("d1", 3, 3.0), OutbreakEvent("d2", 5, 4.0)]
        s = score(events, events)
        assert (s.precision, s.recall) == (1.0, 1.0)

    def test_no_predictions(self):
        actual = [OutbreakEvent("d1", 3, 3.0)]
        s = score([], actual)
        assert s.precision is None and s.recall == 0.0

    def test_hand_counts(self):
        actual = [OutbreakEvent("d1", 3, 3.0), OutbreakEvent("d1", 9, 3.0),
                  OutbreakEvent("d2", 5, 4.0)]
        predicted = [OutbreakEvent("d1", 3, 3.0), OutbreakEvent("d3", 5, 3.0)]
        s = score(predicted, actual)
        assert s.matched == 1
        assert s.precision == pytest.approx(0.5)
        assert s.recall == pytest.approx(1 / 3)

    def test_one_to_one_matching(self):
        actual = [OutbreakEvent("d1", 3, 3.0)]
        predicted = [OutbreakEvent("d1", 3, 3.0), OutbreakEvent("d1", 3, 3.0)]
        s = score(predicted, actual)
        assert s.matched == 1 and s.precision == pytest.approx(0.5)

    def test_window_matching_on_grid(self):
        # starts are grid positions, so the window counts publication periods
        actual = [OutbreakEvent("d1", 1, 3.0)]
        predicted = [OutbreakEvent("d1", 2, 3.0)]
        assert score(predicted, actual, window=0).matched == 0
        assert score(predicted, actual, window=1).matched == 1
        assert score([OutbreakEvent("d1", 3, 3.0)], actual, window=1).matched == 0

    @pytest.mark.parametrize("predicted, actual, pairs", [
        # The earlier actual start takes the one prediction both windows reach.
        ([3], [2, 3], [("d1", 3, 2)]),
        # The earliest free prediction in reach is taken, not the exact one.
        ([2, 3], [3], [("d1", 2, 3)]),
        ([2, 3, 4], [3, 4], [("d1", 2, 3), ("d1", 3, 4)]),
    ])
    def test_overlapping_windows_pair_earliest_first(self, predicted, actual, pairs):
        def events(starts):
            return [OutbreakEvent("d1", t, 3.0) for t in starts]

        assert match_events(events(predicted), events(actual), window=1) == pairs


def oracle_front(preds, actual, window=0, grid=None):
    """Brute force: classify every district at every (l, u) and score the union."""
    levels = threshold_grid() if grid is None else grid
    points = []
    for l in levels:
        for u in levels:
            if l >= u:
                continue
            predicted = []
            for name, vals in sorted(preds.items()):
                predicted.extend(classify(vals, l, u, name))
            s = score(predicted, actual, window)
            if s.precision is None or s.recall is None:
                continue
            points.append(ParetoPoint(l, u, s.precision, s.recall))
    return brute_force_front(points)


class TestPareto:
    def random_panel(self, rng, districts=8, n=14, nan_share=0.0):
        preds = {}
        actual = []
        for d in range(districts):
            name = f"d{d}"
            phases = rng.choice([1, 2, 2, 3, 3, 4], size=n).astype(float)
            actual.extend(detect_outbreaks(phases, district=name))
            noisy = np.clip(phases + rng.normal(0, 0.7, n), 1, 5)
            if nan_share:
                noisy[rng.random(n) < nan_share] = np.nan
            preds[name] = noisy
        return preds, actual

    def test_front_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            preds, actual = self.random_panel(rng)
            if not actual:
                continue
            assert sweep_pareto(preds, actual) == oracle_front(preds, actual)

    # The windows count grid positions, however unevenly the grid's months are spaced.
    @pytest.mark.parametrize("nan_share, window, block, grid", [
        pytest.param(0.15, 0, None, None, id="nan-gaps"),
        pytest.param(0.0, 1, None, None, id="window1-uneven-grid"),
        pytest.param(0.1, 2, None, None, id="window2-uneven-grid-nan"),
        # 17 levels, so 289 cells of the (l, u) square in 58 blocks, some with no l < u pair.
        pytest.param(0.1, 1, 5, threshold_grid(1.0, 5.0, 0.25), id="blocks-of-5-cells"),
    ])
    def test_front_matches_oracle_off_the_defaults(self, monkeypatch, nan_share, window,
                                                   block, grid):
        if block is not None:
            monkeypatch.setattr(outbreak, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 4:
            preds, actual = self.random_panel(rng, nan_share=nan_share)
            if not actual:
                continue
            front = sweep_pareto(preds, actual, grid, window)
            assert front == oracle_front(preds, actual, window, grid)
            checked += 1

    def test_perfect_predictions_reach_corner(self):
        phases = np.array([2.0, 2.0, 3.0, 3.0, 2.0, 2.0, 4.0, 4.0, 1.0])
        preds = {"d0": phases}
        actual = detect_outbreaks(phases, district="d0")
        front = sweep_pareto(preds, actual)
        assert any(p.precision == 1.0 and p.recall == 1.0 for p in front)

    def test_constant_low_predictions_degenerate(self):
        preds = {"d0": np.full(8, 2.0)}
        actual = [OutbreakEvent("d0", 3, 3.0)]
        front = sweep_pareto(preds, actual)
        assert front == []

    def test_front_sorted_and_nondominated(self):
        rng = np.random.default_rng(4)
        preds, actual = self.random_panel(rng)
        front = sweep_pareto(preds, actual)
        recalls = [p.recall for p in front]
        assert recalls == sorted(recalls)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not (a.precision >= b.precision and a.recall >= b.recall
                                and (a.precision > b.precision or a.recall > b.recall))


@pytest.mark.parametrize("lo, hi, step, n, last", [
    (1.0, 5.0, 0.1, 41, 5.0),
    (1.0, 5.0, 0.7, 6, 4.5),
    (1.0, 5.0, 0.15, 27, 4.9),
    (1.0, 4.0, 0.3, 11, 4.0),
    (2.0, 3.0, 0.1, 11, 3.0),
])
def test_threshold_grid_ends_at_the_last_rung_inside_its_range(lo, hi, step, n, last):
    grid = threshold_grid(lo, hi, step)
    assert (grid[0], len(grid), grid[-1]) == (lo, n, last)
    assert grid[-1] <= hi


class TestOperatingPoint:
    def front(self):
        return [ParetoPoint(2.0, 3.5, 0.9, 0.5), ParetoPoint(2.2, 3.1, 0.8, 0.7),
                ParetoPoint(2.5, 2.8, 0.7, 0.9)]

    def test_selection_rule(self):
        l, u, recall = recall_at_precision(self.front(), 0.80)
        assert (l, u, recall) == (2.2, 3.1, 0.7)

    def test_unreachable_target_raises_with_best(self):
        with pytest.raises(DataError, match="0.9"):
            recall_at_precision(self.front(), 0.95)

    def test_tie_prefers_higher_precision_then_smaller_u(self):
        front = [ParetoPoint(2.0, 3.5, 0.85, 0.7), ParetoPoint(2.1, 3.2, 0.9, 0.7)]
        l, u, _ = recall_at_precision(front, 0.8)
        assert (l, u) == (2.1, 3.2)
        front = [ParetoPoint(2.0, 3.5, 0.9, 0.7), ParetoPoint(2.1, 3.2, 0.9, 0.7)]
        l, u, _ = recall_at_precision(front, 0.8)
        assert u == 3.2


class TestExpertBaseline:
    def test_projections_equal_truth(self):
        phases = np.array([2.0, 3.0, 3.0, 2.0, 2.0, 3.0, 3.0])
        actual = detect_outbreaks(phases, district="d0")
        s = expert_baseline({"d0": phases}, actual)
        assert (s.precision, s.recall) == (1.0, 1.0)

    def test_constant_two_recalls_nothing(self):
        actual = [OutbreakEvent("d0", 2, 3.0)]
        s = expert_baseline({"d0": np.full(7, 2.0)}, actual)
        assert s.recall == 0.0

    def test_hand_counts(self):
        actual = [OutbreakEvent("d0", 1, 3.0), OutbreakEvent("d1", 4, 3.0)]
        projections = {
            "d0": np.array([2.0, 3, 3, 2, 2, 2]),   # hit
            "d1": np.array([2.0, 3, 3, 2, 2, 2]),   # miss + false
        }
        s = expert_baseline(projections, actual)
        assert s.matched == 1 and s.n_predicted == 2
        assert s.precision == pytest.approx(0.5)
        assert s.recall == pytest.approx(0.5)


class TestSeverityAccounting:
    def test_partition_reproduces_bands(self):
        phases = {
            "d0": [2, 3, 3, 2, 2, 2],    # severity 3
            "d1": [1, 4, 5, 2, 2, 2],    # severity 5
            "d2": [2, 2, 3, 4, 2, 2],    # severity 4
        }
        events = []
        for d, p in phases.items():
            events.extend(detect_outbreaks(p, district=d))
        bands = {"phase3": 0, "phase45": 0}
        for e in events:
            bands["phase45" if e.severity >= 4 else "phase3"] += 1
        assert bands == {"phase3": 1, "phase45": 2}


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(10, 50), st.integers(10, 50),
              st.integers(0, 20), st.integers(0, 20)),
    min_size=1, max_size=60,
))
def test_pareto_filter_invariants(raw):
    points = [ParetoPoint(l / 10, u / 10, p / 20, r / 20) for l, u, p, r in raw]
    front = pareto_filter(points)
    keys = {(q.precision, q.recall) for q in points}
    assert front  # something always survives
    assert all((q.precision, q.recall) in keys for q in front)
    assert front == brute_force_front(points)

