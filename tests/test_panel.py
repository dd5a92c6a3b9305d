import csv
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newswarn.errors import DataError, NumericalError
from newswarn.months import format_month, parse_month
from newswarn.panel import (Column, DesignMatrix, ModelSpec, ablate, audit_no_lookahead,
                            build_design, cross_validate_design, fit_design, fold_rows,
                            TRADITIONAL_INDICATORS, forward_fill_ipc, _least_squares, lasso_cd,
                            lasso_kkt_residual, load_panel_csv, model_designs, month_folds,
                            percentile_ranks, spatial_average, validate_factors)
from newswarn.pipeline import _read_grid, min_train_rows
from newswarn.tsstats import diff_on_grid

from conftest import (design_loop, feature_clusters, grid_districts, load_panel_csv_loop,
                      make_gazetteer, make_panel, make_panel_and_factors, panel_value,
                      plant_adl_response, planted_coefficients, read_grid_loop)

BASELINE = ModelSpec(kind="baseline")


def _published(observations, start, end):
    """A one-district observed-phase row for months start..end."""
    row = np.full((1, end - start + 1), np.nan)
    for t, phase in observations.items():
        row[0, t - start] = phase
    return row


class TestForwardFill:
    def test_definition_example(self):
        jan, apr, may = parse_month("2011-01"), parse_month("2011-04"), parse_month("2011-05")
        s = forward_fill_ipc(_published({jan: 2, apr: 3}, jan, may))[0]
        assert s.tolist() == [2, 2, 2, 3, 3]

    def test_single_observation_constant_tail(self):
        jan = parse_month("2011-01")
        s = forward_fill_ipc(_published({jan: 4}, jan, jan + 5))
        assert np.all(s == 4.0)

    def test_cadence_change(self):
        # quarterly through 2015 (Jan Apr Jul Oct), triannual after (Feb Jun Oct)
        obs = {parse_month("2015-10"): 2, parse_month("2016-02"): 3,
               parse_month("2016-06"): 2}
        start = parse_month("2015-10")
        s = forward_fill_ipc(_published(obs, start, parse_month("2016-07")))[0]
        assert s[parse_month("2015-12") - start] == 2
        assert s[parse_month("2016-01") - start] == 2
        assert s[parse_month("2016-02") - start] == 3
        assert s[parse_month("2016-05") - start] == 3
        assert s[parse_month("2016-06") - start] == 2

    def test_months_before_first_absent(self):
        jan = parse_month("2011-01")
        s = forward_fill_ipc(_published({jan: 2}, jan - 2, jan + 2))[0]
        assert np.isnan(s[:2]).all() and s[2:].tolist() == [2, 2, 2]

    def test_empty_errors(self):
        with pytest.raises(DataError):
            forward_fill_ipc(np.full((2, 3), np.nan))

    def test_rows_fill_independently(self):
        jan = parse_month("2011-01")
        both = np.vstack([_published({jan + 1: 3}, jan, jan + 3),
                          np.full((1, 4), np.nan),
                          _published({jan: 1, jan + 2: 5}, jan, jan + 3)])
        s = forward_fill_ipc(both)
        assert np.isnan(s[0, 0]) and s[0, 1:].tolist() == [3, 3, 3]
        assert np.isnan(s[1]).all()
        assert s[2].tolist() == [1, 1, 5, 5]


class TestBuildDesign:
    def test_combined_column_count_three_features(self):
        panel = make_panel(n_districts=5, features=("alpha", "beta", "gamma"))
        design = build_design(panel, ModelSpec(kind="combined"))
        expected = 5 + 6 + 9 * 6 + 3 * 18
        assert design.X.shape[1] == expected
        assert len(design.columns) == expected

    def test_baseline_has_no_news_columns(self):
        panel = make_panel(n_districts=5)
        design = build_design(panel, ModelSpec(kind="baseline"))
        assert all(c.group != "news" for c in design.columns)
        assert design.X.shape[1] == 5 + 6 + 54

    def test_news_has_no_traditional_columns(self):
        panel = make_panel(n_districts=5)
        design = build_design(panel, ModelSpec(kind="news"))
        groups = {c.group for c in design.columns}
        assert "traditional" not in groups

    def test_column_blocks_disjoint_and_combined_is_union(self):
        panel = make_panel(n_districts=5)
        names = {
            kind: {c.name for c in build_design(panel, ModelSpec(kind=kind)).columns}
            for kind in ("baseline", "news", "combined")
        }
        shared = {c.name for c in build_design(panel, ModelSpec(kind="baseline")).columns
                  if c.group in ("intercept", "y_lag")}
        assert names["baseline"] & names["news"] == shared
        assert names["combined"] == names["baseline"] | names["news"]

    def test_early_months_skipped_with_audit(self):
        panel = make_panel(n_districts=5)
        design = build_design(panel, ModelSpec(kind="combined"))
        first_row_month = min(m for _, m in design.rows)
        assert first_row_month == panel.start + 18
        reasons = {r for _, m, r in design.skipped if m < panel.start + 18}
        assert reasons and all("lag" in r for r in reasons)

    def test_no_valid_rows_when_the_series_are_too_short(self):
        # The phase lags reach 18 months back: 19 months give one row per district.
        spec = ModelSpec(kind="combined")
        panel = make_panel(n_districts=5, months=19)
        one = build_design(panel, spec)
        assert one.rows == tuple((d, panel.end) for d in sorted(panel.districts))
        with pytest.raises(DataError, match="no valid rows"):
            build_design(make_panel(n_districts=5, months=18), spec)

    def test_shortened_indicator_named_at_both_ends(self):
        panel = make_panel(n_districts=5)
        s = panel.traditional["price_index"][panel.rows["d01"]]
        s[:30] = s[-5:] = np.nan
        design = build_design(panel, ModelSpec(kind="baseline"))
        reasons = {r for d, _, r in design.skipped if d == "d01"}
        assert reasons == {"lag unavailable (trad:price_index)",
                           "series ends (trad:price_index)"}
        assert (("d01", panel.start + 37, "lag unavailable (trad:price_index)")
                in design.skipped)
        assert ("d01", panel.end - 1, "series ends (trad:price_index)") in design.skipped
        kept = [m for d, m in design.rows if d == "d01"]
        assert (min(kept), max(kept)) == (panel.start + 38, panel.end - 2)

    def test_missing_news_factor_skips_the_district(self):
        panel = make_panel(n_districts=5, features=("alpha", "beta"))
        panel.factors["beta"][panel.rows["d03"]] = np.nan
        design = build_design(panel, ModelSpec(kind="news"))
        assert [s for s in design.skipped if s[0] == "d03"] == [
            ("d03", -1, "missing news factor beta@district")]
        assert all(d != "d03" for d, _ in design.rows)

    def test_no_lookahead_audit_clean(self):
        panel = make_panel(n_districts=5)
        design = build_design(panel, ModelSpec(kind="combined"))
        assert audit_no_lookahead(design) == []
        assert min(c.offset for c in design.columns if c.offset is not None) >= 3


def _without(get, loc_of):
    """Mutation: the array ``get(panel)`` loses its row of ``loc_of(panel)``."""
    def mutate(panel):
        get(panel)[panel.rows[loc_of(panel)]] = np.nan
    return mutate


def _neighbours_without(get):
    """Mutation: every neighbour of d00 loses its row of the array ``get(panel)``."""
    def mutate(panel):
        for n in panel.neighbors("d00"):
            get(panel)[panel.rows[n]] = np.nan
    return mutate


def _shortened(get, head, tail):
    """Mutation: d02's row of ``get(panel)`` opens ``head`` months late and ends ``tail`` early."""
    def mutate(panel):
        row = get(panel)[panel.rows["d02"]]
        row[: panel.start - panel.grid_start + head] = np.nan
        row[row.size - tail :] = np.nan
    return mutate


def _differenced(order):
    """Mutation: every news factor is differenced ``order`` times on the grid."""
    def mutate(panel):
        for w in panel.feature_order:
            panel.factors[w] = diff_on_grid(panel.factors[w], order)
    return mutate


SPATIAL_COMBINED = dict(kind="combined", spatial=True)
DESIGN_CASES = [
    *(pytest.param(dict(kind=k, spatial=sp), {}, None, id=f"{k}-spatial={sp}")
      for k in ("baseline", "news", "combined") for sp in (False, True)),
    pytest.param(SPATIAL_COMBINED, {}, _shortened(lambda p: p.traditional["rain_mean"], 30, 0),
                 id="indicator-opens-late"),
    pytest.param(SPATIAL_COMBINED, {}, _shortened(lambda p: p.factors["beta"], 0, 7),
                 id="news-ends-early"),
    pytest.param(SPATIAL_COMBINED, {}, _shortened(lambda p: p.ipc, 4, 2), id="ipc-shortened"),
    pytest.param(SPATIAL_COMBINED, {}, _without(lambda p: p.traditional["ndvi_mean"],
                                                lambda p: "d02"), id="missing-indicator"),
    pytest.param(SPATIAL_COMBINED, {}, _without(lambda p: p.factors["beta"], lambda p: "d02"),
                 id="missing-news-district"),
    pytest.param(SPATIAL_COMBINED, {}, _without(lambda p: p.factors["alpha"],
                                                lambda p: p.province_of("d02")),
                 id="missing-news-province"),
    pytest.param(SPATIAL_COMBINED, {}, _without(lambda p: p.factors["beta"],
                                                lambda p: p.country_of("d05")),
                 id="missing-news-country"),
    pytest.param(SPATIAL_COMBINED, {}, _neighbours_without(lambda p: p.traditional["rain_mean"]),
                 id="no-neighbour-indicator"),
    pytest.param(SPATIAL_COMBINED, {}, _neighbours_without(lambda p: p.factors["alpha"]),
                 id="no-neighbour-news"),
    *(pytest.param(dict(kind="news", spatial=True, y_lags=1), {}, _differenced(d),
                   id=f"diff-order-{d}") for d in (0, 1, 2)),
    pytest.param(dict(kind="news", spatial=True, y_lags=1), dict(lead=10), _differenced(1),
                 id="y_lags=1-news-before-start"),
    pytest.param(dict(kind="combined", y_lags=1), dict(lead=3), None,
                 id="y_lags=1-combined"),
]


class TestDesignReference:
    @pytest.mark.parametrize("spec_kwargs, panel_kwargs, mutate", DESIGN_CASES)
    def test_equals_the_reference_builder_bit_for_bit(self, spec_kwargs, panel_kwargs, mutate):
        panel = make_panel(**dict(dict(n_districts=8, countries=2, months=48,
                                       features=("alpha", "beta")), **panel_kwargs))
        if mutate is not None:
            mutate(panel)
        spec = ModelSpec(**spec_kwargs)
        design = build_design(panel, spec)
        X, y, columns, rows, skipped = design_loop(panel, spec)
        assert design.columns == columns
        assert design.rows == rows
        assert design.skipped == skipped
        assert design.X.shape == X.shape and design.X.tobytes() == X.tobytes()
        assert design.y.tobytes() == y.tobytes()

    def test_news_lags_reach_before_the_panel(self):
        panel = make_panel(n_districts=6, months=48, features=("alpha",), lead=10)
        design = build_design(panel, ModelSpec(kind="news", y_lags=1))
        first = min(t for _, t in design.rows)
        assert first - 8 < panel.start  # the deepest news lag precedes the panel file
        assert first == min(panel.publication_months) + 3


class TestSpatial:
    def test_average_of_identical_series(self):
        panel = make_panel(n_districts=6)
        s = np.linspace(0, 1, panel.end - panel.start + 1)
        out = spatial_average(panel, "d00", np.tile(s, (len(panel.rows), 1)))
        assert np.allclose(out, s)

    def test_hand_computed_neighbor_sets(self):
        from newswarn.corpus import District
        from newswarn.panel import PanelDataset

        spots = {
            "center": (0.0, 0.0), "north": (1.0, 0.0), "south": (-1.0, 0.0),
            "east": (0.0, 1.0), "west": (0.0, -1.0), "faraway": (20.0, 20.0),
        }
        districts = {
            name: District(name, name, (), "p0", "AA", lat, lon)
            for name, (lat, lon) in spots.items()
        }
        panel = PanelDataset(districts=districts, start=0, end=1, publication_months=(0,),
                             rows={d: i for i, d in enumerate(districts)}, grid_start=0,
                             ipc=np.full((len(districts), 2), 2.0),
                             ipc_observed=np.full((len(districts), 2), np.nan),
                             traditional={}, factors={})
        assert set(panel.neighbors("center")) == {"north", "south", "east", "west"}
        assert "center" not in panel.neighbors("center")
        assert "faraway" not in panel.neighbors("center")

    def test_fewer_than_four_candidates_errors(self):
        panel = make_panel(n_districts=3)
        with pytest.raises(DataError):
            panel.neighbors("d00")

    def test_spatial_indicator_read_at_column_offset(self):
        panel = make_panel(n_districts=6, features=("alpha",))
        design = build_design(panel, ModelSpec(kind="combined", spatial=True))
        cols = [(j, c) for j, c in enumerate(design.columns)
                if c.name.startswith("sp_trad[rain_mean,")]
        assert [c.offset for _, c in cols] == [3, 4, 5, 6, 7, 8]
        for i, (d, t) in enumerate(design.rows):
            sp = spatial_average(panel, d, panel.traditional["rain_mean"])
            for j, c in cols:
                assert design.X[i, j] == sp[t - c.offset - panel.grid_start]

    @pytest.mark.parametrize("kind,drop,reason", [
        ("baseline", lambda p: p.traditional["rain_mean"], "traditional indicator rain_mean"),
        ("news", lambda p: p.factors["beta"], "news factor beta@district"),
    ], ids=["indicator", "news_factor"])
    def test_one_missing_series_skips_one_district_in_both_designs(self, kind, drop, reason):
        panel = make_panel(n_districts=6, features=("alpha", "beta"))
        values = drop(panel)
        values[panel.rows["d03"]] = np.nan
        plain = build_design(panel, ModelSpec(kind=kind))
        spatial = build_design(panel, ModelSpec(kind=kind, spatial=True))
        for design in (plain, spatial):
            assert [s for s in design.skipped if s[0] == "d03"] == [
                ("d03", -1, f"missing {reason}")]
        assert spatial.rows == plain.rows
        # Neighbours of d03 average the neighbours that have the series.
        prefix = "sp_trad[rain_mean," if kind == "baseline" else "sp_news[beta,"
        cols = [(j, c) for j, c in enumerate(spatial.columns) if c.name.startswith(prefix)]
        near = [d for d in sorted(panel.districts) if "d03" in panel.neighbors(d)]
        assert near
        for i, (d, t) in enumerate(spatial.rows):
            have = [n for n in panel.neighbors(d) if n != "d03"]
            assert len(have) == (3 if d in near else 4)
            for j, c in cols:
                assert spatial.X[i, j] == np.mean([panel_value(panel, values, n, t - c.offset)
                                                   for n in have])

    def test_no_neighbour_with_the_series_skips_with_reason(self):
        panel = make_panel(n_districts=6)
        values = panel.traditional["rain_mean"]
        for n in panel.neighbors("d00"):
            values[panel.rows[n]] = np.nan
        spatial = build_design(panel, ModelSpec(kind="baseline", spatial=True))
        assert [s for s in spatial.skipped if s[0] == "d00"] == [
            ("d00", -1, "no neighbour has traditional indicator rain_mean")]
        assert np.isnan(spatial_average(panel, "d00", values)).all()
        plain = build_design(panel, ModelSpec(kind="baseline"))
        assert {d for d, _ in plain.rows} == {d for d, _ in spatial.rows} | {"d00"}

    def test_neighbours_that_do_not_overlap_raise(self):
        panel = make_panel(n_districts=6)
        values = panel.traditional["rain_mean"]
        a, b = panel.neighbors("d00")[:2]
        values[panel.rows[a], 40:] = np.nan
        values[panel.rows[b], :40] = np.nan
        with pytest.raises(DataError, match="neighbor series of 'd00' do not overlap"):
            spatial_average(panel, "d00", values)
        with pytest.raises(DataError, match="neighbor series of 'd00' do not overlap"):
            build_design(panel, ModelSpec(kind="baseline", spatial=True))

    def test_spatial_design_appends_columns(self):
        panel = make_panel(n_districts=6, features=("alpha",))
        plain = build_design(panel, ModelSpec(kind="combined"))
        spatial = build_design(panel, ModelSpec(kind="combined", spatial=True))
        extra = spatial.X.shape[1] - plain.X.shape[1]
        assert extra == 6 + 54 + 1 * 6
        assert any(c.group == "sp_news" for c in spatial.columns)


class TestFit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(30)
        panel = make_panel(n_districts=6, months=96, features=("alpha", "beta"))
        spec = ModelSpec(kind="combined")
        coef = planted_coefficients(panel, spec, rng)
        plant_adl_response(panel, spec, coef)
        result = fit_design(build_design(panel, spec), spec)
        fitted = result.coefficients()
        for name, value in coef.items():
            assert fitted[name] == pytest.approx(value, abs=1e-6)
        assert result.rss <= 1e-10

    def test_tiny_column_independent_of_the_rest_is_kept(self):
        # b = (a+b) - a is dropped. The tiny column is judged against its own
        # norm, so it is kept and fitted; no second rank test rejects it.
        rng = np.random.default_rng(35)
        a, b, c = rng.normal(0, 1, (3, 40))
        X = np.column_stack([np.ones(40), a, a + b, b, c * 1e-12])
        y = rng.normal(0, 1, 40)
        columns = tuple(Column(name, "test") for name in ("const", "a", "a+b", "b", "tiny"))
        result = fit_design(DesignMatrix(X, y, columns, (), (), tuple(range(5))),
                            ModelSpec(kind="baseline"))
        assert result.kept == (0, 1, 2, 4)
        assert result.dropped == ("b",)
        assert result.coefficients()["tiny"] != 0.0
        assert _check_least_squares(X, y)


def _greedy_keep(X, tol=1e-8):
    """Column rule oracle: greedy Gram-Schmidt over the columns of ``X`` in order.

    Column j is kept when its residual on the kept columns before it exceeds
    ``tol`` times its own norm; zero columns are dropped.
    """
    T, p = X.shape
    Q = np.empty((p, T))
    k = 0
    keep = []
    for j in range(p):
        v = X[:, j].astype(float).copy()
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):  # re-orthogonalize for stability
            if k:
                v -= Q[:k].T @ (Q[:k] @ v)
        norm1 = np.linalg.norm(v)
        if norm1 <= tol * norm0:
            continue
        Q[k] = v / norm1
        keep.append(j)
        k += 1
    return keep


def r_factor(X, y):
    """R of ``[X, y]``, square: zero rows below the T-th, as a design's training window has."""
    R = np.zeros((X.shape[1] + 1,) * 2)
    R[:min(X.shape[0], X.shape[1] + 1)] = np.linalg.qr(np.column_stack([X, y]), mode="r")
    return R


def matrix_least_squares(X, y):
    """The fit of every column of ``X`` from the R factor of ``[X, y]`` alone, per matrix."""
    return _least_squares(r_factor(X, y), range(X.shape[1]), X.shape[0])


def _check_least_squares(X, y) -> bool:
    """``matrix_least_squares`` keeps the oracle's columns and fits them as lstsq does.

    Returns whether there were enough rows to fit the kept columns.
    """
    oracle = _greedy_keep(X)
    if X.shape[0] <= len(oracle):
        with pytest.raises(DataError, match="need more observations"):
            matrix_least_squares(X, y)
        return False
    kept, beta, rss = matrix_least_squares(X, y)
    assert kept == oracle
    Xk = X[:, kept]
    # lstsq's singular-value cutoff is not invariant to column scale, so it
    # solves on unit-norm columns; the comparison is on that scale too
    norms = np.linalg.norm(Xk, axis=0)
    expected = np.linalg.lstsq(Xk / norms, y, rcond=None)[0]
    scale = np.linalg.norm(y)
    assert np.allclose(beta * norms, expected, rtol=1e-7, atol=1e-9 * scale)
    resid = y - Xk @ beta
    assert rss == pytest.approx(resid @ resid, rel=1e-7, abs=1e-20 * scale**2)
    return True


class TestColumnRule:
    @pytest.mark.parametrize("kind", ["baseline", "news", "combined"])
    @pytest.mark.parametrize("spatial", [False, True])
    def test_panel_training_sets_match_greedy_gram_schmidt(self, kind, spatial):
        features = ("alpha", "beta", "gamma")
        panel = make_panel(n_districts=6, months=96, features=features)
        spec = ModelSpec(kind=kind, spatial=spatial)
        design = build_design(panel, spec)
        column_sets = [list(range(len(design.columns)))]
        if spec.uses_news:
            column_sets += [[i for i, c in enumerate(design.columns)
                             if c.feature not in cluster.members]
                            for cluster in feature_clusters(features, 2)]
        months = np.array([m for _, m in design.rows])
        blocks = month_folds(panel.start, panel.end, 8)
        trainings = [fold_rows(months, block)[0] for block in blocks[1:]]
        trainings.append(np.ones(months.size, bool))
        fitted = [_check_least_squares(design.X[train][:, cols], design.y[train])
                  for cols in column_sets for train in trainings]
        assert sum(fitted) >= 4 * len(column_sets)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_designs_match_greedy_gram_schmidt(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(8, 60))
        X = rng.normal(0, 1, (T, int(rng.integers(2, 12))))
        X *= 10.0 ** rng.uniform(-12, 12, X.shape[1])
        extras = []
        for _ in range(int(rng.integers(1, 8))):
            i, j = rng.integers(0, X.shape[1], 2)
            extras.append(rng.choice([
                np.zeros(T),                                   # zero column
                X[:, i].copy(),                                # duplicate
                X[:, i] - 2.5 * X[:, j],                       # exact combination
                rng.normal(0, 1, T) * 10.0 ** rng.uniform(-12, 12),  # independent
            ]))
        X = np.column_stack([X, *extras])[:, rng.permutation(X.shape[1] + len(extras))]
        y = X[:, :2] @ rng.normal(0, 1, 2) + rng.normal(0, 1, T)
        _check_least_squares(X, y)


class TestColumnSetFit:
    """A fit of an index set of columns from the R factor of every column of ``[X, y]``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_matrix_fit(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(4, 40))
        base = rng.normal(0, 1, (T, int(rng.integers(2, 10))))
        columns = list(base.T)
        for _ in range(int(rng.integers(2, 7))):
            a = columns[int(rng.integers(0, len(columns)))]
            columns.append(rng.choice([
                np.zeros(T),                                  # zero column
                a.copy(),                                     # duplicate
                a + 1e-12 * rng.normal(0, 1, T),              # 1e-12 from another
                rng.normal(0, 1, T),                          # independent
            ]))
        X = np.column_stack(columns)[:, rng.permutation(len(columns))]
        y = X[:, :2] @ rng.normal(0, 1, 2) + rng.normal(0, 1, T)
        R = r_factor(X, y)  # T <= p gives zero rows below the T-th
        fitted = 0
        for size in [1] + rng.integers(1, X.shape[1] + 1, 7).tolist():
            cols = sorted(rng.choice(X.shape[1], size, replace=False).tolist())
            try:
                expected = matrix_least_squares(X[:, cols], y)
            except DataError as exc:
                with pytest.raises(DataError, match=re.escape(str(exc))):
                    _least_squares(R, cols, T)
                continue
            kept, beta, rss = _least_squares(R, cols, T)
            assert kept == expected[0]
            assert np.allclose(beta, expected[1], rtol=1e-9, atol=0)
            assert rss == pytest.approx(expected[2], rel=1e-9, abs=1e-24 * (y @ y))
            fitted += 1
        assert fitted

    def test_every_model_and_ablation_reads_one_r_per_training_window(self, monkeypatch):
        panel = make_panel(n_districts=5, months=96, features=("alpha", "beta"))
        specs = {k: ModelSpec(kind=k) for k in ("baseline", "news", "combined")}
        designs = model_designs(panel, specs)
        factored = []
        real_qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda M, mode: factored.append(M.shape)
                            or real_qr(M, mode=mode))
        reports = {k: cross_validate_design(designs[k], s, panel, folds=8)
                   for k, s in specs.items()}
        ablate(designs["combined"], specs["combined"], panel, reports["combined"],
               feature_clusters(("alpha", "beta"), 2), folds=8)
        for k in specs:
            fit_design(designs[k], specs[k])
        months = np.array([m for _, m in designs["combined"].rows])
        windows = [b[0] for b in month_folds(panel.start, panel.end, 8)[1:]
                   if (months < b[0]).any()]
        assert sum(r is not None for r in reports["combined"].fold_rmse) >= 4
        # one QR of [X, y] per fold with training rows, and one of every row for
        # the full fits; every other QR re-factors a window's R
        width = len(designs["combined"].columns) + 1  # a window's R is width x width
        assert [n for n, _ in factored if n != width] == [
            int((months < t).sum()) for t in windows] + [months.size]
        assert {p for n, p in factored if n != width} == {width}
        assert designs["combined"]._windows is designs["baseline"]._windows


class TestRowSets:
    """Specs whose rows differ get designs of their own; the others share one."""

    def late_news(self):
        # news factor alpha opens 30 months into the panel, so designs with news
        # columns start later than the baseline's
        panel = make_panel(n_districts=6, months=96, features=("alpha", "beta"))
        panel.factors["alpha"][:, : panel.start - panel.grid_start + 30] = np.nan
        return panel

    def test_a_later_news_factor_makes_a_second_design(self, monkeypatch):
        import newswarn.panel as panel_module
        panel = self.late_news()
        specs = {f"{k}{sfx}": ModelSpec(kind=k, lasso=lam)
                 for k in ("baseline", "news", "combined")
                 for sfx, lam in (("", None), ("_lasso", 0.01))}
        built = []
        real = panel_module.build_design
        monkeypatch.setattr(panel_module, "build_design",
                            lambda panel, *specs: built.append(specs) or real(panel, *specs))
        designs = model_designs(panel, specs)
        assert sorted(sorted(s.kind for s in group) for group in built) == [
            ["baseline"], ["combined", "news"]]
        assert designs["news"].X is designs["combined"].X
        assert designs["baseline"].X is not designs["combined"].X
        assert len(designs["combined"].rows) < len(designs["baseline"].rows)
        for kind in ("baseline", "news", "combined"):
            assert designs[f"{kind}_lasso"] is designs[kind]

    @pytest.mark.parametrize("kind", ["baseline", "news", "combined"])
    @pytest.mark.parametrize("lasso", [None, 0.01])
    def test_each_model_fits_as_on_its_own_design(self, kind, lasso):
        # A spec's own design fits from the R factor of its own matrix, as each
        # model did when every model had a design of its own.
        panel = self.late_news()
        specs = {k: ModelSpec(kind=k, lasso=lasso) for k in ("baseline", "news", "combined")}
        shared = model_designs(panel, specs)[kind]
        own = build_design(panel, specs[kind])
        assert (shared.columns, shared.rows, shared.skipped) == (own.columns, own.rows,
                                                                  own.skipped)
        with pytest.warns(UserWarning, match="unusable training window"):
            got = cross_validate_design(shared, specs[kind], panel, folds=8, min_train_rows=150)
            expected = cross_validate_design(own, specs[kind], panel, folds=8,
                                             min_train_rows=150)
        assert [r is None for r in got.fold_rmse] == [r is None for r in expected.fold_rmse]
        assert sum(r is not None for r in got.fold_rmse) >= 2
        assert np.allclose([r for r in got.fold_rmse if r is not None],
                           [r for r in expected.fold_rmse if r is not None], rtol=1e-9, atol=0)
        assert [(p.district, p.month, p.fold) for p in got.predictions] == [
            (p.district, p.month, p.fold) for p in expected.predictions]
        assert np.allclose([p.y_pred for p in got.predictions],
                           [p.y_pred for p in expected.predictions], rtol=1e-9, atol=0)
        fit, reference = fit_design(shared, specs[kind]), fit_design(own, specs[kind])
        assert (fit.kept, fit.dropped, fit.nobs) == (reference.kept, reference.dropped,
                                                     reference.nobs)
        assert np.allclose(fit.beta, reference.beta, rtol=1e-9, atol=1e-12)
        if kind == "baseline" or lasso is not None:
            # a design of one, or the lasso reading the columns: the same arithmetic
            assert got == expected
            assert fit.beta.tobytes() == reference.beta.tobytes()


class TestLasso:
    def fixture(self, seed=31, n=20, p=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (n, p))
        beta = np.array([2.0, -1.0, 0.0, 0.0, 0.5])
        y = X @ beta + rng.normal(0, 0.1, n)
        return X, y

    def test_lambda_zero_equals_ols(self):
        X, y = self.fixture()
        beta, _, _ = lasso_cd(X, y, 0.0, np.ones(X.shape[1], bool))
        assert np.allclose(beta, np.linalg.lstsq(X, y, rcond=None)[0], atol=1e-6)

    def test_kkt_residual_small(self):
        X, y = self.fixture()
        penalized = np.ones(X.shape[1], bool)
        for lam in (0.01, 0.1, 0.5):
            beta, _, _ = lasso_cd(X, y, lam, penalized)
            assert lasso_kkt_residual(X, y, beta, lam, penalized) <= 1e-5

    def test_huge_lambda_zeroes_penalized(self):
        X, y = self.fixture()
        penalized = np.array([False, True, True, True, True])
        beta, _, _ = lasso_cd(X, y, 1e6, penalized)
        assert np.allclose(beta[1:], 0.0)
        assert abs(beta[0]) > 0  # unpenalized coordinate still fits

    def test_nonconvergence_raises(self):
        X, y = self.fixture()
        with pytest.raises(NumericalError):
            lasso_cd(X, y, 0.0, np.ones(X.shape[1], bool), max_sweeps=1)

    def test_level_column_and_static_beside_unpenalized_intercepts(self):
        # A price-index-like level (mean 4.6, sd 0.005) is nearly parallel to
        # the district intercepts once scaled to unit sd, and the static is
        # exactly in their span; both used to stall coordinate descent.
        rng = np.random.default_rng(34)
        districts, months = 6, 40
        n = districts * months
        district = np.repeat(np.arange(districts), months)
        intercepts = (district[:, None] == np.arange(districts)).astype(float)
        level = 4.6 + 0.005 * rng.normal(0, 1, n)
        regressor = rng.normal(0, 1, n)
        static = rng.normal(0, 1, districts)[district]
        X = np.column_stack([intercepts, level, regressor, static])
        y = (rng.normal(0, 1, districts)[district] + 40.0 * (level - 4.6)
             + 0.8 * regressor + rng.normal(0, 0.1, n))
        penalized = np.array([False] * districts + [True, True, True])
        lam = 0.01
        beta, _, sweeps = lasso_cd(X, y, lam, penalized, max_sweeps=10000)
        assert sweeps < 10000
        assert lasso_kkt_residual(X, y, beta, lam, penalized) <= 1e-5
        assert beta[-1] == 0.0

    def test_nonconvergence_in_fit_names_the_column(self, monkeypatch):
        import newswarn.panel as panel_module
        solver = panel_module.lasso_cd
        monkeypatch.setattr(panel_module, "lasso_cd",
                            lambda *a, **k: solver(*a, **k, max_sweeps=1))
        panel = make_panel(n_districts=5, features=("alpha",))
        design = build_design(panel, ModelSpec(kind="combined"))
        with pytest.raises(NumericalError, match="within 1 sweeps") as caught:
            fit_design(design, ModelSpec(kind="combined", lasso=0.01))
        named = str(caught.value).rsplit("(", 1)[-1].rstrip(")")
        assert named in {c.name for c in design.columns if c.group != "intercept"}

    def test_lasso_spec_through_fit(self):
        panel = make_panel(n_districts=5, features=("alpha",))
        spec = ModelSpec(kind="combined", lasso=1e6)
        result = fit_design(build_design(panel, spec), spec)
        coefs = result.coefficients()
        news = [v for k, v in coefs.items() if k.startswith("news")]
        assert np.allclose(news, 0.0)


class TestCrossValidate:
    def test_month_folds_partition(self):
        blocks = month_folds(0, 63, 10)
        assert len(blocks) == 10
        assert [m for b in blocks for m in b] == list(range(64))
        assert len(blocks[-1]) == 6 + 4  # remainder joins the last fold

    def test_perfect_fit_gives_zero_rmse(self):
        rng = np.random.default_rng(32)
        panel = make_panel(n_districts=6, months=120, features=("alpha",))
        spec = ModelSpec(kind="combined")
        coef = planted_coefficients(panel, spec, rng)
        plant_adl_response(panel, spec, coef)
        report = cross_validate_design(build_design(panel, spec), spec, panel, folds=8)
        scored = [r for r in report.fold_rmse if r is not None]
        assert scored and all(r == pytest.approx(0.0, abs=1e-6) for r in scored)

    def test_constant_phase_intercept_only_zero_rmse(self):
        panel = make_panel(n_districts=5, months=96)
        panel.ipc[[panel.rows[d] for d in panel.districts]] = 2.0
        report = cross_validate_design(build_design(panel, BASELINE), BASELINE, panel, folds=8)
        scored = [r for r in report.fold_rmse if r is not None]
        assert scored and all(r == pytest.approx(0.0, abs=1e-8) for r in scored)

    def test_nested_spec_no_degradation_on_noise_free_data(self):
        rng = np.random.default_rng(33)
        panel = make_panel(n_districts=6, months=96, features=("alpha", "beta"))
        baseline = ModelSpec(kind="baseline")
        coef = planted_coefficients(panel, baseline, rng)
        plant_adl_response(panel, baseline, coef)
        combined = ModelSpec(kind="combined")
        rep_base = cross_validate_design(build_design(panel, baseline), baseline, panel, folds=8)
        rep_comb = cross_validate_design(build_design(panel, combined), combined, panel, folds=8)
        assert rep_comb.mean_rmse <= rep_base.mean_rmse + 1e-6

    def test_no_scored_folds_gives_each_fold_reason(self):
        panel = make_panel(n_districts=5, months=96)
        with pytest.raises(DataError, match="no scored folds") as caught:
            cross_validate_design(build_design(panel, BASELINE), BASELINE, panel, folds=4,
                                  min_train_rows=10**6)
        message = str(caught.value)
        for fold in (2, 3, 4):
            assert f"fold {fold}: " in message
        assert "need 1000000" in message

    def test_min_train_rows_cap_is_the_last_fold_training_count(self):
        panel = make_panel(n_districts=5, months=100)
        blocks = month_folds(panel.start, panel.end, 8)
        assert len(blocks[-1]) > len(blocks[0])  # the remainder joins the last block
        design = build_design(panel, BASELINE)
        cap = min_train_rows([design], panel, 8, rows_per_parameter=10**6)
        report = cross_validate_design(design, BASELINE, panel, folds=8, min_train_rows=cap)
        failed = tuple(k + 2 for k, r in enumerate(report.fold_rmse) if r is None)
        assert failed == tuple(range(2, 8))  # only the last fold fits
        with pytest.raises(DataError, match=re.escape(
                f"fold 8: {cap} training rows (need {cap + 1})")):
            cross_validate_design(design, BASELINE, panel, folds=8, min_train_rows=cap + 1)

    def test_predictions_only_after_training_window(self):
        panel = make_panel(n_districts=5, months=96)
        report = cross_validate_design(build_design(panel, BASELINE), BASELINE, panel, folds=8)
        blocks = month_folds(panel.start, panel.end, 8)
        for p in report.predictions:
            train_max = max(m for b in blocks[: p.fold - 1] for m in b)
            assert p.month > train_max

    def test_per_country_breakdown(self):
        panel = make_panel(n_districts=6, months=96, countries=2)
        report = cross_validate_design(build_design(panel, BASELINE), BASELINE, panel, folds=8)
        assert set(report.country_rmse) == {"AA", "AB"}


class TestAblate:
    def combined_and_ablations(self, panel, clusters):
        spec = ModelSpec(kind="combined")
        design = build_design(panel, spec)
        combined = cross_validate_design(design, spec, panel, folds=8)
        return design, combined, ablate(design, spec, panel, combined, clusters, folds=8)

    def test_removing_all_clusters_reproduces_baseline(self):
        panel = make_panel(n_districts=5, months=96, features=("alpha", "beta"))
        design, _, results = self.combined_and_ablations(
            panel, feature_clusters(("alpha", "beta"), 2))
        assert [r.cluster_id for r in results] == [1, 2]
        # removing every cluster by hand leaves the baseline's columns; on the
        # baseline's design, which shares the combined rows, they fit from the same R
        spec = ModelSpec(kind="combined")
        designs = model_designs(panel, {"baseline": BASELINE, "combined": spec})
        keep = [k for k, c in enumerate(design.columns) if c.feature is None]
        combined = designs["combined"]
        assert combined.columns == design.columns
        stripped = replace(combined, columns=tuple(combined.columns[k] for k in keep),
                           cols=tuple(combined.cols[k] for k in keep))
        assert stripped.columns == designs["baseline"].columns
        rep_all_removed = cross_validate_design(stripped, spec, panel, folds=8)
        rep_baseline = cross_validate_design(designs["baseline"], BASELINE, panel, folds=8)
        assert rep_all_removed.fold_rmse == rep_baseline.fold_rmse
        assert rep_all_removed.mean_rmse == rep_baseline.mean_rmse

    def test_zero_factor_cluster_has_no_effect(self):
        panel = make_panel(n_districts=5, months=96, features=("alpha", "dead"))
        clusters = feature_clusters(("alpha", "dead"), 2)
        [dead_cluster] = [c.cluster_id for c in clusters if "dead" in c.members]
        panel.factors["dead"][:] = 0.0
        _, _, results = self.combined_and_ablations(panel, clusters)
        by_cluster = {r.cluster_id: r for r in results}
        assert by_cluster[dead_cluster].mean_delta == pytest.approx(0.0, abs=1e-9)


class TestValidateFactors:
    def test_monotone_transform_selected_with_r1(self):
        panel, factors = make_panel_and_factors(n_districts=10, features=("alpha", "beta"))
        rng = np.random.default_rng(34)
        months = panel.end - panel.start + 1
        for i, d in enumerate(sorted(panel.districts)):
            peak = 1.0 + i * 0.7 + rng.uniform(0, 0.1)
            vals = np.zeros(months)
            vals[rng.integers(0, months)] = peak
            panel.traditional["conflict_events"][panel.rows[d]] = vals
            fvals = np.zeros(months)
            fvals[rng.integers(0, months)] = peak / (1.0 + peak)  # monotone map
            factors.values[factors.features.index("alpha"), factors.locations.index(d)] = fvals
        rows, percentiles = validate_factors(panel, factors)
        row = next(r for r in rows if r.indicator == "conflict_events")
        assert row.feature == "alpha"
        assert row.spearman_r == pytest.approx(1.0)
        assert "conflict_events" in percentiles["traditional"]

    def test_independent_factors_stay_weak(self):
        panel, factors = make_panel_and_factors(n_districts=50, features=("alpha", "beta"),
                                                seed=35)
        rows, _ = validate_factors(panel, factors)
        assert rows and all(abs(r.spearman_r) < 0.5 for r in rows)

    def test_replica_threshold(self):
        # a news factor that is a noisy monotone transform of a traditional
        # factor across 50 districts must be picked up with high correlation
        panel, factors = make_panel_and_factors(n_districts=50,
                                                features=("conflictish", "other"), seed=36)
        rng = np.random.default_rng(37)
        months = panel.end - panel.start + 1
        for i, d in enumerate(sorted(panel.districts)):
            level = rng.uniform(0.5, 5.0)
            vals = np.abs(rng.normal(0, 0.2, months))
            vals[rng.integers(0, months)] = level
            panel.traditional["conflict_fatalities"][panel.rows[d]] = vals
            news_peak = (level ** 1.3) / 10.0 + rng.normal(0, 0.02)
            fvals = np.abs(rng.normal(0, 0.002, months))
            fvals[rng.integers(0, months)] = np.clip(news_peak, 0.001, 1.0)
            factors.values[factors.features.index("conflictish"),
                           factors.locations.index(d)] = fvals
        rows, _ = validate_factors(panel, factors)
        row = next(r for r in rows if r.indicator == "conflict_fatalities")
        assert row.feature == "conflictish"
        assert row.spearman_r >= 0.89


class TestPercentiles:
    def test_monotone_series_evenly_spaced(self):
        pct = percentile_ranks([3.0, 5.0, 9.0, 11.0, 20.0])
        assert np.allclose(pct, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(38)
        v = rng.normal(0, 1, 40)
        assert np.allclose(percentile_ranks(v), percentile_ranks(np.exp(v)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_bounds_and_order_preservation(self, values):
        pct = percentile_ranks(values)
        assert np.all((pct >= 0.0) & (pct <= 1.0))
        v = np.asarray(values)
        if np.unique(v).size == v.size:  # ties average, shifting the extremes
            assert pct.min() == 0.0 and pct.max() == 1.0
        for i in range(len(values)):
            for j in range(len(values)):
                if v[i] < v[j]:
                    assert pct[i] < pct[j]
                elif v[i] == v[j]:
                    assert pct[i] == pct[j]


class TestPanelCsv:
    def write_fixture(self, tmp_path, gaz):
        path = tmp_path / "panel.csv"
        months = ["2011-01", "2011-02", "2011-03", "2011-04"]
        with open(path, "w") as fh:
            fh.write("district_id,month,ipc_phase,conflict_events,conflict_fatalities,"
                     "price_index,price_yoy,evapotranspiration,rain_mean,"
                     "rain_deviation,ndvi_mean,ndvi_deviation\n")
            for d in sorted(gaz.districts):
                for i, m in enumerate(months):
                    phase = "2" if m in ("2011-01", "2011-04") else ""
                    cells = [d, m, phase] + [f"{0.1 * (i + 1):.3f}"] * 9
                    fh.write(",".join(cells) + "\n")
        return path

    def test_load_round_trip(self, tmp_path):
        gaz = make_gazetteer()
        path = self.write_fixture(tmp_path, gaz)
        ipc, obs, trad, (start, end) = load_panel_csv(path, gaz)
        assert start == parse_month("2011-01") and end == parse_month("2011-04")
        row = gaz.locations.index("so-jam")
        assert ipc[row, 2] == 2.0
        assert trad["rain_mean"][row, 1] == pytest.approx(0.2)

    def test_non_integer_phase_rejected(self, tmp_path):
        gaz = make_gazetteer()
        path = tmp_path / "panel.csv"
        path.write_text("district_id,month,ipc_phase\nso-jam,2011-01,2.5\n")
        with pytest.raises(DataError, match="integer"):
            load_panel_csv(path, gaz)

    def test_unknown_district_rejected(self, tmp_path):
        gaz = make_gazetteer()
        path = tmp_path / "panel.csv"
        path.write_text("district_id,month,ipc_phase\nnowhere,2011-01,2\n")
        with pytest.raises(DataError, match="unknown district"):
            load_panel_csv(path, gaz)

    @pytest.mark.parametrize("phase, indicator", [
        ("x3", "0.5"), ("nan", "0.5"), ("inf", "0.5"), ("2", "n/a"),
        ("", "nan"), ("2", "inf"), ("2", "-inf"),  # NaN marks months a series does not cover
    ])
    def test_malformed_cell_names_file_and_line(self, tmp_path, phase, indicator):
        gaz = make_gazetteer()
        path = tmp_path / "panel.csv"
        path.write_text("district_id,month,ipc_phase,rain_mean\n"
                        f"so-jam,2011-01,2,0.5\nso-jam,2011-02,{phase},{indicator}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: bad panel row")):
            load_panel_csv(path, gaz)

    @pytest.mark.parametrize("row", ["so-jam,2011-02,x", "so-jam,2011-2,3", "so-jam,2011-02",
                                     "so-jam,2011-02,3,1"])
    def test_malformed_projection_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "projections.csv"
        path.write_text(f"district_id,month,projected_phase\nso-jam,2011-01,3\n{row}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: bad projections row")):
            _read_grid(path, "projections", "projected_phase", make_panel(n_districts=4))

    def test_rows_off_the_grid_are_ignored(self, tmp_path):
        panel = make_panel(n_districts=4)
        d, t = sorted(panel.districts)[1], panel.start + 2
        path = tmp_path / "projections.csv"
        path.write_text("district_id,month,projected_phase\n"
                        f"{d},{format_month(t)},3\nnowhere,{format_month(t)},4\n"
                        f"{d},{format_month(panel.grid_start - 1)},4\n")
        grid = _read_grid(path, "projections", "projected_phase", panel)[""]
        assert grid.shape == panel.ipc.shape
        assert np.flatnonzero(np.isfinite(grid)).tolist() == [
            np.ravel_multi_index((panel.rows[d], t - panel.grid_start), grid.shape)]
        assert grid[panel.rows[d], t - panel.grid_start] == 3.0

    @pytest.mark.parametrize("row, cells", [("so-jam,2011-02,2", 3), ("so-jam,2011-01,2,0.5,9", 5)])
    def test_panel_row_of_the_wrong_width_names_file_line_and_counts(self, tmp_path, row, cells):
        gaz = make_gazetteer()
        path = tmp_path / "panel.csv"
        path.write_text(f"district_id,month,ipc_phase,rain_mean\nso-jam,2011-01,2,0.5\n{row}\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:3: bad panel row: {cells} cells, header has 4")):
            load_panel_csv(path, gaz)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _panel_outcome(load, path, gaz):
    """The reader's arrays as bytes, or the text of the DataError it raised."""
    try:
        ipc, observed, traditional, span = load(path, gaz)
    except DataError as exc:
        return str(exc)
    return (ipc.tobytes(), observed.tobytes(), span,
            {k: v.tobytes() for k, v in traditional.items()})


@st.composite
def panel_tables(draw, gap=False):
    """A panel: blank phases, indicator series shorter than the panel at either end, a
    random subset of the indicator columns and perhaps an extra one, rows in any order.
    The first district's first month publishes a phase. With ``gap``, the first
    district's first indicator misses one month inside its series; else it is well-formed.
    """
    districts = draw(st.lists(st.sampled_from(sorted(make_gazetteer().districts)),
                              min_size=1, max_size=4, unique=True))
    n_months = draw(st.integers(3 if gap else 1, 10))
    start = parse_month("2015-09") + draw(st.integers(0, 8))
    indicators = draw(st.lists(st.sampled_from(TRADITIONAL_INDICATORS), min_size=int(gap),
                               max_size=4, unique=True))
    hole = draw(st.integers(1, n_months - 2)) if gap else None
    extra = draw(st.booleans())
    header = ["district_id", "month", "ipc_phase", *indicators] + (["notes"] if extra else [])
    rows = []
    for d in districts:
        spans = [sorted(draw(st.lists(st.integers(0, n_months), min_size=2, max_size=2)))
                 for _ in indicators]
        for m in range(n_months):
            phase = "2" if not rows else draw(st.sampled_from(["", "", "1", "3", "5", " 4 ",
                                                               "2.0"]))
            cells = [d, format_month(start + m), phase]
            cells += [repr(draw(st.floats(allow_nan=False, allow_infinity=False, width=32)))
                      if a <= m < b else draw(st.sampled_from(["", " "])) for a, b in spans]
            if m == hole and d == districts[0]:
                cells[3] = ""
            rows.append(cells + ([draw(st.sampled_from(["", "x", "a, b"]))] if extra else []))
    return header, draw(st.permutations(rows))


# Cells no well-formed panel holds, by column; none of them names a real district or month.
BAD_CELLS = {
    "district_id": ["nowhere", "so-lower-juba", ""],
    "month": ["2011-13", "2011-2", "", "x"],
    "ipc_phase": ["x3", "nan", "inf", "2.5", "0", "6"],
    "indicator": ["n/a", "nan", "inf", "-inf", ""],
}


class TestPanelReaderOracle:
    """``load_panel_csv`` against the row-by-row reader it replaced (``conftest``)."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=panel_tables())
    def test_well_formed_panels_give_bit_identical_arrays(self, tmp_path, table):
        gaz, path = make_gazetteer(), tmp_path / "panel.csv"
        _write_rows(path, *table)
        expected = _panel_outcome(load_panel_csv_loop, path, gaz)
        assert not isinstance(expected, str), expected
        assert _panel_outcome(load_panel_csv, path, gaz) == expected

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), gap=st.booleans())
    def test_corrupted_panels_fail_with_the_row_loops_text(self, tmp_path, data, gap):
        header, rows = data.draw(panel_tables(gap=gap))
        rows = [list(r) for r in rows]
        for _ in range(data.draw(st.integers(0 if gap else 1, 3))):
            r = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(0, len(header)))
            if c == len(header):  # a short or a long row
                rows[r] = rows[r][:-1] if data.draw(st.booleans()) else rows[r] + ["1"]
            elif c < len(rows[r]) and header[c] != "notes":
                column = header[c] if c < 3 else "indicator"
                rows[r][c] = data.draw(st.sampled_from(BAD_CELLS[column]))
        gaz, path = make_gazetteer(), tmp_path / "panel.csv"
        _write_rows(path, header, rows)
        assert _panel_outcome(load_panel_csv, path, gaz) == _panel_outcome(
            load_panel_csv_loop, path, gaz)

    @pytest.mark.parametrize("rows", [
        *[f"so-jam,2011-02,{phase},{indicator}" for phase, indicator in [
            ("x3", "0.5"), ("nan", "0.5"), ("inf", "0.5"), ("2", "n/a"), ("", "nan"),
            ("2", "inf"), ("2", "-inf")]],
        "nowhere,2011-02,2,0.5",           # unknown district
        "so-jam,2011-13,2,0.5",            # bad month
        "so-jam,2011-02,2,\nso-jam,2011-03,2,0.5",  # an indicator gap
        "so-jam,2011-02,2",                # short row
        "so-jam,2011-02,x3,0.5\nnowhere,2011-03,2,0.5",  # the first failing row wins
        "so-jam,2011-02,2,0.5\nnowhere,2011-03,x3,n/a",  # and its first failing cell
        "so-jam,2011-02,2,n/a\nso-jam,2011-2,3,0.5",
        "et-gog,2011-02,,0.5\net-gog,2011-04,,0.5\nso-jam,2011-02,2,\nso-jam,2011-03,2,0.5",
    ])
    def test_each_malformed_panel_fails_with_the_row_loops_text(self, tmp_path, rows):
        gaz, path = make_gazetteer(), tmp_path / "panel.csv"
        path.write_text(f"district_id,month,ipc_phase,rain_mean\nso-jam,2011-01,2,0.5\n{rows}\n")
        expected = _panel_outcome(load_panel_csv_loop, path, gaz)
        assert isinstance(expected, str)
        assert _panel_outcome(load_panel_csv, path, gaz) == expected

    def test_a_repeated_district_month_fails_naming_both_lines(self, tmp_path):
        gaz, path = make_gazetteer(), tmp_path / "panel.csv"
        path.write_text("district_id,month,ipc_phase,rain_mean\nso-jam,2011-01,2,0.5\n"
                        "so-jam,2011-02,,0.6\nso-kis,2011-01,3,0.5\nso-jam,2011-01,3,0.7\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:5: bad panel row: so-jam 2011-01 is already on line 2")):
            load_panel_csv(path, gaz)


def _grid_outcome(read, path, panel, by):
    try:
        grids = read(path, "predictions", "y_pred", panel, by=by)
    except DataError as exc:
        return str(exc)
    return [(key, grid.tobytes()) for key, grid in grids.items()]


class TestGridReaderOracle:
    """``_read_grid`` against the row-by-row reader it replaced (``conftest``)."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), by=st.sampled_from(["", "model"]), corrupt=st.booleans())
    def test_rows_on_and_off_the_grid_and_repeats(self, tmp_path, data, by, corrupt):
        panel = make_panel(n_districts=4, months=12)
        places = sorted(panel.rows) + ["nowhere"]
        months = range(panel.grid_start - 2, panel.grid_start + panel.ipc.shape[1] + 2)
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(places), st.sampled_from(months),
            st.floats(allow_nan=False, width=32), st.sampled_from(["news", "baseline"])),
            max_size=30))
        cells = [[d, format_month(t), repr(v), m] for d, t, v, m in rows]
        if corrupt and cells:
            r, c = data.draw(st.integers(0, len(cells) - 1)), data.draw(st.integers(1, 2))
            cells[r][c] = data.draw(st.sampled_from(["x", "", "2011-13"]))
        path = tmp_path / "predictions.csv"
        _write_rows(path, ["district_id", "month", "y_pred", "model"], cells)
        assert _grid_outcome(_read_grid, path, panel, by) == _grid_outcome(
            read_grid_loop, path, panel, by)

    @pytest.mark.parametrize("header", ["district_id,month,y_pred", "district_id,y_pred,model",
                                        "month,y_pred,model", "district_id,month,model"])
    def test_a_missing_column_fails_at_the_first_row_as_the_row_loop_did(self, tmp_path,
                                                                         header):
        panel = make_panel(n_districts=4, months=12)
        path = tmp_path / "predictions.csv"
        path.write_text(f"{header}\n{sorted(panel.districts)[0]},2011-13,0.5\n")
        expected = _grid_outcome(read_grid_loop, path, panel, "model")
        assert isinstance(expected, str)
        assert _grid_outcome(_read_grid, path, panel, "model") == expected
