import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newswarn import tsstats
from newswarn.errors import DataError, NumericalError
from newswarn.tsstats import (AdfResult, _adf_critical, _adf_stack, _aic, _aic_order,
                              _average_ranks, _granger_f, _log_beta, _nested_rss,
                              _panel_diff_orders, _panel_stack, _r_factor, adf_test,
                              difference_until_stationary, f_sf, panel_granger, select_features,
                              spearman)

from conftest import (adf_loop, adl_design, average_ranks_loop, make_panel, panel_diff_order_loop,
                      panel_stack_loop)


class TestOls:
    """The rank rule every screening regression applies to its factor."""

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 1, 30), rng.normal(0, 1, 30)
        # an exact copy, and a copy within the 1e-10 tolerance
        for twin in (x, x + 1e-12 * rng.normal(0, 1, 30)):
            X = np.column_stack([np.ones(30), x, twin])
            assert error_text(_nested_rss, np.column_stack([X, y]), [3]) == (
                "NumericalError", "rank-deficient design, collinear columns: [2]")

    def test_more_params_than_rows_rejected(self):
        assert error_text(_nested_rss, np.ones((3, 5)), [4]) == (
            "DataError", "need more observations (3) than parameters (4)")


class TestAicOrder:
    def test_a_later_order_wins_only_by_more_than_the_margin(self):
        # with one observation and no parameters each AIC is ln(rss)
        assert _aic_order([1.0, math.exp(-0.5e-12)], 1, [0, 0]) == 0
        assert _aic_order([1.0, math.exp(-2e-12)], 1, [0, 0]) == 1

    def test_the_first_of_equal_minima_wins_past_a_higher_order(self):
        assert _aic_order([1.0, math.e, 1.0], 1, [0, 0, 0]) == 0
        assert _aic_order([1.0, math.e, 1.0 / math.e, 1.0 / math.e], 1, [0, 0, 0, 0]) == 2


def test_f_sf_against_known_values():
    # F(2, 10): P(F > 4.102821) ~= 0.05
    assert f_sf(4.102821, 2, 10) == pytest.approx(0.05, abs=1e-4)
    assert f_sf(0.0, 3, 7) == 1.0


# Numerator dofs 1..24 against residual dofs up to 10,000, among them the screens' own: a
# seed-7 news_volume district (53), news_volume pooled (1,028), the acceptance bundle pooled
# (4,508) and an 80-district, 8-country bundle pooled (9,028).
F_SF_QS = range(1, 25)
F_SF_DOFS = (1, 2, 3, 5, 10, 53, 100, 287, 1_028, 4_508, 9_028, 9_068, 10_000)
F_SF_FS = np.logspace(-8, 4, 121)  # p from about 1 down past 1e-300


class TestFSf:
    def test_matches_scipy_betainc(self):
        special = pytest.importorskip("scipy.special")
        for q in F_SF_QS:
            for dof in F_SF_DOFS:
                ours = [f_sf(float(f), q, dof) for f in F_SF_FS]
                ref = special.betainc(dof / 2, q / 2, dof / (dof + q * F_SF_FS))
                # atol acts only below 1e-280, where betainc itself loses digits: at
                # p = 1.8e-295 it is 4e-7 off the exact value, f_sf 5e-13
                np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-290,
                                           err_msg=f"q={q} dof={dof}")

    def test_log_beta_matches_the_product_form(self):
        # B(a, n) = (n-1)! / (a (a+1) ... (a+n-1)) for whole n. ln Γ(5000) rounds at about
        # 4e-12, so the three-lgamma form misses this by 2.5e-11 and f_sf's rtol with it
        for a in (0.5, 1.0, 7.5, 29.5, 30.0, 143.5, 514.0, 2_254.0, 4_534.0, 5_000.0, 12_345.5):
            for n in range(1, 13):
                exact = math.lgamma(n) - math.fsum(math.log(a + k) for k in range(n))
                assert _log_beta(a, n) == pytest.approx(exact, rel=0, abs=1e-13), (a, n)
                assert _log_beta(n, a) == _log_beta(a, n)

    def test_zero_f_has_tail_one(self):
        assert [f_sf(0.0, q, dof) for q in (1, 24) for dof in (1, 10_000)] == [1.0] * 4

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_f_raises(self, f):
        with pytest.raises(NumericalError, match="non-finite F statistic"):
            f_sf(f, 2, 50)

    def test_huge_f_underflows_to_zero_or_subnormal(self):
        for f in (1e10, 1e300, sys.float_info.max):
            for q in (1, 24):
                for dof in (100, 10_000):
                    p = f_sf(f, q, dof)
                    assert 0.0 <= p < sys.float_info.min, (f, q, dof, p)

    def test_in_the_unit_interval_and_non_increasing_in_f(self):
        for q in F_SF_QS:
            for dof in F_SF_DOFS:
                p = np.array([f_sf(float(f), q, dof) for f in F_SF_FS])
                assert ((p >= 0.0) & (p <= 1.0)).all(), (q, dof)
                assert (np.diff(p) <= 0.0).all(), (q, dof)

    def test_an_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(tsstats, "_BETA_FRACTION_TERMS", 2)
        with pytest.raises(NumericalError) as info:
            f_sf(1.5, 3, 4_508)
        assert str(info.value) == ("f_sf(1.5, 3, 4508): the incomplete-beta continued "
                                   "fraction did not converge in 2 terms")


class TestAdf:
    def test_white_noise_stationary(self):
        rng = np.random.default_rng(4)
        result = adf_test(rng.normal(0, 1, 200))
        assert result.stationary
        assert result.statistic < result.critical_value

    def test_random_walk_not_stationary(self):
        rng = np.random.default_rng(5)
        walk = np.cumsum(rng.normal(0, 1, 200))
        assert not adf_test(walk).stationary

    def test_constant_series_errors(self):
        with pytest.raises(NumericalError, match="degenerate"):
            adf_test(np.ones(50))

    def test_too_short_errors(self):
        with pytest.raises(DataError):
            adf_test(np.arange(10.0), max_lag=4)


class TestDifferencing:
    def test_stationary_unchanged(self):
        rng = np.random.default_rng(6)
        s = rng.normal(0, 1, 150)
        out, d = difference_until_stationary(s)
        assert d == 0
        assert np.array_equal(out, s)

    def test_random_walk_needs_one(self):
        rng = np.random.default_rng(7)
        s = np.cumsum(rng.normal(0, 1, 200))
        out, d = difference_until_stationary(s)
        assert d == 1
        assert np.array_equal(out, np.diff(s))

    def test_linear_trend_removed(self):
        rng = np.random.default_rng(8)
        s = 0.5 * np.arange(200) + rng.normal(0, 1, 200)
        _, d = difference_until_stationary(s)
        assert d == 1

    def test_failure_carries_statistic(self):
        rng = np.random.default_rng(9)
        doubly = np.cumsum(np.cumsum(rng.normal(0, 1, 300)))
        with pytest.raises(NumericalError, match="ADF statistic"):
            difference_until_stationary(doubly, max_d=0)

    def test_d_zero_iff_adf_passes(self):
        rng = np.random.default_rng(10)
        for values in (rng.normal(0, 1, 150), np.cumsum(rng.normal(0, 1, 150))):
            passes = adf_test(values).stationary
            _, d = difference_until_stationary(values)
            assert (d == 0) == passes


def granger_one(y, x, n_max):
    """``panel_granger`` on one district: the single-pair test."""
    return panel_granger({"d": y}, {"d": x}, n_max=n_max)


def lag_coefficients(y, x, n):
    """The x-lag coefficients b_1..b_n of the order-n fit ``[1, y_1..y_n, x_1..x_n]``."""
    return lstsq_fit(*adl_design(y, x, n, n))[0][1 + n :]


class TestLagSelection:
    def simulate_lag2(self, rng, T=200, noise=0.01, effect=0.8):
        x = rng.normal(0, 1, T)
        y = np.zeros(T)
        for t in range(2, T):
            y[t] = 0.5 * y[t - 1] + effect * x[t - 2] + rng.normal(0, noise)
        return y, x

    def test_planted_lag_two(self):
        rng = np.random.default_rng(11)
        y, x = self.simulate_lag2(rng)
        n = granger_one(y, x, n_max=5).n_lags
        assert n >= 2
        assert lag_coefficients(y, x, n)[1] == pytest.approx(0.8, abs=0.05)

    def test_pure_noise_x_small_coefficients(self):
        rng = np.random.default_rng(12)
        T = 400
        x = rng.normal(0, 1, T)
        y = np.zeros(T)
        for t in range(1, T):
            y[t] = 0.5 * y[t - 1] + rng.normal(0, 1)
        n = granger_one(y, x, n_max=4).n_lags
        assert np.abs(lag_coefficients(y, x, n)).max() < 0.2

    def test_single_candidate(self):
        rng = np.random.default_rng(13)
        y, x = rng.normal(0, 1, 50), rng.normal(0, 1, 50)
        assert granger_one(y, x, n_max=1).n_lags == 1

    def test_aic_recomputable_from_rss(self):
        rng = np.random.default_rng(14)
        y, x = self.simulate_lag2(rng, noise=0.5)
        for n in range(1, 5):
            X, resp = adl_design(y, x, n, n)
            rss = lstsq_fit(X, resp)[1]
            expected = resp.size * math.log(max(rss, 1e-300) / resp.size) + 2 * (2 * n + 1)
            assert _aic(rss, resp.size, 2 * n + 1) == expected

    def test_insufficient_length_errors(self):
        # 9 months leave 3 rows from t0 = 6, too few for order 1's 3 parameters
        rng = np.random.default_rng(15)
        with pytest.raises(DataError, match="too short for any candidate lag order"):
            granger_one(rng.normal(0, 1, 9), rng.normal(0, 1, 9), n_max=6)


class TestGranger:
    def test_planted_causality_detected(self):
        rng = np.random.default_rng(15)
        T = 300
        x = rng.normal(0, 1, T)
        y = np.zeros(T)
        for t in range(2, T):
            y[t] = 0.5 * y[t - 1] + 0.8 * x[t - 2] + rng.normal(0, 1)
        result = granger_one(y, x, n_max=4)
        assert result.decision and result.p_value < 0.01

    def test_null_rejection_rate_near_level(self):
        rng = np.random.default_rng(16)
        rejections = 0
        reps = 100
        for _ in range(reps):
            T = 150
            x = rng.normal(0, 1, T)
            y = np.zeros(T)
            for t in range(1, T):
                y[t] = 0.5 * y[t - 1] + rng.normal(0, 1)
            rejections += granger_one(y, x, n_max=3).decision
        assert rejections / reps <= 0.06

    def test_perfect_predictor_huge_f(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, 200)
        y = np.roll(x, 1)  # x leads y by one step exactly
        y[0] = 0.0
        y = y + rng.normal(0, 1e-6, 200)
        result = granger_one(y, x, n_max=1)
        assert result.decision and result.f_stat > 1e6

    def test_affine_invariance_of_f(self):
        rng = np.random.default_rng(18)
        T = 200
        x = rng.normal(0, 1, T)
        y = np.zeros(T)
        for t in range(2, T):
            y[t] = 0.4 * y[t - 1] + 0.5 * x[t - 1] + rng.normal(0, 1)
        r1 = granger_one(y, x, n_max=2)
        r2 = granger_one(y, 7.0 - 3.0 * x, n_max=2)
        assert r1.n_lags == r2.n_lags
        assert r1.f_stat == pytest.approx(r2.f_stat, rel=1e-8)

    def test_panel_granger_pools_districts(self):
        rng = np.random.default_rng(19)
        y_by, x_by = {}, {}
        for d in range(6):
            T = 80
            x = rng.normal(0, 1, T)
            y = np.zeros(T)
            for t in range(1, T):
                y[t] = 0.3 * y[t - 1] + 0.6 * x[t - 1] + rng.normal(0, 1)
            y_by[f"d{d}"] = y
            x_by[f"d{d}"] = x
        result = panel_granger(y_by, x_by, n_max=3)
        assert result.decision


class TestScreening:
    def build_panel(self, rng, districts=6, T=120, cause=True):
        """District x month arrays of the phase and of a factor that leads it by 3 months."""
        ipc, factors = np.zeros((districts, T)), np.zeros((districts, T))
        for d in range(districts):
            z = (rng.random(T) < 0.1).astype(float)
            x = 0.02 + 0.1 * z + rng.normal(0, 0.005, T)
            factors[d] = np.clip(x, 0, 1)
            for t in range(3, T):
                ipc[d, t] = 2.0 + (1.5 * z[t - 3] if cause else 0.0) + rng.normal(0, 0.2)
        return ipc, factors

    def test_planted_feature_retained(self):
        rng = np.random.default_rng(20)
        ipc, factors = self.build_panel(rng)
        retained, report = select_features(["planted"], ipc, {"planted": factors})
        assert "planted" in retained
        assert report[0].decision

    def test_all_zero_rejected(self):
        rng = np.random.default_rng(21)
        ipc, _ = self.build_panel(rng)
        retained, report = select_features(["dead"], ipc, {"dead": np.zeros(ipc.shape)})
        assert retained == {}
        assert report[0].reason == "all-zero factor"

    def test_transformed_factor_stored(self):
        rng = np.random.default_rng(22)
        ipc, factors = self.build_panel(rng)
        # a trending factor forces differencing; the stored series must carry d
        trended = np.array([np.cumsum(np.abs(rng.normal(0.2, 0.05, 120))) / 100 + s
                            for s in factors])
        retained, report = select_features(["trendy"], ipc, {"trendy": trended},
                                           max_d=2)
        if "trendy" in retained:
            assert set(retained["trendy"]) == {"diff_order", "result"}
            assert retained["trendy"]["diff_order"] == report[0].diff_order
            assert retained["trendy"]["result"].x_diff_order == report[0].diff_order

    def test_per_district_mode_reaches_same_conclusion(self):
        rng = np.random.default_rng(26)
        ipc, factors = self.build_panel(rng, districts=6, T=140)
        retained, report = select_features(["planted"], ipc, {"planted": factors},
                                           mode="per-district")
        assert "planted" in retained
        with pytest.raises(DataError):
            select_features([], np.zeros((0, 0)), {}, mode="sideways")

    def test_per_district_row_names_its_vote(self):
        # One causal district among five without a link: its F and p fill the row,
        # yet the vote fails, and the reason says so.
        rng = np.random.default_rng(28)
        ipc, factors = self.build_panel(rng, districts=6, T=140, cause=False)
        ipc[:1], factors[:1] = self.build_panel(rng, districts=1, T=140)
        retained, report = select_features(["one"], ipc, {"one": factors},
                                           mode="per-district")
        assert retained == {}
        assert report[0].p_value < 0.01 and not report[0].decision
        assert report[0].reason == "1 of 6 districts significant"

    def test_per_district_vote_counts_an_untestable_district_as_not_significant(self):
        # A feature never mentioned in one district has a constant factor there, so
        # that district's own test is rank-deficient; it votes no, the other five yes.
        rng = np.random.default_rng(26)
        ipc, factors = self.build_panel(rng, districts=6, T=140)
        factors[2] = 0.0
        retained, report = select_features(["planted"], ipc, {"planted": factors},
                                           mode="per-district")
        assert "planted" in retained
        assert report[0].reason == "5 of 6 districts significant"

    def test_per_district_vote_is_not_decided_by_one_testable_district(self):
        # Significant in its one testable district and constant in the other five:
        # the five untestable districts vote no, so one test cannot keep the feature.
        rng = np.random.default_rng(26)
        ipc, factors = self.build_panel(rng, districts=6, T=140)
        factors[1:] = 0.0
        retained, report = select_features(["lonely"], ipc, {"lonely": factors},
                                           mode="per-district")
        assert report[0].p_value < 0.01
        assert retained == {} and not report[0].decision
        assert report[0].reason == "1 of 6 districts significant"

    def test_per_district_row_fails_when_every_district_fails(self):
        # A factor equal to the phase repeats the phase's lags in every district.
        rng = np.random.default_rng(29)
        ipc, _ = self.build_panel(rng, districts=3, T=100)
        retained, report = select_features(["echo"], ipc, {"echo": ipc.copy()},
                                           mode="per-district")
        assert retained == {}
        assert report[0].reason.startswith(
            "test failed: rank-deficient design, collinear columns:")

    def test_rows_align_on_the_months_both_series_cover(self):
        rng = np.random.default_rng(27)
        ipc, factors = self.build_panel(rng, T=130)
        ipc[:, :2] = np.nan                      # the phase starts later
        factors[:, :4] = factors[:, -6:] = np.nan  # the factor covers fewer months
        ipc[2] = np.nan                           # a location without the phase
        trimmed = select_features(["planted"], np.delete(ipc, 2, axis=0)[:, 4:-6],
                                  {"planted": np.delete(factors, 2, axis=0)[:, 4:-6]})
        assert select_features(["planted"], ipc, {"planted": factors}) == trimmed

    def test_pure_noise_set_retains_about_one_percent(self):
        rng = np.random.default_rng(25)
        districts = [f"d{d:02d}" for d in range(6)]
        T = 100
        ipc = np.zeros((len(districts), T))
        for y in ipc:
            for t in range(1, T):
                y[t] = 2.0 + 0.3 * (y[t - 1] - 2.0) + rng.normal(0, 0.3)
        factors = {
            f"noise{i:03d}": np.array([np.clip(rng.normal(0.03, 0.01, T), 0, 1)
                                       for _ in districts])
            for i in range(100)
        }
        retained, report = select_features(sorted(factors), ipc, factors, n_max=3)
        assert len(report) == 100
        assert len(retained) <= 5  # ~1 expected at the 1% level


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_equals_the_loop_over_tied_runs_bit_for_bit(self, values):
        # the sampled values force ties, and -0.0 ties with 0.0
        v = np.array(values)
        assert _average_ranks(v).tobytes() == average_ranks_loop(v).tobytes()

    def test_ties_share_their_mean_rank(self):
        got = _average_ranks(np.array([3.0, -0.0, 1.0, 0.0, 3.0, 3.0]))
        assert got.tolist() == [5.0, 1.5, 3.0, 1.5, 5.0, 5.0]


class TestSpearman:
    def test_identity(self):
        a = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert spearman(a, a) == pytest.approx(1.0)

    def test_reversal(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert spearman(a, a[::-1]) == pytest.approx(-1.0)

    def test_ties_frozen_oracle(self):
        # hand ranking: a -> [1, 2.5, 2.5, 4], b -> [1, 2, 3, 4];
        # Pearson of those ranks is sqrt(4.5 / 5).
        a = [1.0, 2.0, 2.0, 3.0]
        b = [10.0, 20.0, 30.0, 40.0]
        assert spearman(a, b) == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(24)
        a = rng.normal(0, 1, 30)
        b = np.exp(a)  # strictly monotone
        assert spearman(a, b) == pytest.approx(1.0)

    def test_constant_vector_errors(self):
        with pytest.raises(NumericalError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(DataError):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(DataError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])


# ---- oracles: the per-order refits that the nested searches replace


def lstsq_fit(X, y):
    """Coefficients, RSS and (X'X)^-1 from lstsq and the normal equations, after the rank rule."""
    _r_factor(np.column_stack([X, y]), [X.shape[1]])
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return beta, float(resid @ resid), np.linalg.inv(X.T @ X)


def assert_matches(got, expected, inexact):
    """Equal field by field; the fields named in ``inexact`` to a relative 1e-9.

    The oracles fit by lstsq and the package reads one triangular factor, so
    the statistics agree only up to rounding.
    """
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert a == (pytest.approx(b, rel=1e-9) if field.name in inexact else b), field.name


ADF_INEXACT = {"statistic"}
GRANGER_INEXACT = {"f_stat", "p_value"}


def oracle_adf(s, max_lag=None, level=0.05):
    x = np.asarray(s, dtype=float)
    T = x.size
    if max_lag is None:
        max_lag = min(int(math.ceil(12.0 * (T / 100.0) ** 0.25)), max(T - 13, 0))
    dy = np.diff(x)

    def regression(k, j0):
        cols = [np.ones(dy.size - j0), x[j0 : x.size - 1]]
        for i in range(1, k + 1):
            cols.append(dy[j0 - i : dy.size - i])
        return lstsq_fit(np.column_stack(cols), dy[j0:])

    best_k, best_aic = 0, np.inf
    for k in range(max_lag + 1):
        a = _aic(regression(k, max_lag)[1], dy.size - max_lag, k + 2)
        if a < best_aic - 1e-12:
            best_aic, best_k = a, k
    beta, rss, xtx_inv = regression(best_k, best_k)
    nobs = dy.size - best_k
    stat = float(beta[1] / math.sqrt(rss / (nobs - best_k - 2) * xtx_inv[1, 1]))
    cv = _adf_critical(level, nobs)
    return AdfResult(statistic=stat, stationary=stat < cv, lag=best_k, nobs=nobs,
                     critical_value=cv, level=level)


def oracle_select_lags(y, x, n_max):
    """The AIC order of one (y, x) pair, every order fit from t0 = n_max."""
    best_n, best_aic = None, np.inf
    for n in range(1, n_max + 1):
        X, resp = adl_design(y, x, n, n_max)
        a = _aic(lstsq_fit(X, resp)[1], resp.size, 2 * n + 1)
        if a < best_aic - 1e-12:
            best_aic, best_n = a, n
    return best_n


def oracle_panel_granger(y_by, x_by, n_max=6, level=0.01):
    best_n, best_aic = None, np.inf
    for n in range(1, n_max + 1):
        X, resp, n_d = panel_stack_loop(y_by, x_by, n, n_max)
        if resp.size <= n_d + 2 * n:
            continue
        a = _aic(lstsq_fit(X, resp)[1], resp.size, n_d + 2 * n)
        if a < best_aic - 1e-12:
            best_aic, best_n = a, n
    if best_n is None:
        raise DataError("panel too short for any candidate lag order")
    n = best_n
    X, resp, n_d = panel_stack_loop(y_by, x_by, n, n)
    rss_u = lstsq_fit(X, resp)[1]
    rss_r = lstsq_fit(X[:, : n_d + n], resp)[1]
    return _granger_f(rss_r, rss_u, n, resp.size - n_d - 2 * n, level, n, 0)


def error_text(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (DataError, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return None


def random_series(rng, kind, T):
    e = rng.normal(0, 1, T)
    return np.cumsum(e) if kind == "walk" else e


class TestNestedSearch:
    def test_prefix_rss_equals_ols(self):
        rng = np.random.default_rng(30)
        X = np.column_stack([np.ones(60), rng.normal(0, 1, (60, 7))])
        y = X[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.3, 60)
        rss = _nested_rss(np.column_stack([X, y]), range(1, 9))
        for k, r in zip(range(1, 9), rss):
            assert r == pytest.approx(lstsq_fit(X[:, :k], y)[1], rel=1e-10)

    def test_duplicated_column_raises_as_ols(self):
        rng = np.random.default_rng(31)
        X = rng.normal(0, 1, (40, 5))
        X[:, 3] = X[:, 1]
        y = rng.normal(0, 1, 40)
        # prefixes before the duplicate pass; the first that holds it fails, naming it
        M = np.column_stack([X, y])
        assert len(_nested_rss(M, [1, 2, 3])) == 3
        assert error_text(_nested_rss, M, [2, 3, 4, 5]) == (
            "NumericalError", "rank-deficient design, collinear columns: [3]")

    def test_too_few_rows_raises_as_ols(self):
        assert error_text(_nested_rss, np.ones((4, 6)), [4]) == (
            "DataError", "need more observations (4) than parameters (4)")

    @pytest.mark.parametrize("kind", ["walk", "noise"])
    def test_adf_matches_oracle(self, kind):
        rng = np.random.default_rng(32 if kind == "walk" else 33)
        for _ in range(40):
            x = random_series(rng, kind, int(rng.integers(25, 150)))
            assert_matches(adf_test(x), oracle_adf(x), ADF_INEXACT)
            assert_matches(adf_test(x, max_lag=3, level=0.01),
                           oracle_adf(x, max_lag=3, level=0.01), ADF_INEXACT)

    @pytest.mark.parametrize("kind", ["walk", "noise"])
    def test_select_lags_matches_oracle(self, kind):
        # single districts, the inputs of per-district screening
        rng = np.random.default_rng(34 if kind == "walk" else 35)
        for _ in range(40):
            T = int(rng.integers(20, 120))
            x = random_series(rng, kind, T)
            y = np.zeros(T)
            for t in range(2, T):
                y[t] = 0.5 * y[t - 1] + 0.3 * x[t - 2] + rng.normal(0, 1)
            n_max = int(rng.integers(1, 6))
            result = granger_one(y, x, n_max)
            assert result.n_lags == oracle_select_lags(y, x, n_max)
            assert_matches(result, oracle_panel_granger({"d": y}, {"d": x}, n_max),
                           GRANGER_INEXACT)

    @pytest.mark.parametrize("kind", ["walk", "noise"])
    def test_panel_granger_matches_oracle(self, kind):
        rng = np.random.default_rng(36 if kind == "walk" else 37)
        for _ in range(20):
            districts = int(rng.integers(1, 6))
            y_by, x_by = {}, {}
            for d in range(districts):
                T = int(rng.integers(20, 50))
                x = random_series(rng, kind, T)
                y = np.zeros(T)
                for t in range(1, T):
                    y[t] = 0.4 * y[t - 1] + 0.5 * x[t - 1] + rng.normal(0, 1)
                y_by[f"d{d}"], x_by[f"d{d}"] = y, x
            n_max = int(rng.integers(1, 7))
            assert_matches(panel_granger(y_by, x_by, n_max),
                           oracle_panel_granger(y_by, x_by, n_max), GRANGER_INEXACT)

    def test_constant_factor_district_raises_as_oracle(self):
        rng = np.random.default_rng(38)
        y_by = {"d0": rng.normal(0, 1, 40)}
        x_by = {"d0": np.full(40, 0.25)}
        expected = error_text(oracle_panel_granger, y_by, x_by, 3)
        assert expected is not None and expected[0] == "NumericalError"
        assert error_text(panel_granger, y_by, x_by, 3) == expected

    def test_short_panel_skips_the_widest_orders(self):
        # 2 districts x 7 rows from t0 = 8 fit order n only if 14 > 2 + 2n, so
        # orders 6..8 are skipped, as the oracle skips them.
        rng = np.random.default_rng(39)
        y_by = {f"d{d}": rng.normal(0, 1, 15) for d in range(2)}
        x_by = {f"d{d}": rng.normal(0, 1, 15) for d in range(2)}
        assert_matches(panel_granger(y_by, x_by, 8), oracle_panel_granger(y_by, x_by, 8),
                       GRANGER_INEXACT)
        # 3 rows from t0 = 3 fit no order: 3 > 1 + 2n fails at n = 1
        tiny_y = {"d0": rng.normal(0, 1, 6)}
        tiny_x = {"d0": rng.normal(0, 1, 6)}
        assert error_text(panel_granger, tiny_y, tiny_x, 3) == error_text(
            oracle_panel_granger, tiny_y, tiny_x, 3) == (
            "DataError", "panel too short for any candidate lag order")


# ---- the stacked paths against their one-series loops, bit for bit


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (DataError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def as_outcome(result):
    return (type(result).__name__, str(result)) if isinstance(result, Exception) else result


def mixed_series(rng, T):
    """One series of each kind the screen meets, and four that make ADF raise."""
    e = rng.normal(0, 1, T)
    trend = 0.3 * np.arange(T)
    return np.array([
        np.cumsum(e),                                    # random walk
        e,                                               # noise
        trend + np.cumsum(rng.normal(0, 0.1, T)),        # trending
        (rng.random(T) < 0.08).astype(float),            # sparse 0/1
        np.round(np.cumsum(e) / 3),                      # rounded
        np.full(T, 0.25),                                # constant: degenerate series
        np.diff(np.append(trend, T * 0.3)),              # a trend once differenced: constant
        trend,                                           # constant differences: rank-deficient
    ])


class TestStackedAdf:
    @pytest.mark.parametrize("T", [14, 25, 60, 66, 97, 130])
    def test_each_row_equals_the_loop_oracle(self, T):
        rng = np.random.default_rng(40 + T)
        X = mixed_series(rng, T)
        for max_lag, level in [(None, 0.05), (None, 0.01), (2, 0.10)]:
            got = [as_outcome(r) for r in _adf_stack(X, max_lag, level)]
            assert got == [outcome(adf_loop, x, max_lag, level) for x in X]
        assert {r[1].split(":")[0] for r in got if isinstance(r, tuple)} == {
            "degenerate series", "rank-deficient design, collinear columns"}

    def test_a_short_stack_raises_for_every_row(self):
        rng = np.random.default_rng(41)
        X = mixed_series(rng, 16)
        got = [as_outcome(r) for r in _adf_stack(X, max_lag=5)]
        assert got == [outcome(adf_loop, x, 5) for x in X] == [
            ("DataError", "series of length 16 too short for ADF with max_lag=5")] * len(X)

    def test_random_rows_equal_the_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            T, rows = int(rng.integers(14, 131)), int(rng.integers(1, 20))
            X = rng.normal(0, 1, (rows, T))
            X[rng.random(rows) < 0.3] = np.cumsum(X[:1], axis=1)
            X[rng.random(rows) < 0.2] = 1.0
            assert [as_outcome(r) for r in _adf_stack(X)] == [outcome(adf_loop, x) for x in X]

    def test_adf_test_is_the_one_row_case(self):
        rng = np.random.default_rng(43)
        for x in mixed_series(rng, 70):
            assert outcome(adf_test, x) == outcome(adf_loop, x)
            assert outcome(adf_test, x, 4, 0.01) == outcome(adf_loop, x, 4, 0.01)

    def test_vote_equals_the_loop_vote(self):
        # Districts of one feature may cover different months, so a vote mixes lengths.
        rng = np.random.default_rng(44)
        for _ in range(25):
            series = []
            for _ in range(int(rng.integers(1, 12))):
                T = int(rng.choice([30, 45, 66]))
                kind = int(rng.integers(0, 4))
                series.append(mixed_series(rng, T)[kind] if kind < 3 else
                              0.02 * np.arange(T) + rng.normal(0, 1e-3, T))
            for max_d, level in [(2, 0.05), (1, 0.01)]:
                assert _panel_diff_orders([series], max_d, level) == \
                    [panel_diff_order_loop(series, max_d, level)]
        assert _panel_diff_orders([[np.ones(40)]], 2, 0.05) == [None]


    def test_the_all_feature_vote_equals_one_stack_per_feature(self, monkeypatch):
        # Features whose districts cover different months, with constant series mixed in,
        # and votes decided at orders 0, 1 and 2 or not at all; chunks of 5 series split
        # the stacks of one length between features.
        def per_feature(series, max_d, level):
            """The vote one feature at a time: one ``_adf_stack`` per series length."""
            by_length = {}
            for s in series:
                if np.ptp(s) > 0.0:
                    by_length.setdefault(s.size, []).append(s)
            stacks = [np.array(group) for group in by_length.values()]
            for d in range(max_d + 1):
                votes = [r.stationary for X in stacks for r in _adf_stack(X, level=level)
                         if isinstance(r, AdfResult)]
                if votes and sum(votes) * 2 >= len(votes):
                    return d
                stacks = [np.diff(X, axis=1) for X in stacks]
            return None

        rng = np.random.default_rng(45)
        integrate = {0: lambda e: e, 1: np.cumsum,
                     2: lambda e: np.cumsum(np.cumsum(e)),
                     None: lambda e: np.cumsum(np.cumsum(np.cumsum(e)))}
        features = []
        for kind in [0, 1, 2, None] * 3:
            series = [integrate[kind](rng.normal(0, 1, int(rng.choice([40, 55, 72]))))
                      for _ in range(int(rng.integers(2, 7)))]
            features.append(series + [np.full(55, 0.5)] * int(rng.integers(0, 2)))
        features += [[np.zeros(72), np.full(40, 3.0)], []]  # all constant, and no series
        want = [per_feature(series, 2, 0.05) for series in features]
        assert {0, 1, 2, None} <= set(want)
        assert _panel_diff_orders(features, 2, 0.05) == want
        monkeypatch.setattr(tsstats, "_ADF_CHUNK", 5)
        assert _panel_diff_orders(features, 2, 0.05) == want
        assert _panel_diff_orders(features, 1, 0.01) == [per_feature(s, 1, 0.01)
                                                         for s in features]


class TestPanelStack:
    def panel(self, rng):
        lengths = [40, 25, 7, 33, 12]  # 7 is too short for t0 = 8
        y_by = {f"d{i}": rng.normal(0, 1, T) for i, T in enumerate(lengths)}
        x_by = {f"d{i}": rng.normal(0, 1, T) for i, T in enumerate(lengths)}
        x_by["d3"] = x_by["d3"][:-1]  # ragged: skipped
        return y_by, x_by

    @pytest.mark.parametrize("n, t0", [(1, 1), (3, 3), (3, 8), (6, 8)])
    def test_equals_the_column_stack_form(self, n, t0):
        y_by, x_by = self.panel(np.random.default_rng(45))
        X, resp, n_d = panel_stack_loop(y_by, x_by, n, t0)
        expected = np.column_stack([X, resp])
        M, m_d = _panel_stack(y_by, x_by, n, t0)
        assert m_d == n_d and M.shape == expected.shape and (M == expected).all()
        pairs = [n_d + c for i in range(n) for c in (i, n + i)]
        M, _ = _panel_stack(y_by, x_by, n, t0, paired=True)
        assert (M == expected[:, [*range(n_d), *pairs, -1]]).all()

    def test_no_usable_district_raises(self):
        with pytest.raises(DataError, match="no district has enough aligned observations"):
            _panel_stack({"d0": np.ones(5)}, {"d0": np.ones(5)}, 2, 5)


class TestScreeningWork:
    def test_qr_calls_grow_with_features_not_districts(self, monkeypatch):
        # Per vote round one QR factors every feature's district ADF designs,
        # and one more each lag order chosen; each pooled Granger test adds two.
        panel = make_panel(n_districts=24, months=72, features=("alpha", "beta"), seed=3)
        shapes = []
        real_qr = np.linalg.qr

        def counted_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        retained, report = select_features(panel.feature_order, panel.ipc, panel.factors)
        assert [row.diff_order for row in report] == [0, 0]
        max_lag = 11  # the default for 72 months
        assert len(shapes) <= 1 + (max_lag + 1) + 2 * len(report) < 2 * 24 * len(report)
        assert sum(len(s) == 3 and s[0] == 24 * len(report) for s in shapes) == 1
