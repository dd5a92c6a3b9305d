"""Time-series statistics for factor screening.

Ordinary least squares with rank diagnostics, augmented Dickey-Fuller
stationarity testing with AIC lag selection, distributed-lag fitting,
Granger-causality F-tests (single pair and pooled district panel), and
Spearman rank correlation.

All information criteria use AIC = T * ln(RSS / T) + 2 * p so that reported
values can be recomputed exactly from the reported residual sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DataError, NumericalError
from .series import Series

# MacKinnon (2010) response-surface coefficients for the constant-only
# Dickey-Fuller regression: cv = b0 + b1/T + b2/T^2 + b3/T^3.
_ADF_CRIT_CONST = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.04),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution via the regularized beta function."""
    if not np.isfinite(f):
        raise NumericalError("non-finite F statistic")
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return float(special.betainc(d2 / 2.0, d1 / 2.0, x))


@dataclass(frozen=True)
class OLSFit:
    beta: np.ndarray
    rss: float
    cov: np.ndarray
    nobs: int

    @property
    def dof(self) -> int:
        return self.nobs - self.beta.size


def ols(X, y, rcond: float = 1e-10) -> OLSFit:
    """Least squares via QR decomposition.

    Raises NumericalError naming (by index, also in its ``columns``) the
    columns that are numerically collinear with earlier ones.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise DataError("design matrix must be 2-d")
    T, p = X.shape
    if y.size != T:
        raise DataError(f"response length {y.size} != design rows {T}")
    if T <= p:
        raise DataError(f"need more observations ({T}) than parameters ({p})")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    scale = diag.max() if diag.size else 0.0
    bad = [int(i) for i in np.nonzero(diag <= rcond * max(scale, 1e-300))[0]]
    if bad:
        raise NumericalError(f"rank-deficient design, collinear columns: {bad}", bad)
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    rinv = np.linalg.solve(R, np.eye(p))
    sigma2 = rss / (T - p)
    cov = sigma2 * (rinv @ rinv.T)
    return OLSFit(beta=beta, rss=rss, cov=cov, nobs=T)


def _nested_rss(X, y, sizes, rcond: float = 1e-10) -> list[float]:
    """RSS of the least-squares fit of ``y`` on each column prefix ``X[:, :k]``.

    One QR of ``[X, y]`` serves every prefix in ``sizes`` (ascending): the
    residual of the fit on the first k columns is the part of ``y`` beyond the
    first k rows of R, so RSS_k is the sum of squares of the y-column of R
    from row k down. Each prefix gets ``ols``'s checks, in order, and the
    first one that fails raises the error ``ols`` would raise on it.
    """
    X = np.asarray(X, dtype=float)
    T = X.shape[0]
    R = np.linalg.qr(np.column_stack([X, y]), mode="r")
    diag = np.abs(np.diag(R))
    tail = np.cumsum(R[::-1, -1] ** 2)[::-1]  # tail[k] = sum of R[k:, -1] ** 2
    out = []
    for k in sizes:
        if T <= k:
            raise DataError(f"need more observations ({T}) than parameters ({k})")
        d = diag[:k]
        bad = [int(i) for i in np.nonzero(d <= rcond * max(d.max(), 1e-300))[0]]
        if bad:
            raise NumericalError(f"rank-deficient design, collinear columns: {bad}", bad)
        out.append(float(tail[k]))
    return out


def _aic(rss: float, nobs: int, n_params: int) -> float:
    return nobs * math.log(max(rss, 1e-300) / nobs) + 2.0 * n_params


def _as_values(s) -> np.ndarray:
    if isinstance(s, Series):
        return np.asarray(s.values, dtype=float)
    return np.asarray(s, dtype=float).ravel()


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    stationary: bool
    lag: int
    nobs: int
    critical_value: float
    level: float


def _adf_critical(level: float, nobs: int) -> float:
    if level not in _ADF_CRIT_CONST:
        raise DataError(f"unsupported ADF level {level}; use 0.01, 0.05 or 0.10")
    b = _ADF_CRIT_CONST[level]
    return b[0] + b[1] / nobs + b[2] / nobs**2 + b[3] / nobs**3


def adf_test(s, max_lag: int | None = None, level: float = 0.05) -> AdfResult:
    """Augmented Dickey-Fuller test with constant, lag order selected by AIC.

    The statistic is the t-ratio on the lagged level; the series is flagged
    stationary when it falls below the MacKinnon critical value at ``level``.
    """
    x = _as_values(s)
    T = x.size
    if max_lag is None:
        max_lag = min(int(math.ceil(12.0 * (T / 100.0) ** 0.25)), max(T - 13, 0))
    if T < 12 + max_lag:
        raise DataError(f"series of length {T} too short for ADF with max_lag={max_lag}")
    if np.ptp(x) == 0.0:
        raise NumericalError("degenerate series: constant input to ADF test")
    dy = np.diff(x)

    def design(k: int, j0: int):
        cols = [np.ones(dy.size - j0), x[j0 : x.size - 1]]
        for i in range(1, k + 1):
            cols.append(dy[j0 - i : dy.size - i])
        return np.column_stack(cols), dy[j0:]

    # Lag order k is the first k + 2 columns of the max_lag design.
    X, resp = design(max_lag, max_lag)
    rss = _nested_rss(X, resp, range(2, max_lag + 3))
    best_k, best_aic = 0, np.inf
    for k in range(max_lag + 1):
        a = _aic(rss[k], resp.size, k + 2)
        if a < best_aic - 1e-12:
            best_aic, best_k = a, k
    fit = ols(*design(best_k, best_k))
    se = math.sqrt(max(fit.cov[1, 1], 0.0))
    if se == 0.0:
        raise NumericalError("degenerate ADF regression")
    stat = float(fit.beta[1] / se)
    cv = _adf_critical(level, fit.nobs)
    return AdfResult(statistic=stat, stationary=stat < cv, lag=best_k,
                     nobs=fit.nobs, critical_value=cv, level=level)


def difference_until_stationary(s, max_d: int = 2, max_lag: int | None = None,
                                level: float = 0.05):
    """Smallest differencing order at which the series passes the ADF test."""
    current = s if isinstance(s, Series) else Series(0, _as_values(s))
    last = None
    for d in range(max_d + 1):
        result = adf_test(current, max_lag=max_lag, level=level)
        last = result
        if result.stationary:
            return current, d
        if d < max_d:
            current = current.diff()
    raise NumericalError(
        f"series still non-stationary after {max_d} differences "
        f"(last ADF statistic {last.statistic:.4f} vs {last.critical_value:.4f})"
    )


@dataclass(frozen=True)
class ADLFit:
    """One distributed-lag regression y_t ~ const + y-lags + x-lags."""

    coefficients: np.ndarray  # [a0, a_1..a_n, b_1..b_n]
    rss: float
    nobs: int
    aic: float
    n_lags: int

    @property
    def a(self) -> np.ndarray:
        return self.coefficients[1 : 1 + self.n_lags]

    @property
    def b(self) -> np.ndarray:
        return self.coefficients[1 + self.n_lags :]


def _adl_design(y: np.ndarray, x: np.ndarray, n: int, t0: int):
    cols = [np.ones(y.size - t0)]
    for i in range(1, n + 1):
        cols.append(y[t0 - i : y.size - i])
    for i in range(1, n + 1):
        cols.append(x[t0 - i : x.size - i])
    return np.column_stack(cols), y[t0:]


def _lag_pairs(n: int) -> list[int]:
    """Positions of an order-n lag block ``[y_1..y_n, x_1..x_n]`` in (y_i, x_i) order.

    In that order the lag blocks of every order m <= n are column prefixes,
    so one ``_nested_rss`` serves an AIC search over the order.
    """
    return [c for i in range(n) for c in (i, n + i)]


def fit_adl(y, x, n: int, t0: int | None = None) -> ADLFit:
    ya, xa = _as_values(y), _as_values(x)
    if ya.size != xa.size:
        raise DataError("series must be aligned to a common sample")
    t0 = n if t0 is None else t0
    if t0 < n:
        raise DataError(f"alignment start {t0} shorter than lag order {n}")
    X, resp = _adl_design(ya, xa, n, t0)
    fit = ols(X, resp)
    return ADLFit(coefficients=fit.beta, rss=fit.rss, nobs=fit.nobs,
                  aic=_aic(fit.rss, fit.nobs, 2 * n + 1), n_lags=n)


def select_lags_aic(y, x, n_max: int) -> int:
    """Lag order minimizing AIC over n = 1..n_max on the common sample."""
    ya, xa = _as_values(y), _as_values(x)
    if ya.size != xa.size:
        raise DataError("series must be aligned to a common sample")
    if ya.size <= 2 * n_max + 2:
        raise DataError(f"length {ya.size} insufficient for n_max={n_max}")
    X, resp = _adl_design(ya, xa, n_max, n_max)
    X = X[:, [0] + [1 + c for c in _lag_pairs(n_max)]]
    rss = _nested_rss(X, resp, [2 * n + 1 for n in range(1, n_max + 1)])
    best_n, best_aic = None, np.inf
    for n in range(1, n_max + 1):
        a = _aic(rss[n - 1], resp.size, 2 * n + 1)
        if a < best_aic - 1e-12:
            best_aic, best_n = a, n
    return best_n


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
    df_num: int
    df_den: int
    p_value: float
    decision: bool
    n_lags: int
    x_diff_order: int = 0


def _granger_f(rss_r: float, rss_u: float, q: int, dof: int, level: float,
               n: int, d: int) -> GrangerResult:
    if dof <= 0:
        raise DataError("no residual degrees of freedom for Granger F-test")
    # Floor the unrestricted RSS so a perfect fit yields a huge finite F.
    rss_floor = max(rss_u, 1e-12 * max(rss_r, 1.0))
    f = ((rss_r - rss_u) / q) / (rss_floor / dof)
    if math.isnan(f):
        raise NumericalError("non-finite Granger F statistic")
    f = max(f, 0.0)
    p = f_sf(f, q, dof)
    return GrangerResult(f_stat=float(f), df_num=q, df_den=dof, p_value=p,
                         decision=p < level, n_lags=n, x_diff_order=d)


def granger_test(y, x, n: int, level: float = 0.01, x_diff_order: int = 0) -> GrangerResult:
    """F-test of the x-lag block in the distributed-lag regression.

    ``x`` must already be stationary (difference beforehand); both series are
    aligned to a common sample.
    """
    ya, xa = _as_values(y), _as_values(x)
    if ya.size != xa.size:
        raise DataError("series must be aligned to a common sample")
    X_u, resp = _adl_design(ya, xa, n, n)
    fit_u = ols(X_u, resp)
    fit_r = ols(X_u[:, : n + 1], resp)
    T = resp.size
    return _granger_f(fit_r.rss, fit_u.rss, n, T - 2 * n - 1, level, n, x_diff_order)


def _panel_stack(y_by, x_by, n: int, t0: int):
    """Stacked district designs with district-intercept dummies."""
    keys = sorted(y_by)
    blocks_X, blocks_y, owners = [], [], []
    for key in keys:
        ya, xa = _as_values(y_by[key]), _as_values(x_by[key])
        if ya.size != xa.size or ya.size <= t0:
            continue
        X, resp = _adl_design(ya, xa, n, t0)
        blocks_X.append(X[:, 1:])  # drop the per-block constant
        blocks_y.append(resp)
        owners.extend([key] * resp.size)
    if not blocks_X:
        raise DataError("no district has enough aligned observations")
    used = sorted(set(owners))
    dummies = np.zeros((len(owners), len(used)))
    pos = {k: i for i, k in enumerate(used)}
    for r, k in enumerate(owners):
        dummies[r, pos[k]] = 1.0
    X = np.column_stack([dummies, np.vstack(blocks_X)])
    return X, np.concatenate(blocks_y), len(used)


def panel_granger(y_by, x_by, n_max: int = 6, level: float = 0.01,
                  x_diff_order: int = 0) -> GrangerResult:
    """Pooled Granger test: district fixed intercepts, shared lag slopes."""
    X, resp, n_d = _panel_stack(y_by, x_by, n_max, n_max)
    # Every order shares the rows from t0 = n_max; orders wider than they allow are skipped.
    orders = [n for n in range(1, n_max + 1) if resp.size > n_d + 2 * n]
    if not orders:
        raise DataError("panel too short for any candidate lag order")
    X = X[:, list(range(n_d)) + [n_d + c for c in _lag_pairs(n_max)]]
    rss = _nested_rss(X[:, : n_d + 2 * orders[-1]], resp, [n_d + 2 * n for n in orders])
    best_n, best_aic = None, np.inf
    for n, r in zip(orders, rss):
        a = _aic(r, resp.size, n_d + 2 * n)
        if a < best_aic - 1e-12:
            best_aic, best_n = a, n
    n = best_n
    X, resp, n_d = _panel_stack(y_by, x_by, n, n)
    fit_u = ols(X, resp)
    fit_r = ols(X[:, : n_d + n], resp)
    dof = resp.size - n_d - 2 * n
    return _granger_f(fit_r.rss, fit_u.rss, n, dof, level, n, x_diff_order)


@dataclass(frozen=True)
class ScreeningRow:
    feature: str
    f_stat: float
    p_value: float
    n_lags: int
    diff_order: int
    decision: bool
    reason: str = ""


def _panel_diff_order(series_by_district, max_d: int, level: float) -> int | None:
    """Majority-vote differencing order across district factor series."""
    votable = {k: s for k, s in series_by_district.items() if np.ptp(s.values) > 0.0}
    if not votable:
        return None
    current = dict(votable)
    for d in range(max_d + 1):
        passing = 0
        testable = 0
        for s in current.values():
            try:
                result = adf_test(s, level=level)
            except (DataError, NumericalError):
                continue
            testable += 1
            passing += result.stationary
        if testable and passing * 2 >= testable:
            return d
        if d < max_d:
            current = {k: s.diff() for k, s in current.items()}
    return None


def select_features(
    features,
    ipc_by_district,
    factors_by_feature,
    n_max: int = 6,
    level: float = 0.01,
    adf_level: float = 0.05,
    max_d: int = 2,
    mode: str = "pooled",
):
    """Granger screening of news factors against the forward-filled IPC phase.

    ``factors_by_feature`` maps feature -> district -> Series at district
    level. Returns (retained, report): ``retained`` maps each surviving
    feature to its differencing order and Granger result, and ``report``
    lists one ScreeningRow per input feature.
    """
    if mode not in ("pooled", "per-district"):
        raise DataError(f"unknown screening mode {mode!r}")
    retained: dict[str, dict] = {}
    report: list[ScreeningRow] = []
    for feature in sorted(features):
        by_district = factors_by_feature.get(feature, {})
        series = {d: s for d, s in by_district.items() if d in ipc_by_district}
        if not series or all(np.ptp(s.values) == 0.0 for s in series.values()):
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, 0,
                                       False, "all-zero factor"))
            continue
        d_order = _panel_diff_order(series, max_d, adf_level)
        if d_order is None:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, max_d,
                                       False, "non-stationary at max differencing"))
            continue
        y_by, x_by = {}, {}
        for dist, s in series.items():
            x = s.diff(d_order)
            ipc = ipc_by_district[dist]
            t0 = max(x.start, ipc.start)
            t1 = min(x.end, ipc.end)
            if t1 - t0 + 1 <= 2 * n_max + 2:
                continue
            y_by[dist] = ipc.window(t0, t1)
            x_by[dist] = x.window(t0, t1)
        if not y_by:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, d_order,
                                       False, "insufficient aligned sample"))
            continue
        try:
            if mode == "pooled":
                result = panel_granger(y_by, x_by, n_max=n_max, level=level,
                                       x_diff_order=d_order)
            else:
                results = []
                for dist in sorted(y_by):
                    n = select_lags_aic(y_by[dist], x_by[dist], n_max)
                    results.append(granger_test(y_by[dist], x_by[dist], n, level=level,
                                                x_diff_order=d_order))
                n_sig = sum(r.decision for r in results)
                best = max(results, key=lambda r: r.f_stat)
                result = GrangerResult(
                    f_stat=best.f_stat, df_num=best.df_num, df_den=best.df_den,
                    p_value=best.p_value, decision=n_sig * 2 >= len(results),
                    n_lags=best.n_lags, x_diff_order=d_order,
                )
        except (DataError, NumericalError) as exc:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, d_order,
                                       False, f"test failed: {exc}"))
            continue
        report.append(ScreeningRow(feature, result.f_stat, result.p_value, result.n_lags,
                                   d_order, result.decision))
        if result.decision:
            retained[feature] = {"diff_order": d_order, "result": result}
    return retained, report


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, each run of equal values sharing its mean rank.

    A run of ``c`` values ending at sorted position ``e`` (1-based) has mean rank
    ``e - (c - 1) / 2``, a half-integer, so the result is exact. Callers pass
    one or more finite values (``Series`` and ``NewsFactors`` reject others).
    A stable argsort rather than ``np.unique``, whose first call pages in
    numpy's quicksort (about 0.4 MiB of peak RSS in a bare interpreter).
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # 0-based run ends
    cnt = np.diff(last, prepend=-1)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(last + 1 - (cnt - 1) / 2.0, cnt)
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation; ties get average ranks."""
    av, bv = _as_values(a), _as_values(b)
    if av.size != bv.size:
        raise DataError("vectors must have equal length")
    if av.size < 3:
        raise DataError("need at least 3 observations")
    if np.ptp(av) == 0.0 or np.ptp(bv) == 0.0:
        raise NumericalError("constant vector in Spearman correlation")
    ra, rb = _average_ranks(av), _average_ranks(bv)
    return float(np.corrcoef(ra, rb)[0, 1])
