"""Time-series statistics for factor screening.

Augmented Dickey-Fuller stationarity testing with AIC lag selection, the
Granger-causality F-test of a district panel (``panel_granger``, which also
tests one district alone), and Spearman rank correlation.

Every screening regression reads its RSS values, and the ADF its t-ratio,
from one triangular factor R of ``[X, y]`` (``_r_factor``).

All information criteria use AIC = T * ln(RSS / T) + 2 * p so that reported
values can be recomputed exactly from the reported residual sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import DataError, NumericalError

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


def _r_factor(X, y, sizes) -> np.ndarray:
    """R of ``[X, y]``, once each column prefix ``X[:, :k]``, k in ``sizes``, passes the rank rule.

    The rule: more rows than k, and no R diagonal entry of the prefix at most
    1e-10 of the prefix's largest. The first prefix that fails raises,
    naming (by index, also in ``columns``) the columns collinear with earlier ones.
    """
    T = len(y)
    R = np.linalg.qr(np.column_stack([X, y]), mode="r")
    diag = np.abs(np.diag(R))
    for k in sizes:
        if T <= k:
            raise DataError(f"need more observations ({T}) than parameters ({k})")
        d = diag[:k]
        bad = [int(i) for i in np.nonzero(d <= 1e-10 * max(d.max(), 1e-300))[0]]
        if bad:
            raise NumericalError(f"rank-deficient design, collinear columns: {bad}", bad)
    return R


def _nested_rss(X, y, sizes) -> list[float]:
    """RSS of the least-squares fit of ``y`` on each column prefix ``X[:, :k]``, k in ``sizes``.

    The residual of the fit on the first k columns is the part of ``y`` beyond the
    first k rows of R, so RSS_k is the sum of squares of R's y-column from row k down.
    """
    R = _r_factor(X, y, sizes)
    tail = np.cumsum(R[::-1, -1] ** 2)[::-1]  # tail[k] = sum of R[k:, -1] ** 2
    return [float(tail[k]) for k in sizes]


def _aic(rss: float, nobs: int, n_params: int) -> float:
    return nobs * math.log(max(rss, 1e-300) / nobs) + 2.0 * n_params


def _aic_order(rss, nobs: int, sizes) -> int:
    """Index of the first minimum AIC over fits of ``sizes`` parameters with RSS ``rss``.

    A later fit wins only when its AIC is lower by more than 1e-12, so rounding
    noise never moves the choice past an equally good smaller model.
    """
    aics = [_aic(r, nobs, k) for r, k in zip(rss, sizes)]
    best = 0
    for i, a in enumerate(aics):
        if a < aics[best] - 1e-12:
            best = i
    return best


def _as_values(s) -> np.ndarray:
    return np.asarray(s, dtype=float).ravel()


def diff_on_grid(values: np.ndarray, d: int) -> np.ndarray:
    """The ``d``-th difference along the last (month) axis, NaN-padded in front.

    Column j stays month j, so the result lies on the grid of ``values``.
    """
    if d == 0:
        return values
    pad = np.full(values.shape[:-1] + (d,), np.nan)
    return np.concatenate([pad, np.diff(values, n=d, axis=-1)], axis=-1)


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
    sizes = range(2, max_lag + 3)
    k = _aic_order(_nested_rss(X, resp, sizes), resp.size, sizes)
    # Refit order k with the lagged level last: its coefficient is R[p-1, p] / R[p-1, p-1]
    # and its standard error sigma / |R[p-1, p-1]|, with sigma^2 = R[p, p]^2 / (T - p).
    X, resp = design(k, k)
    p = k + 2
    R = _r_factor(X[:, [0, *range(2, p), 1]], resp, [p])
    sigma = abs(R[p, p]) / math.sqrt(resp.size - p)
    if sigma == 0.0:
        raise NumericalError("degenerate ADF regression")
    stat = float(np.sign(R[p - 1, p - 1]) * R[p - 1, p] / sigma)
    cv = _adf_critical(level, resp.size)
    return AdfResult(statistic=stat, stationary=stat < cv, lag=k,
                     nobs=resp.size, critical_value=cv, level=level)


def difference_until_stationary(s, max_d: int = 2, max_lag: int | None = None,
                                level: float = 0.05):
    """Smallest differencing order at which the series passes the ADF test."""
    current = _as_values(s)
    for d in range(max_d + 1):
        result = adf_test(current, max_lag=max_lag, level=level)
        if result.stationary:
            return current, d
        if d < max_d:
            current = np.diff(current)
    raise NumericalError(
        f"series still non-stationary after {max_d} differences "
        f"(last ADF statistic {result.statistic:.4f} vs {result.critical_value:.4f})"
    )


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


@dataclass(frozen=True)
class GrangerResult:
    f_stat: float
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
    return GrangerResult(f_stat=float(f), p_value=p, decision=p < level, n_lags=n,
                         x_diff_order=d)


def _panel_stack(y_by, x_by, n: int, t0: int):
    """Stacked district designs with district-intercept dummies."""
    blocks_X, blocks_y = [], []
    for key in sorted(y_by):
        ya, xa = _as_values(y_by[key]), _as_values(x_by[key])
        if ya.size != xa.size or ya.size <= t0:
            continue
        X, resp = _adl_design(ya, xa, n, t0)
        blocks_X.append(X[:, 1:])  # drop the per-block constant
        blocks_y.append(resp)
    if not blocks_X:
        raise DataError("no district has enough aligned observations")
    n_d = len(blocks_y)
    dummies = np.repeat(np.eye(n_d), [b.size for b in blocks_y], axis=0)
    return np.column_stack([dummies, np.vstack(blocks_X)]), np.concatenate(blocks_y), n_d


def panel_granger(y_by, x_by, n_max: int = 6, level: float = 0.01,
                  x_diff_order: int = 0) -> GrangerResult:
    """Pooled Granger test: district fixed intercepts, shared lag slopes.

    The lag order minimises AIC over 1..n_max on the rows from t0 = n_max. With
    one district the design is ``[1, y_1..y_n, x_1..x_n]``, the single-pair test.
    """
    X, resp, n_d = _panel_stack(y_by, x_by, n_max, n_max)
    # Every order shares the rows from t0 = n_max; orders wider than they allow are skipped.
    orders = [n for n in range(1, n_max + 1) if resp.size > n_d + 2 * n]
    if not orders:
        raise DataError("panel too short for any candidate lag order")
    X = X[:, list(range(n_d)) + [n_d + c for c in _lag_pairs(n_max)]]
    sizes = [n_d + 2 * n for n in orders]
    n = orders[_aic_order(_nested_rss(X[:, : sizes[-1]], resp, sizes), resp.size, sizes)]
    X, resp, n_d = _panel_stack(y_by, x_by, n, n)
    rss_r, rss_u = _nested_rss(X, resp, [n_d + n, n_d + 2 * n])
    return _granger_f(rss_r, rss_u, n, resp.size - n_d - 2 * n, level, n, x_diff_order)


@dataclass(frozen=True)
class ScreeningRow:
    feature: str
    f_stat: float
    p_value: float
    n_lags: int
    diff_order: int
    decision: bool
    reason: str = ""


def _panel_diff_order(series, max_d: int, level: float) -> int | None:
    """Majority-vote differencing order across district factor series (1-d arrays)."""
    current = [s for s in series if np.ptp(s) > 0.0]
    if not current:
        return None
    for d in range(max_d + 1):
        passing = 0
        testable = 0
        for s in current:
            try:
                result = adf_test(s, level=level)
            except (DataError, NumericalError):
                continue
            testable += 1
            passing += result.stationary
        if testable and passing * 2 >= testable:
            return d
        if d < max_d:
            current = [np.diff(s) for s in current]
    return None


def select_features(
    features,
    ipc,
    factors_by_feature,
    n_max: int = 6,
    level: float = 0.01,
    adf_level: float = 0.05,
    max_d: int = 2,
    mode: str = "pooled",
):
    """Granger screening of news factors against the forward-filled IPC phase.

    ``ipc`` and each ``factors_by_feature[feature]`` are location x month
    arrays on one grid, NaN outside each row's run of covered months. A
    location is screened when both its rows hold values, on the months where
    both do. Returns (retained, report): ``retained`` maps each surviving
    feature to its differencing order and Granger result, and ``report``
    lists one ScreeningRow per input feature. In ``per-district`` mode each location
    is tested alone by ``panel_granger``, and a feature is kept when at least half the
    tested locations pass; a location whose test raises is left out of the vote. The
    row carries the F and p of the location with the largest F, and the vote
    (``"3 of 8 districts significant"``) as its reason.
    """
    if mode not in ("pooled", "per-district"):
        raise DataError(f"unknown screening mode {mode!r}")
    ipc = np.asarray(ipc, dtype=float)
    has_ipc = np.isfinite(ipc)
    retained: dict[str, dict] = {}
    report: list[ScreeningRow] = []
    for feature in sorted(features):
        x = np.asarray(factors_by_feature.get(feature, np.full(ipc.shape, np.nan)), dtype=float)
        rows = np.flatnonzero(has_ipc.any(axis=1) & np.isfinite(x).any(axis=1))
        series = [x[r][np.isfinite(x[r])] for r in rows]
        if not series or all(np.ptp(s) == 0.0 for s in series):
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, 0,
                                       False, "all-zero factor"))
            continue
        d_order = _panel_diff_order(series, max_d, adf_level)
        if d_order is None:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, max_d,
                                       False, "non-stationary at max differencing"))
            continue
        y_by, x_by = {}, {}
        for r, xd in zip(rows, diff_on_grid(x[rows], d_order)):
            both = has_ipc[r] & np.isfinite(xd)
            if both.sum() <= 2 * n_max + 2:
                continue
            y_by[r] = ipc[r, both]
            x_by[r] = xd[both]
        if not y_by:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, d_order,
                                       False, "insufficient aligned sample"))
            continue
        reason = ""
        try:
            if mode == "pooled":
                result = panel_granger(y_by, x_by, n_max=n_max, level=level,
                                       x_diff_order=d_order)
            else:
                results, errors = [], []
                for dist in sorted(y_by):
                    try:
                        results.append(panel_granger({dist: y_by[dist]}, {dist: x_by[dist]},
                                                     n_max=n_max, level=level,
                                                     x_diff_order=d_order))
                    except (DataError, NumericalError) as exc:
                        errors.append(exc)
                if not results:
                    raise errors[0]
                n_sig = sum(r.decision for r in results)
                reason = f"{n_sig} of {len(results)} districts significant"
                result = replace(max(results, key=lambda r: r.f_stat),
                                 decision=n_sig * 2 >= len(results))
        except (DataError, NumericalError) as exc:
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, d_order,
                                       False, f"test failed: {exc}"))
            continue
        report.append(ScreeningRow(feature, result.f_stat, result.p_value, result.n_lags,
                                   d_order, result.decision, reason))
        if result.decision:
            retained[feature] = {"diff_order": d_order, "result": result}
    return retained, report


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``, each run of equal values sharing its mean rank.

    A run of ``c`` values ending at sorted position ``e`` (1-based) has mean rank
    ``e - (c - 1) / 2``, a half-integer, so the result is exact. Callers pass
    one or more finite values.
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
