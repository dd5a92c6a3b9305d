"""Time-series statistics for factor screening.

Augmented Dickey-Fuller stationarity testing with AIC lag selection, the
Granger-causality F-test of a district panel (``panel_granger``, which also
tests one district alone), and Spearman rank correlation.

Every screening regression reads its RSS values, and the ADF its t-ratio,
from one triangular factor R of its design with the response last
(``_r_factors``). The ADF vote of ``select_features`` factors the designs of
every feature's district series of one length, up to ``_ADF_CHUNK`` at a
time, in one batched QR (``_adf_stack``).

All information criteria use AIC = T * ln(RSS / T) + 2 * p so that reported
values can be recomputed exactly from the reported residual sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericalError

# MacKinnon (2010) response-surface coefficients for the constant-only
# Dickey-Fuller regression: cv = b0 + b1/T + b2/T^2 + b3/T^3.
_ADF_CRIT_CONST = {
    0.01: (-3.43035, -6.5393, -16.786, -79.433),
    0.05: (-2.86154, -2.8903, -4.234, -40.04),
    0.10: (-2.56677, -1.5384, -2.809, 0.0),
}

_BETA_FRACTION_TERMS = 10_000  # the cap on the continued fraction's terms in ``f_sf``
_STIRLING = ((1 / 12, 1), (-1 / 360, 3), (1 / 1260, 5), (-1 / 1680, 7))


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution, I_x(d2/2, d1/2) with x = d2 / (d2 + d1 f):
    x^a (1-x)^b / (a B(a, b)), formed in log space, times a continued fraction (Numerical
    Recipes §6.4), or by symmetry 1 - I_{1-x}(b, a) when x >= (a+1)/(a+b+2)."""
    if not np.isfinite(f):
        raise NumericalError("non-finite F statistic")
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * float(f))
    a, b = d2 / 2.0, d1 / 2.0
    if flip := x >= (a + 1.0) / (a + b + 2.0):
        a, b, x = b, a, 1.0 - x
    fraction = _beta_fraction(a, b, x)
    if fraction is None:
        raise NumericalError(f"f_sf({f}, {d1}, {d2}): the incomplete-beta continued fraction "
                             f"did not converge in {_BETA_FRACTION_TERMS} terms")
    tail = 0.0 if x == 0.0 else fraction * math.exp(
        a * math.log(x) + b * math.log1p(-x) - math.log(a) - _log_beta(a, b))
    return 1.0 - tail if flip else tail


def _beta_fraction(a: float, b: float, x: float) -> float | None:
    """The continued fraction of I_x(a, b) by the modified Lentz method; None if unconverged."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    h = d = 1.0 / (d if abs(d) > tiny else tiny)
    for m in range(1, _BETA_FRACTION_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d, c = 1.0 + num * d, 1.0 + num / c
            d, c = 1.0 / (d if abs(d) > tiny else tiny), (c if abs(c) > tiny else tiny)
            h *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:  # double epsilon
            return h
    return None


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b); past 30, the larger argument's two ln Γ terms, which cancel in rounding,
    are differenced through Stirling's series (``_STIRLING``: coefficient, power of 1/z)."""
    small, big = sorted((a, b))
    if big < 30.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(small) - (big - 0.5) * math.log1p(small / big)
            - small * math.log(big + small) + small
            + sum(c / big**k - c / (big + small)**k for c, k in _STIRLING))


def _r_factors(M, sizes):
    """R of each matrix of the stack ``M`` (..., T, columns), the response last, and its rank rule.

    The rule, for each column prefix ``M[..., :k]``, k in ``sizes``: more rows than
    k, and no R diagonal entry of the prefix at most 1e-10 of the prefix's
    largest. Returns R and, per matrix, None when every prefix passes, else the
    error of the first that fails, naming (by index, also in ``columns``) the
    columns collinear with earlier ones.
    """
    R = np.linalg.qr(M, mode="r")
    T = M.shape[-2]
    sizes = list(sizes)
    wide = [k for k in sizes if T <= k]
    checked = sizes[: sizes.index(wide[0])] if wide else sizes
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).reshape(-1, R.shape[-2])
    at = np.array(checked, dtype=int) - 1
    # a prefix fails when its smallest diagonal entry is at most 1e-10 of its largest
    fails = (np.minimum.accumulate(diag, axis=1)[:, at]
             <= 1e-10 * np.maximum(np.maximum.accumulate(diag, axis=1)[:, at], 1e-300))
    errors = [DataError(f"need more observations ({T}) than parameters ({wide[0]})")
              if wide else None] * len(diag)
    for i in np.flatnonzero(fails.any(axis=1)):
        d = diag[i, : checked[int(fails[i].argmax())]]
        bad = [int(j) for j in np.nonzero(d <= 1e-10 * max(d.max(), 1e-300))[0]]
        errors[i] = NumericalError(f"rank-deficient design, collinear columns: {bad}", bad)
    return R, errors


def _r_factor(M, sizes) -> np.ndarray:
    """R of the matrix ``M``, the response last, once it passes ``_r_factors``' rank rule."""
    R, [error] = _r_factors(M, sizes)
    if error is not None:
        raise error
    return R


def _tail_rss(R) -> np.ndarray:
    """RSS of the fit of the response (R's last column) on each column prefix, by prefix width.

    The residual of the fit on the first k columns is the part of the response
    beyond the first k rows of R, so RSS_k is the sum of squares of R's last
    column from row k down. Works on a stack of factors along the last axis.
    """
    return np.cumsum(R[..., ::-1, -1] ** 2, axis=-1)[..., ::-1]


def _nested_rss(M, sizes) -> list[float]:
    """RSS of the fit of ``M``'s last column on each column prefix ``M[:, :k]``, k in ``sizes``."""
    tail = _tail_rss(_r_factor(M, sizes))
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


def _adf_stack(X: np.ndarray, max_lag: int | None = None, level: float = 0.05) -> list:
    """``adf_test`` of each row of ``X`` (series x T): its AdfResult, or the error it raises.

    The rows share T and so every design's shape: one batched QR factors all
    rows' max-lag designs for the AIC search, and one more each chosen order's
    refits.
    """
    B, T = X.shape
    if max_lag is None:
        max_lag = min(int(math.ceil(12.0 * (T / 100.0) ** 0.25)), max(T - 13, 0))
    if T < 12 + max_lag:
        return [DataError(f"series of length {T} too short for ADF with max_lag={max_lag}")] * B
    out = [NumericalError("degenerate series: constant input to ADF test") if flat else None
           for flat in np.ptp(X, axis=1) == 0.0]
    dy = np.diff(X, axis=1)

    def design(rows, k: int, level_at: int):
        """Order-k designs of ``rows`` from t = k + 1: 1, x_{t-1} in column ``level_at``,
        dy_{t-1}..dy_{t-k} in order in the other columns, and the response dy_t last."""
        D = np.empty((len(rows), T - 1 - k, k + 3))
        D[..., 0] = 1.0
        D[..., level_at] = X[rows, k : T - 1]
        for i, c in enumerate([c for c in range(1, k + 2) if c != level_at], 1):
            D[..., c] = dy[rows, k - i : T - 1 - i]
        D[..., -1] = dy[rows, k:]
        return D

    # Lag order k is the first k + 2 columns of the max_lag design.
    live = [b for b in range(B) if out[b] is None]
    sizes = range(2, max_lag + 3)
    R, errors = _r_factors(design(live, max_lag, 1), sizes)
    by_order: dict[int, list[int]] = {}
    for b, error, tail in zip(live, errors, _tail_rss(R)):
        if error is not None:
            out[b] = error
        else:
            k = _aic_order(tail[2 : max_lag + 3].tolist(), T - 1 - max_lag, sizes)
            by_order.setdefault(k, []).append(b)
    # Refit order k with the lagged level last: its coefficient is R[p-1, p] / R[p-1, p-1]
    # and its standard error sigma / |R[p-1, p-1]|, with sigma^2 = R[p, p]^2 / (T - p).
    for k, rows in by_order.items():
        p, nobs = k + 2, T - 1 - k
        R, errors = _r_factors(design(rows, k, p - 1), [p])
        for b, error, r in zip(rows, errors, R):
            sigma = abs(r[p, p]) / math.sqrt(nobs - p)
            if error is None and sigma == 0.0:
                error = NumericalError("degenerate ADF regression")
            if error is not None:
                out[b] = error
                continue
            stat = float(np.sign(r[p - 1, p - 1]) * r[p - 1, p] / sigma)
            cv = _adf_critical(level, nobs)
            out[b] = AdfResult(statistic=stat, stationary=stat < cv, lag=k,
                               nobs=nobs, critical_value=cv, level=level)
    return out


def adf_test(s, max_lag: int | None = None, level: float = 0.05) -> AdfResult:
    """Augmented Dickey-Fuller test with constant, lag order selected by AIC.

    The statistic is the t-ratio on the lagged level; the series is flagged
    stationary when it falls below the MacKinnon critical value at ``level``.
    The one-series case of ``_adf_stack``.
    """
    [result] = _adf_stack(_as_values(s)[None], max_lag, level)
    if isinstance(result, Exception):
        raise result
    return result


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


def _panel_stack(y_by, x_by, n: int, t0: int, paired: bool = False):
    """The pooled design ``[dummies, lags, y]`` of the district rows from t0, and n_d.

    Districts go in sorted key order, each with its intercept dummy column (n_d
    in all); one whose series differ in length or are no longer than t0 is
    skipped. The lags are ``y_1..y_n, x_1..x_n``, or ``y_1, x_1, ..., y_n, x_n``
    when ``paired``: in that order the lag blocks of every order m <= n are
    column prefixes, so one ``_nested_rss`` serves an AIC search over the order.
    """
    pairs = [(_as_values(y_by[key]), _as_values(x_by[key])) for key in sorted(y_by)]
    pairs = [(ya, xa) for ya, xa in pairs if ya.size == xa.size > t0]
    if not pairs:
        raise DataError("no district has enough aligned observations")
    n_d, sizes = len(pairs), np.array([ya.size for ya, _ in pairs])
    ys, xs = np.concatenate([ya for ya, _ in pairs]), np.concatenate([xa for _, xa in pairs])
    # each district's months from t0 on, as positions in the concatenated series
    month = np.arange(ys.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    at = np.flatnonzero(month >= t0)
    lags = at[:, None] - np.arange(1, n + 1)  # row t holds months t-1, ..., t-n
    M = np.zeros((at.size, n_d + 2 * n + 1))
    M[np.arange(at.size), np.repeat(np.arange(n_d), sizes - t0)] = 1.0
    if paired:
        M[:, n_d : n_d + 2 * n : 2], M[:, n_d + 1 : n_d + 2 * n : 2] = ys[lags], xs[lags]
    else:
        M[:, n_d : n_d + n], M[:, n_d + n : n_d + 2 * n] = ys[lags], xs[lags]
    M[:, -1] = ys[at]
    return M, n_d


def panel_granger(y_by, x_by, n_max: int = 6, level: float = 0.01,
                  x_diff_order: int = 0) -> GrangerResult:
    """Pooled Granger test: district fixed intercepts, shared lag slopes.

    The lag order minimises AIC over 1..n_max on the rows from t0 = n_max. With
    one district the design is ``[1, y_1..y_n, x_1..x_n]``, the single-pair test.
    """
    M, n_d = _panel_stack(y_by, x_by, n_max, n_max, paired=True)
    # Every order shares the rows from t0 = n_max; orders wider than they allow are skipped.
    orders = [n for n in range(1, n_max + 1) if len(M) > n_d + 2 * n]
    if not orders:
        raise DataError("panel too short for any candidate lag order")
    if orders[-1] < n_max:
        M, n_d = _panel_stack(y_by, x_by, orders[-1], n_max, paired=True)
    sizes = [n_d + 2 * n for n in orders]
    n = orders[_aic_order(_nested_rss(M, sizes), len(M), sizes)]
    M, n_d = _panel_stack(y_by, x_by, n, n)
    rss_r, rss_u = _nested_rss(M, [n_d + n, n_d + 2 * n])
    return _granger_f(rss_r, rss_u, n, len(M) - n_d - 2 * n, level, n, x_diff_order)


@dataclass(frozen=True)
class ScreeningRow:
    feature: str
    f_stat: float
    p_value: float
    n_lags: int
    diff_order: int
    decision: bool
    reason: str = ""


_ADF_CHUNK = 128  # series per ``_adf_stack`` call of the vote; bounds the stacked designs


def _panel_diff_orders(features, max_d: int, level: float) -> list[int | None]:
    """Majority-vote differencing order of each feature's district factor series (1-d arrays).

    Constant series take no part. At each order, the series of every feature
    still undecided are tested together, up to ``_ADF_CHUNK`` of one length
    in one ``_adf_stack``, and a series whose test raises is left out of its
    feature's vote. A feature undecided after ``max_d`` differences gets None.
    """
    by_length: dict[int, list[tuple[int, np.ndarray]]] = {}
    for f, series in enumerate(features):
        for s in series:
            if np.ptp(s) > 0.0:
                by_length.setdefault(s.size, []).append((f, s))
    # per length, the feature of each row and the rows as one array
    stacks = [(np.array([f for f, _ in rows]), np.array([s for _, s in rows]))
              for rows in by_length.values()]
    orders: list[int | None] = [None] * len(features)
    undecided = np.ones(len(features), dtype=bool)
    for d in range(max_d + 1):
        votes, stationary = np.zeros(len(features), dtype=int), np.zeros(len(features), dtype=int)
        for owner, X in stacks:
            for lo in range(0, len(X), _ADF_CHUNK):
                for f, r in zip(owner[lo:lo + _ADF_CHUNK].tolist(),
                                _adf_stack(X[lo:lo + _ADF_CHUNK], level=level)):
                    if isinstance(r, AdfResult):
                        votes[f] += 1
                        stationary[f] += r.stationary
        for f in np.flatnonzero((votes > 0) & (stationary * 2 >= votes)).tolist():
            orders[f], undecided[f] = d, False
        if d < max_d:
            stacks = [(owner[keep], np.diff(X[keep], axis=1)) for owner, X in stacks
                      if (keep := undecided[owner]).any()]
    return orders


SCREENING_MODES = ("pooled", "per-district")


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
    with an aligned sample is tested alone by ``panel_granger``, and a feature is kept
    when at least half of those locations pass; a location whose test raises counts as
    not significant. The row carries the F and p of the location with the largest F,
    and the vote (``"3 of 8 districts significant"``) as its reason.
    """
    if mode not in SCREENING_MODES:
        raise DataError(f"unknown screening mode {mode!r}")
    ipc = np.asarray(ipc, dtype=float)
    has_ipc = np.isfinite(ipc)
    retained: dict[str, dict] = {}
    report: list[ScreeningRow] = []
    screened = []  # (feature, factor array, screened rows, their series), in feature order
    for feature in sorted(features):
        x = np.asarray(factors_by_feature.get(feature, np.full(ipc.shape, np.nan)), dtype=float)
        rows = np.flatnonzero(has_ipc.any(axis=1) & np.isfinite(x).any(axis=1))
        screened.append((feature, x, rows, [x[r][np.isfinite(x[r])] for r in rows]))
    orders = _panel_diff_orders([series for *_, series in screened], max_d, adf_level)
    for (feature, x, rows, series), d_order in zip(screened, orders):
        if not series or all(np.ptp(s) == 0.0 for s in series):
            report.append(ScreeningRow(feature, float("nan"), float("nan"), 0, 0,
                                       False, "all-zero factor"))
            continue
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
                reason = f"{n_sig} of {len(y_by)} districts significant"
                result = replace(max(results, key=lambda r: r.f_stat),
                                 decision=n_sig * 2 >= len(y_by))
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
