"""District-month panel assembly and distributed-lag forecasting.

The design of the phase regression: district intercepts, six quarterly lags
of the forward-filled phase, and six monthly lags (behind a two-month
publication delay) of each traditional indicator and of each retained news
factor at district, province, and country level. Baseline, news-based, and
combined variants differ only in which blocks they keep; the spatial variant
appends averages over those of the four nearest neighbours that have each
series. Each model and ablation is an index set of one design's columns.

Every dated regressor sits at least three months behind the predicted month,
which is what makes the forecasts issuable three months ahead.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .artifacts import read_csv
from .corpus import District, Gazetteer, NewsFactors
from .errors import ConfigError, DataError, NumericalError
from .months import parse_month, publication_months
from .tsstats import diff_on_grid, spearman, _average_ranks

TRADITIONAL_INDICATORS = (
    "conflict_events", "conflict_fatalities", "price_index", "price_yoy",
    "evapotranspiration", "rain_mean", "rain_deviation", "ndvi_mean", "ndvi_deviation",
)

MODEL_KINDS = ("baseline", "news", "combined")

NEIGHBORS = 4          # districts a spatial average is taken over
HORIZON = 3            # months ahead a forecast is issued
RANK_TOL = 1e-8        # relative residual below which ``_least_squares`` drops a column
LASSO_TOL = 1e-7       # largest final-sweep change at which ``lasso_cd`` has converged
MIN_DISTRICTS = 3      # districts ``validate_factors`` needs in a cross-section


def forward_fill_ipc(observed: np.ndarray) -> np.ndarray:
    """Each month's phase: the latest published at or before it, NaN before any.

    ``observed`` holds the published phases along its last axis, months in
    order, and NaN in every other month.
    """
    published = ~np.isnan(observed)
    if not published.any():
        raise DataError("no IPC observations to fill")
    # the month of the latest publication at or before each month, -1 before the first
    last = np.maximum.accumulate(np.where(published, np.arange(observed.shape[-1]), -1), axis=-1)
    filled = np.take_along_axis(observed, np.maximum(last, 0), axis=-1)
    return np.where(last < 0, np.nan, filled)


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "combined"
    spatial: bool = False
    lasso: float | None = None
    y_lags: int = 6          # quarterly lags of the phase: t-3m, m=1..y_lags
    factor_lags: int = 6     # monthly lags: t-delay-n, n=1..factor_lags
    delay: int = 2           # publication delay of factors

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.lasso is not None and self.lasso < 0:
            raise ConfigError("lasso penalty must be non-negative")

    @property
    def uses_traditional(self) -> bool:
        return self.kind in ("baseline", "combined")

    @property
    def uses_news(self) -> bool:
        return self.kind in ("news", "combined")


@dataclass
class PanelDataset:
    """The modeling panel: every series a location x month array on one month grid.

    Row ``rows[loc]`` of an array is location loc and column j is month
    ``grid_start + j``. NaN marks a month outside a series' coverage, and a row
    all NaN a location without the series. Design rows run over
    ``start``..``end``, the months of the panel file; the grid also spans the
    news factors' months.
    """

    districts: dict[str, District]
    start: int
    end: int
    publication_months: tuple[int, ...]
    rows: dict[str, int]
    grid_start: int
    ipc: np.ndarray                              # forward-filled monthly phase
    ipc_observed: np.ndarray                     # published phase, NaN between publications
    traditional: dict[str, np.ndarray]           # indicator -> values
    factors: dict[str, np.ndarray]               # feature -> differenced news factor
    feature_order: tuple[str, ...] = ()
    _neighbor_cache: dict = field(default_factory=dict, repr=False)

    def country_of(self, district_id: str) -> str:
        return self.districts[district_id].country

    def province_of(self, district_id: str) -> str:
        return self.districts[district_id].province_id

    def neighbors(self, district_id: str) -> tuple[str, ...]:
        """The ``NEIGHBORS`` nearest other districts by great-circle centroid distance."""
        cached = self._neighbor_cache.get(district_id)
        if cached is not None:
            return cached
        home = self.districts[district_id]
        ranked = []
        for other_id, other in self.districts.items():
            if other_id == district_id:
                continue
            ranked.append((_haversine_km(home.lat, home.lon, other.lat, other.lon), other_id))
        if len(ranked) < NEIGHBORS:
            raise DataError(f"district {district_id!r} has fewer than {NEIGHBORS} "
                            "potential neighbors")
        ranked.sort()
        out = tuple(d for _, d in ranked[:NEIGHBORS])
        self._neighbor_cache[district_id] = out
        return out


def _haversine_km(lat1, lon1, lat2, lon2) -> float:
    rad = math.radians
    dlat = rad(lat2 - lat1)
    dlon = rad(lon2 - lon1)
    a = math.sin(dlat / 2) ** 2 + math.cos(rad(lat1)) * math.cos(rad(lat2)) * math.sin(dlon / 2) ** 2
    return 2.0 * 6371.0088 * math.asin(min(1.0, math.sqrt(a)))


def spatial_average(panel: PanelDataset, district_id: str, values: np.ndarray) -> np.ndarray:
    """Unweighted mean of the rows of ``values`` of those of the nearest neighbours that have one.

    The mean holds values where every such row does, and is all NaN when no
    neighbour has a series.
    """
    rows = values[[panel.rows[d] for d in panel.neighbors(district_id)]]
    rows = rows[np.isfinite(rows).any(axis=1)]
    if not len(rows):
        return np.full(values.shape[1], np.nan)
    mean = rows.mean(axis=0)
    if not np.isfinite(mean).any():
        raise DataError(f"neighbor series of {district_id!r} do not overlap")
    return mean


@dataclass(frozen=True)
class Column:
    name: str
    group: str
    offset: int | None = None   # regressor month = t - offset; None for undated
    feature: str | None = None  # news feature behind the column, for ablation


@dataclass(frozen=True)
class DesignMatrix:
    """One model's design: its ``columns`` are the columns ``cols`` of ``X``.

    Every model with these rows shares ``X``, ``y``, ``rows`` and ``_windows``,
    the R factor of ``[X, y]`` per training window; ``skipped`` is its own.
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[Column, ...]
    rows: tuple[tuple[str, int], ...]      # (district, month) per row
    skipped: tuple[tuple[str, int, str], ...]
    cols: tuple[int, ...]
    _windows: dict = field(default_factory=dict, repr=False)


class _Block(NamedTuple):
    """Adjacent design columns filled from one source per district.

    ``source(d)`` gives district d's row of the panel grid for a dated block,
    where all NaN skips d with the reason ``missing``, or its row of constants
    for an undated one (``span`` None). ``span`` is (label, max offset, min
    offset): a row at month t needs the series to cover t - max offset .. t -
    min offset.
    """

    columns: tuple[Column, ...]
    source: Callable[[str], Any]
    span: tuple[str, int, int] | None = None
    missing: str = ""


def _design_blocks(panel: PanelDataset, spec: ModelSpec) -> list[_Block]:
    """The blocks of ``spec``'s design, in column order."""
    district_ids = sorted(panel.districts)
    locations = {"district": lambda d: d, "province": panel.province_of,
                 "country": panel.country_of}
    blocks: list[_Block] = []

    def phase(group, label, source, missing=""):
        cols = tuple(Column(f"{group}[m={m}]", group, offset=3 * m)
                     for m in range(1, spec.y_lags + 1))
        blocks.append(_Block(cols, source, (label, 3 * spec.y_lags, 0), missing))

    def lagged(name, group, label, source, feature=None, missing=""):
        cols = tuple(Column(f"{name},n={n}]", group, offset=spec.delay + n, feature=feature)
                     for n in range(1, spec.factor_lags + 1))
        span = (label, spec.delay + spec.factor_lags, spec.delay + 1)
        blocks.append(_Block(cols, source, span, missing))

    def at(values, loc_of=lambda d: d):
        return lambda d: values[panel.rows[loc_of(d)]]

    def around(values):
        return lambda d: spatial_average(panel, d, values)

    blocks.append(_Block(tuple(Column(f"intercept[{d}]", "intercept") for d in district_ids),
                         lambda d: [float(d == e) for e in district_ids]))
    phase("y_lag", "ipc", at(panel.ipc))
    if spec.uses_traditional:
        for k in TRADITIONAL_INDICATORS:
            lagged(f"trad[{k}", "traditional", f"trad:{k}", at(panel.traditional[k]),
                   missing=f"missing traditional indicator {k}")
    if spec.uses_news:
        for w in panel.feature_order:
            for level, loc_of in locations.items():
                lagged(f"news[{w},{level}", "news", f"news:{w}:{level}",
                       at(panel.factors[w], loc_of), feature=w,
                       missing=f"missing news factor {w}@{level}")
    if spec.spatial:
        phase("sp_y", "sp_ipc", around(panel.ipc), missing="no neighbour has ipc")
        if spec.uses_traditional:
            for k in TRADITIONAL_INDICATORS:
                lagged(f"sp_trad[{k}", "sp_traditional", f"sp_trad:{k}",
                       around(panel.traditional[k]),
                       missing=f"no neighbour has traditional indicator {k}")
        if spec.uses_news:
            for w in panel.feature_order:
                lagged(f"sp_news[{w}", "sp_news", f"sp_news:{w}",
                       around(panel.factors[w]), feature=w,
                       missing=f"no neighbour has news factor {w}@district")
    return blocks


def _row_bounds(panel: PanelDataset, blocks: list[_Block]):
    """({district: (first month, last month)}, skip records) of the rows ``blocks`` cover.

    The first and last month with a value of each dated block bound a
    district's rows, so every kept cell is finite; months outside the bounds
    are skipped with an audit record naming the block that set the bound.
    """
    ranges, skipped = {}, []
    g0 = panel.grid_start
    for d in sorted(panel.districts):
        t_lo, t_hi, lo_label, hi_label = panel.start, panel.end, "ipc", "ipc"
        for b in (b for b in blocks if b.span is not None):
            covered = g0 + np.flatnonzero(np.isfinite(b.source(d)))  # months with a value
            if not covered.size:
                skipped.append((d, -1, b.missing))
                break
            label, max_off, min_off = b.span
            if covered[0] + max_off > t_lo:
                t_lo, lo_label = covered[0] + max_off, label
            if covered[-1] + min_off < t_hi:
                t_hi, hi_label = covered[-1] + min_off, label
        else:
            skipped += [(d, t, f"lag unavailable ({lo_label})")
                        for t in range(panel.start, min(t_lo, panel.end + 1))]
            skipped += [(d, t, f"series ends ({hi_label})")
                        for t in range(max(t_lo, t_hi + 1), panel.end + 1)]
            ranges[d] = (t_lo, t_hi)
    return ranges, skipped


def build_design(panel: PanelDataset, *specs: ModelSpec) -> DesignMatrix:
    """Design matrix of every column of ``specs``, on the months ``_row_bounds`` gives them all.

    Lags are sliced out of the panel's arrays. The specs share their lags, and
    each keeps its column order: the blocks keep the widest design's.
    """
    wanted = {b.columns for s in specs for b in _design_blocks(panel, s)}
    widest = replace(specs[0], kind="combined", spatial=any(s.spatial for s in specs))
    blocks = [b for b in _design_blocks(panel, widest) if b.columns in wanted]
    ranges, skipped = _row_bounds(panel, blocks)
    parts, row_keys = [], []
    g0 = panel.grid_start
    for d, (t_lo, t_hi) in ranges.items():
        M = np.arange(t_lo, t_hi + 1)
        cells = []
        for b in blocks:
            if b.span is None:
                cells.append(np.broadcast_to(b.source(d), (M.size, len(b.columns))))
            else:
                offsets = np.array([c.offset for c in b.columns], dtype=int)
                cells.append(b.source(d)[M[:, None] - offsets - g0])
        parts.append((np.hstack(cells), panel.ipc[panel.rows[d], M - g0]))
        row_keys.extend((d, int(t)) for t in M)

    if not row_keys:
        raise DataError("design matrix has no valid rows")
    X = np.vstack([x for x, _ in parts])
    y = np.concatenate([v for _, v in parts])
    columns = tuple(c for b in blocks for c in b.columns)
    return DesignMatrix(X=X, y=y, columns=columns, rows=tuple(row_keys),
                        skipped=tuple(skipped), cols=tuple(range(len(columns))))


def model_designs(panel: PanelDataset, specs: dict[str, ModelSpec]) -> dict[str, DesignMatrix]:
    """Each spec's design: its columns of one ``build_design`` per set of rows.

    Specs are grouped by ``_row_bounds``, before any cell is filled; a
    ``*_lasso`` spec shares the design of its OLS twin.
    """
    groups, views = {}, {}
    for spec in dict.fromkeys(replace(s, lasso=None) for _, s in sorted(specs.items())):
        ranges, skipped = _row_bounds(panel, _design_blocks(panel, spec))
        rows = tuple((d, lo, hi) for d, (lo, hi) in ranges.items() if lo <= hi)
        groups.setdefault(rows, {})[spec] = tuple(skipped)
    for group in groups.values():
        design = build_design(panel, *group)
        at = {c: j for j, c in enumerate(design.columns)}
        for spec, skipped in group.items():
            columns = tuple(c for b in _design_blocks(panel, spec) for c in b.columns)
            views[spec] = replace(design, columns=columns, cols=tuple(at[c] for c in columns),
                                  skipped=skipped)
    return {name: views[replace(spec, lasso=None)] for name, spec in specs.items()}


def audit_no_lookahead(design: DesignMatrix) -> list[str]:
    """Names of the dated regressors fewer than ``HORIZON`` months in the past.

    A row's newest regressor sits the smallest dated offset before it, so a
    row fails exactly when some column does.
    """
    return [c.name for c in design.columns if c.offset is not None and c.offset < HORIZON]


def _least_squares(R: np.ndarray, cols, nobs: int):
    """Least squares of y on a maximal independent set of the columns ``cols`` of X.

    ``R`` is the R factor of ``[X, y]`` over ``nobs`` rows, square: rows past
    ``nobs`` are zero, so columns past the ``nobs``-th have no residual. Column
    ``cols[j]`` is kept when its residual on the kept columns before it exceeds
    ``RANK_TOL`` times its own norm, so zero columns are dropped. R holds every
    inner product of X's columns, so each pass re-factors only R's kept columns
    and y's, and drops the first column that fails; the columns before it keep
    their residuals. Returns (kept positions in ``cols``, beta, rss).
    """
    norms = np.linalg.norm(R[:, cols], axis=0)
    kept = list(range(len(cols)))
    while True:
        F = np.linalg.qr(R[:, [cols[j] for j in kept] + [-1]], mode="r")
        bad = np.flatnonzero(np.abs(np.diag(F))[:-1] <= RANK_TOL * norms[kept])
        if not bad.size:
            break
        del kept[bad[0]]
    k = len(kept)
    if nobs <= k:
        raise DataError(f"need more observations ({nobs}) than parameters ({k})")
    return kept, np.linalg.solve(F[:k, :k], F[:k, k]), float(F[k, k] ** 2)


@dataclass(frozen=True)
class FitResult:
    columns: tuple[Column, ...]
    kept: tuple[int, ...]
    beta: np.ndarray
    dropped: tuple[str, ...]
    rss: float
    nobs: int

    def coefficients(self) -> dict[str, float]:
        named = {self.columns[i].name: float(b) for i, b in zip(self.kept, self.beta)}
        for name in (c.name for c in self.columns):
            named.setdefault(name, 0.0)
        return named


def soft_threshold(rho: float, lam: float) -> float:
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


def _lasso_scale(X: np.ndarray, penalized: np.ndarray) -> np.ndarray:
    """Column scales of the lasso objective: a penalized column's sd, else 1."""
    scale = np.ones(X.shape[1])
    sd = X.std(axis=0)
    scale[penalized & (sd > 0)] = sd[penalized & (sd > 0)]
    return scale


def lasso_cd(X, y, lam: float, penalized, max_sweeps: int = 100000):
    """Cyclic coordinate descent for (1/2N)*RSS + lam*sum_penalized |beta_std|.

    Penalized columns are divided by their standard deviation (not centered);
    the returned coefficients are on the original scale. Unpenalized
    coordinates are profiled out: ``y`` and the scaled penalized columns are
    projected onto the orthogonal complement of the unpenalized columns,
    descent runs on the penalized coordinates alone, and the unpenalized
    coefficients are then the least-squares fit to what remains. This is the
    same minimizer. A penalized column inside the span of the unpenalized ones
    gets coefficient 0. ``LASSO_TOL`` bounds the largest change of a penalized
    coordinate, on the standardized scale, in the final sweep.

    Returns (beta, rss, sweeps). Raises NumericalError after ``max_sweeps``
    sweeps, naming the last largest change and its column index, which is
    also the error's ``columns``.
    """
    if max_sweeps < 1:
        raise ConfigError("max_sweeps must be at least 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    N, p = X.shape
    penalized = np.asarray(penalized, dtype=bool)
    scale = _lasso_scale(X, penalized)
    Xs = X / scale
    pen = np.flatnonzero(penalized)
    free = np.flatnonzero(~penalized)
    Z = Xs[:, pen]
    r = y.copy()
    if free.size:
        U, s, _ = np.linalg.svd(Xs[:, free], full_matrices=False)
        U = U[:, s > s[0] * max(N, free.size) * np.finfo(float).eps]
        Z = Z - U @ (U.T @ Z)
        r -= U @ (U.T @ r)
    col_sq = (Z * Z).sum(axis=0) / N
    # columns the projection left at rounding level lie in the unpenalized span
    col_sq[col_sq <= 1e-16 * (Xs[:, pen] ** 2).sum(axis=0) / N] = 0.0
    b = np.zeros(pen.size)
    for sweep in range(1, max_sweeps + 1):
        max_delta, worst = 0.0, -1
        for j in range(pen.size):
            if col_sq[j] == 0.0:
                continue
            zj = Z[:, j]
            rho = (zj @ r) / N + col_sq[j] * b[j]
            new = soft_threshold(rho, lam) / col_sq[j]
            delta = new - b[j]
            if delta != 0.0:
                r -= zj * delta
                b[j] = new
                if abs(delta) > max_delta:
                    max_delta, worst = abs(delta), j
        if max_delta <= LASSO_TOL:
            beta = np.zeros(p)
            beta[pen] = b
            if free.size:
                partial = y - Xs[:, pen] @ b
                beta[free] = np.linalg.lstsq(Xs[:, free], partial, rcond=None)[0]
            resid = y - Xs @ beta
            return beta / scale, float(resid @ resid), sweep
    raise NumericalError(f"lasso did not converge within {max_sweeps} sweeps: "
                         f"last largest change {max_delta:.3g} at column [{pen[worst]}]",
                         [int(pen[worst])])


def lasso_kkt_residual(X, y, beta, lam: float, penalized) -> float:
    """Largest violation of the lasso stationarity conditions (standardized scale)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    N, p = X.shape
    penalized = np.asarray(penalized, dtype=bool)
    scale = _lasso_scale(X, penalized)
    Xs = X / scale
    beta_std = np.asarray(beta, dtype=float) * scale
    g = Xs.T @ (y - Xs @ beta_std) / N
    worst = 0.0
    for j in range(p):
        if not penalized[j]:
            worst = max(worst, abs(g[j]))
        elif beta_std[j] != 0.0:
            worst = max(worst, abs(g[j] - lam * np.sign(beta_std[j])))
        else:
            worst = max(worst, max(abs(g[j]) - lam, 0.0))
    return worst


def _fit(design: DesignMatrix, spec: ModelSpec, window, train) -> FitResult:
    """Fit ``spec`` on the design's rows ``train``, its training window ``window``.

    OLS reads the model's columns from the window's R factor, which every
    model on the design's rows shares, and lists the columns it leaves out
    under ``dropped``. The lasso reads the columns themselves.
    """
    y = design.y[train]
    if spec.lasso is None:
        if window not in design._windows:
            XY = np.column_stack([design.X[train], y])
            design._windows[window] = R = np.zeros((XY.shape[1],) * 2)
            R[:min(XY.shape)] = np.linalg.qr(XY, mode="r")
        kept, beta, rss = _least_squares(design._windows[window], design.cols, y.size)
    else:
        penalized = np.array([c.group != "intercept" for c in design.columns])
        try:
            beta, rss, _ = lasso_cd(design.X[train][:, design.cols], y, spec.lasso, penalized)
        except NumericalError as exc:
            names = [design.columns[i].name for i in exc.columns]
            raise NumericalError(f"{exc} ({', '.join(names)})" if names else str(exc),
                                 exc.columns) from None
        kept = range(len(design.columns))
    is_kept = set(kept)
    dropped = tuple(c.name for i, c in enumerate(design.columns) if i not in is_kept)
    return FitResult(columns=design.columns, kept=tuple(kept), beta=beta,
                     dropped=dropped, rss=rss, nobs=y.size)


def fit_design(design: DesignMatrix, spec: ModelSpec) -> FitResult:
    """Fit ``spec`` on every row of ``design``: the lasso, or OLS on ``_least_squares``' columns."""
    return _fit(design, spec, None, slice(None))


@dataclass(frozen=True)
class PredictionRow:
    district: str
    month: int
    y_true: float
    y_pred: float
    fold: int


@dataclass(frozen=True)
class CVReport:
    fold_rmse: tuple
    mean_rmse: float
    country_rmse: dict[str, float]
    district_rmse: dict[str, float]
    predictions: tuple[PredictionRow, ...]


def month_folds(start: int, end: int, folds: int) -> list[list[int]]:
    """Contiguous equal-length month blocks; the remainder joins the last fold."""
    months_all = list(range(start, end + 1))
    if folds < 2:
        raise ConfigError("need at least 2 folds")
    if folds > len(months_all):
        raise DataError(f"cannot split {len(months_all)} months into {folds} folds")
    base = len(months_all) // folds
    blocks = [months_all[i * base : (i + 1) * base] for i in range(folds)]
    blocks[-1].extend(months_all[folds * base :])
    return blocks


def fold_rows(months: np.ndarray, block) -> tuple[np.ndarray, np.ndarray]:
    """Row masks of the fold testing ``block``: train before its first month, test within it."""
    return months < block[0], (months >= block[0]) & (months <= block[-1])


def cross_validate_design(design: DesignMatrix, spec: ModelSpec, panel: PanelDataset,
                          folds: int = 10, min_train_rows: int = 0) -> CVReport:
    """Expanding-window cross-validation: test fold i trains on folds 1..i-1."""
    blocks = month_folds(panel.start, panel.end, folds)
    months = np.array([m for _, m in design.rows])
    fold_rmse: list = []
    reasons = []
    predictions: list[PredictionRow] = []
    for i in range(1, folds):
        train, test = (np.flatnonzero(mask) for mask in fold_rows(months, blocks[i]))
        reason = None
        if train.size == 0 or test.size == 0 or train.size < min_train_rows:
            reason = (f"{train.size} training rows (need {max(min_train_rows, 1)}), "
                      f"{test.size} test rows")
        else:
            try:
                result = _fit(design, spec, blocks[i][0], train)
            except (DataError, NumericalError) as exc:
                reason = str(exc)
        if reason is not None:
            warnings.warn(f"fold {i + 1}: unusable training window ({reason}), "
                          "excluded from the average")
            fold_rmse.append(None)
            reasons.append(f"fold {i + 1}: {reason}")
            continue
        yhat = design.X[test][:, [design.cols[k] for k in result.kept]] @ result.beta
        err = yhat - design.y[test]
        fold_rmse.append(float(np.sqrt(np.mean(err**2))))
        for j, yp in zip(test, yhat):
            d, t = design.rows[j]
            predictions.append(PredictionRow(d, t, float(design.y[j]), float(yp), i + 1))
    valid = [r for r in fold_rmse if r is not None]
    if not valid:
        raise DataError("cross-validation produced no scored folds ("
                        + "; ".join(reasons) + ")")
    by_country: dict[str, list] = {}
    by_district: dict[str, list] = {}
    for p in predictions:
        by_country.setdefault(panel.country_of(p.district), []).append(p)
        by_district.setdefault(p.district, []).append(p)

    def _rmse(rows) -> float:
        e = np.array([r.y_pred - r.y_true for r in rows])
        return float(np.sqrt(np.mean(e**2)))

    return CVReport(
        fold_rmse=tuple(fold_rmse),
        mean_rmse=float(np.mean(valid)),
        country_rmse={c: _rmse(rows) for c, rows in sorted(by_country.items())},
        district_rmse={d: _rmse(rows) for d, rows in sorted(by_district.items())},
        predictions=tuple(predictions),
    )


@dataclass(frozen=True)
class AblationResult:
    cluster_id: int
    label: str
    mean_delta: float
    district_delta: dict[str, float]


def ablate(design: DesignMatrix, spec: ModelSpec, panel: PanelDataset, combined: CVReport,
           clusters, folds: int = 10, min_train_rows: int = 0) -> list[AblationResult]:
    """Refit with each news-factor cluster removed; report RMSE increases.

    ``design`` is ``spec``'s design and ``combined`` its CV report at
    ``min_train_rows``; ``clusters`` are ``FeatureCluster`` records. An ablated
    design is an index set of ``design``'s columns and fits from the same R
    factors, so removing every cluster reproduces the baseline column set exactly.
    """
    results = []
    for cluster in clusters:
        keep = [i for i, c in enumerate(design.columns) if c.feature not in cluster.members]
        sub = replace(design, columns=tuple(design.columns[i] for i in keep),
                      cols=tuple(design.cols[i] for i in keep))
        report = cross_validate_design(sub, spec, panel, folds,
                                       min_train_rows=min_train_rows)
        deltas = {
            d: report.district_rmse[d] - combined.district_rmse[d]
            for d in combined.district_rmse
            if d in report.district_rmse
        }
        results.append(AblationResult(
            cluster_id=cluster.cluster_id,
            label=cluster.label,
            mean_delta=report.mean_rmse - combined.mean_rmse,
            district_delta=deltas,
        ))
    return results


def percentile_ranks(values) -> np.ndarray:
    """rank/(N-1) transform with average ranks for ties."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return np.zeros(v.size)
    return (_average_ranks(v) - 1.0) / (v.size - 1)


@dataclass(frozen=True)
class AssociationRow:
    indicator: str
    feature: str
    spearman_r: float
    n_districts: int


def validate_factors(panel: PanelDataset, factors: NewsFactors):
    """Associate each traditional indicator with its best news factor.

    Districts are summarized by each series' maximum monthly value, the news
    factors by their undifferenced shares in ``factors``; the best factor
    maximizes Spearman correlation across districts. Returns (association
    rows, percentile tables) where the percentile tables hold the
    rank-transformed district summaries for plotting.
    """
    district_ids = sorted(panel.districts)
    if len(district_ids) < MIN_DISTRICTS:
        raise DataError(f"need at least {MIN_DISTRICTS} districts")
    news_summary = {}
    for w in panel.feature_order:
        f = factors.features.index(w)
        news_summary[w] = {d: float(factors.values[f, panel.rows[d]].max())
                           for d in district_ids}
    rows: list[AssociationRow] = []
    percentiles = {"traditional": {}, "news": {}}
    for k in TRADITIONAL_INDICATORS:
        per = {d: panel.traditional[k][panel.rows[d]] for d in district_ids}
        summary = {d: float(np.nanmax(v)) for d, v in per.items() if np.isfinite(v).any()}
        if len(summary) < MIN_DISTRICTS or np.ptp(list(summary.values())) == 0.0:
            warnings.warn(f"indicator {k!r}: constant or missing cross-section, skipped")
            continue
        ds = sorted(summary)
        a = [summary[d] for d in ds]
        best = None
        for w in sorted(news_summary):
            b = [news_summary[w][d] for d in ds]
            if np.ptp(b) == 0.0:
                continue
            r = spearman(a, b)
            if best is None or r > best[0] + 1e-12:
                best = (r, w)
        if best is None:
            warnings.warn(f"indicator {k!r}: no comparable news factor")
            continue
        rows.append(AssociationRow(indicator=k, feature=best[1], spearman_r=best[0],
                                   n_districts=len(ds)))
        percentiles["traditional"][k] = dict(zip(ds, percentile_ranks(a)))
        wsum = news_summary[best[1]]
        percentiles["news"][best[1]] = dict(zip(district_ids, percentile_ranks(
            [wsum[d] for d in district_ids])))
    return rows, percentiles


def load_panel_csv(path, gaz: Gazetteer):
    """Read the district-month panel: IPC observations plus traditional indicators.

    The ipc_phase column is populated only at publication months; indicator
    cells must be finite and cover a contiguous month range per district, and
    no two rows may share a district and month. Returns (ipc, observed,
    traditional, (start, end)): the forward-filled phase, the published phase
    and each indicator are arrays of ``gaz.locations`` x months start..end,
    NaN outside coverage.
    """
    table = read_csv(path, "panel")
    missing = {"district_id", "month", "ipc_phase"} - set(table.header)
    if missing:
        raise DataError(f"panel {path} missing columns: {sorted(missing)}")
    districts, months = table.columns["district_id"], table.columns["month"]
    unknown = [d for d in dict.fromkeys(districts) if d not in gaz.districts]
    if unknown:
        table.fail(districts.index(unknown[0]), DataError(f"unknown district {unknown[0]!r}"))
    month_of = table.parse_distinct(months, parse_month)
    cells = {}  # column -> (rows with a value, the values)
    for k in ("ipc_phase", *(k for k in TRADITIONAL_INDICATORS if k in table.columns)):
        text = list(map(str.strip, table.columns[k]))
        rows = list(itertools.compress(range(len(text)), text))  # a blank cell holds no value
        values = np.array(table.parse(itertools.compress(text, text), float, rows), dtype=float)
        rows = np.array(rows[:len(values)], dtype=int)
        if k == "ipc_phase":
            bad = ~((values >= 1) & (values <= 5) & (values == np.trunc(values)))
            error = "IPC phase must be an integer 1..5"
        else:
            bad = ~np.isfinite(values)
            error = f"indicator {k} must be finite"
        if bad.any():
            table.fail(rows[bad.argmax()], DataError(error))
        cells[k] = rows, values
    table.check()
    if not len(cells["ipc_phase"][0]):
        raise DataError(f"panel {path} holds no IPC observations")
    start, end = min(month_of.values()), max(month_of.values())
    at = {loc: i for i, loc in enumerate(gaz.locations)}
    shape = (len(at), end - start + 1)
    i = np.fromiter(map(at.__getitem__, districts), int, len(districts))
    j = np.fromiter(map(month_of.__getitem__, months), int, len(months)) - start
    cell = (i * shape[1] + j).tolist()
    first_row = dict(zip(cell[::-1], range(len(cell) - 1, -1, -1)))
    if len(first_row) < len(cell):
        r = next(r for r, c in enumerate(cell) if first_row[c] != r)
        raise DataError(f"{path}:{table.lines[r]}: bad panel row: {districts[r]} "
                        f"{months[r]} is already on line {table.lines[first_row[cell[r]]]}")

    def on_grid(rows, values):
        grid = np.full(shape, np.nan)
        grid[i[rows], j[rows]] = values
        return grid

    observed = on_grid(*cells["ipc_phase"])
    traditional = {}
    for k in TRADITIONAL_INDICATORS:
        traditional[k] = on_grid(*cells[k]) if k in cells else np.full(shape, np.nan)
        given = ~np.isnan(traditional[k])
        gapped = (np.diff(given, axis=1, prepend=False) & given).sum(axis=1) > 1  # > 1 run
        if gapped.any():
            rows = cells[k][0]
            d = districts[rows[gapped[i[rows]]][0]]  # in order of first use
            raise DataError(f"indicator {k!r} for {d!r} is not contiguous")
    return forward_fill_ipc(observed), observed, traditional, (start, end)


def assemble_panel(
    gaz: Gazetteer,
    panel_csv,
    factors: NewsFactors,
    retained: dict[str, int],
) -> PanelDataset:
    """Build the modeling panel from ``load_panel_csv``'s result and the news factors.

    ``retained`` maps each retained feature of ``factors`` to the
    differencing order to apply before modeling. The month grid spans the
    panel file's months and the factors' months.
    """
    ipc, observed, traditional, (start, end) = panel_csv
    if list(factors.locations) != gaz.locations:
        raise DataError("news factors' locations are not the gazetteer's")
    n_cube = factors.values.shape[2]
    g0 = min(start, factors.start)
    g1 = max(end, factors.start + n_cube - 1)

    def on_grid(values, first):
        after = g1 - first - values.shape[-1] + 1
        return np.pad(values, [(0, 0)] * (values.ndim - 1) + [(first - g0, after)],
                      constant_values=np.nan)

    cube = on_grid(factors.values, factors.start)
    f_of = {w: f for f, w in enumerate(factors.features)}
    transformed = {}
    for w, order_d in retained.items():
        if w not in f_of:
            raise DataError(f"retained feature {w!r} has no factor series")
        if n_cube <= order_d:
            raise DataError("series too short to difference")
        transformed[w] = diff_on_grid(cube[f_of[w]], order_d)
    return PanelDataset(
        districts={d: gaz.districts[d] for d, has in
                   zip(gaz.locations, np.isfinite(observed).any(axis=1)) if has},
        start=start,
        end=end,
        publication_months=publication_months(start, end),
        rows={loc: i for i, loc in enumerate(factors.locations)},
        grid_start=g0,
        ipc=on_grid(ipc, start),
        ipc_observed=on_grid(observed, start),
        traditional={k: on_grid(v, start) for k, v in traditional.items()},
        factors=transformed,
        feature_order=tuple(sorted(retained)),
    )

