import json
import math
import zlib
from collections import Counter

# newswarn before numpy: importing newswarn pins BLAS to one thread, and the pin
# holds only while numpy is not yet loaded, so in-process tests compute as the
# command line does.
from newswarn.corpus import District, Gazetteer, read_corpus  # isort: skip
from newswarn.semantics import EmbeddingTable  # isort: skip

import numpy as np
import pytest

# The smallest SyntheticSpec on which every stage runs.
TINY = dict(districts=8, countries=1, province_size=4, months=48, decoys=4,
            articles_per_country_month=40, embedding_dim=16)


def make_gazetteer():
    rows = [
        District("so-jam", "Jamaame", (), "so-lower-juba", "SO", 0.07, 42.75),
        District("so-kis", "Kismayo", ("chisimayu",), "so-lower-juba", "SO", -0.36, 42.55),
        District("et-maj", "Godere", ("Majang",), "et-gambela", "ET", 7.3, 35.1),
        District("et-gog", "Gog", (), "et-gambela", "ET", 7.5, 34.7),
    ]
    return Gazetteer(rows)


@pytest.fixture
def gazetteer():
    return make_gazetteer()


def write_corpus(path, articles):
    with open(path, "w", encoding="utf-8") as fh:
        for art in articles:
            fh.write(json.dumps(art) + "\n")
    return path


def article(i, date, text, countries=("SO",), source="wire"):
    return {"id": f"a{i:03d}", "date": date, "source": source,
            "countries": list(countries), "text": text}


def article_tokens(corpus):
    """Each article's tokens, as a tuple of words."""
    words = [corpus.vocabulary[i] for i in corpus.token_ids.tolist()]
    bounds = corpus.offsets.tolist()
    return [tuple(words[a:b]) for a, b in zip(bounds, bounds[1:])]


def ngram_occurrences(corpus):
    """Occurrences of each contiguous 1..3-gram of ``corpus``, space-joined."""
    keys, counts = corpus.ngram_counts()
    return Counter(dict(zip(map(corpus.ngram, keys.tolist()), counts.tolist())))


@pytest.fixture
def small_corpus(tmp_path):
    articles = [
        article(0, "2011-01-05", "famine returns to Jamaame after drought"),
        article(1, "2011-01-12", "market day in Kismayo"),
        article(2, "2011-02-03", "rains improve across the region"),
    ]
    path = write_corpus(tmp_path / "corpus.jsonl", articles)
    return read_corpus(path, ("2011-01", "2011-02"))


def average_ranks_loop(v):
    """1-based ranks of ``v``, ties averaged, by walking each run of equal sorted values."""
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    i = 0
    sorted_v = v[order]
    while i < v.size:
        j = i
        while j + 1 < v.size and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def article_records_loop(rng, spec, districts, z, fillers):
    """The synthetic corpus records, drawing each article's values one call at a time.

    The order of draws that ``synth._articles`` must keep: the planted, extra-seed
    and decoy mentions and the target gate are one scalar ``rng.random()`` each.
    """
    from newswarn.months import month_of, parse_month, year_of
    from newswarn.synth import DECOY_MENTION, START

    targets = ("famine", "hunger", "starvation")
    decoys = [f"decoy{i:02d}" for i in range(spec.decoys)]
    by_country = {}
    for d in districts:
        by_country.setdefault(d.country, []).append(d)
    start = parse_month(START)
    article_id = 0
    for j in range(spec.months):
        t = start + j
        for country, homes in by_country.items():
            weights = np.array([
                spec.undercover_weight if spec.undercover_province == d.province_id else 1.0
                for d in homes
            ])
            weights = weights / weights.sum()
            count = int(rng.poisson(spec.articles_per_country_month))
            for _ in range(count):
                d = homes[int(rng.choice(len(homes), p=weights))]
                tokens = list(rng.choice(fillers, size=int(rng.integers(2, 5))))
                tokens.append(d.name)
                tokens.extend(rng.choice(fillers, size=int(rng.integers(1, 3))))
                mentioned_planted = False
                for p in spec.planted:
                    rate = spec.mention_base + spec.mention_boost * z[(p.ngram, d.district_id)][j]
                    if rng.random() < rate:
                        tokens.append(p.ngram)
                        mentioned_planted = True
                for extra in spec.extra_seeds:
                    if rng.random() < spec.mention_base:
                        tokens.append(extra)
                for g in decoys:
                    if rng.random() < DECOY_MENTION:
                        tokens.append(g)
                if rng.random() < (0.25 if mentioned_planted else 0.03):
                    tokens.append(str(rng.choice(targets)))
                tokens.extend(rng.choice(fillers, size=int(rng.integers(0, 2))))
                day = int(rng.integers(1, 28))
                yield {
                    "id": f"a{article_id:07d}",
                    "date": f"{year_of(t):04d}-{month_of(t):02d}-{day:02d}",
                    "source": f"wire-{int(rng.integers(0, 5))}",
                    "countries": [country],
                    "text": " ".join(tokens),
                }
                article_id += 1


def embedding_table(**vectors):
    dim = len(next(iter(vectors.values())))
    table = {}
    for word, vec in vectors.items():
        arr = np.asarray(vec, dtype=float)
        arr.flags.writeable = False
        table[word] = arr
    return EmbeddingTable(vectors=table, dim=dim)


def grid_districts(n, countries=1, province_size=3):
    per_country = max(1, n // countries)
    out = []
    for i in range(n):
        c = min(i // per_country, countries - 1)
        country = f"A{chr(ord('A') + c)}"
        out.append(District(
            f"d{i:02d}", f"town{i:02d}", (), f"{country}-P{i // province_size}",
            country, 0.5 * (i // 5), 0.5 * (i % 5) + 8.0 * c,
        ))
    return out


def assert_exact_shares(loaded, factors):
    """``loaded.values`` is ``factors``' count over denominator, cell by cell, to the bit."""
    denominators = np.broadcast_to(factors.denominators, factors.counts.shape)
    want = np.array([float(c) / float(d) if d else 0.0 for c, d in
                     zip(factors.counts.ravel().tolist(), denominators.ravel().tolist())],
                    dtype=np.float64)
    assert loaded.values.shape == factors.counts.shape
    assert np.array_equal(loaded.values.ravel().view(np.uint64), want.view(np.uint64))


def assert_same_bytes(directory, a, b):
    """The factor files ``a.npy`` and ``a.json`` in ``directory`` equal ``b``'s, byte for byte."""
    for suffix in ("npy", "json"):
        assert (directory / f"{a}.{suffix}").read_bytes() == \
               (directory / f"{b}.{suffix}").read_bytes()


def make_panel(**kwargs):
    """Random but well-formed PanelDataset for unit tests."""
    return make_panel_and_factors(**kwargs)[0]


def make_panel_and_factors(n_districts=6, months=96, features=("alpha", "beta", "gamma"),
                           seed=0, start="2010-01", countries=1, lead=0):
    """``make_panel``'s panel and the NewsFactors cube its factor series come from.

    The cube opens ``lead`` months before the panel, and the month grid with it.
    Every feature is retained undifferenced, so ``panel.factors`` holds the
    cube's slices as they are.
    """
    from newswarn.corpus import NewsFactors
    from newswarn.months import parse_month, publication_months
    from newswarn.panel import (PanelDataset, TRADITIONAL_INDICATORS,
                                forward_fill_ipc)

    rng = np.random.default_rng(seed)
    t0 = parse_month(start)
    t1 = t0 + months - 1
    districts = {d.district_id: d for d in grid_districts(n_districts,
                                                          countries=countries)}
    by_level = {
        "district": sorted(districts),
        "province": sorted({rec.province_id for rec in districts.values()}),
        "country": sorted({rec.country for rec in districts.values()}),
    }
    locations = [loc for locs in by_level.values() for loc in locs]
    row = {loc: i for i, loc in enumerate(locations)}
    pub = publication_months(t0, t1)
    shape = (len(locations), lead + months)
    ipc_obs = np.full(shape, np.nan)
    for d in districts:
        phases = rng.choice([1, 2, 2, 3], size=len(pub)).astype(float)
        ipc_obs[row[d], [lead + t - t0 for t in pub]] = phases
    ipc = forward_fill_ipc(ipc_obs)
    traditional = {}
    for k in TRADITIONAL_INDICATORS:
        traditional[k] = np.full(shape, np.nan)
        for d in districts:
            traditional[k][row[d], lead:] = rng.normal(0, 1, months)
    features = tuple(features)
    # about 5% of 100 to 300 articles a month co-mention each feature and location
    denominators = rng.integers(100, 300, shape)
    counts = rng.binomial(denominators, 0.05, (len(features),) + shape).astype(np.uint16)
    cube = NewsFactors(
        features=features, locations=tuple(locations),
        levels=tuple(level for level, locs in by_level.items() for _ in locs),
        start=t0 - lead, counts=counts, denominators=denominators,
    )
    values = cube.values
    panel = PanelDataset(
        districts=districts, start=t0, end=t1, publication_months=pub,
        rows=row, grid_start=t0 - lead,
        ipc=ipc, ipc_observed=ipc_obs, traditional=traditional,
        factors={w: values[f].copy() for f, w in enumerate(features)},
        feature_order=features,
    )
    return panel, cube


def feature_clusters(features, n_clusters):
    """Clusters 1..n_clusters, cluster k holding every n_clusters-th feature from the k-th."""
    from newswarn.semantics import FeatureCluster

    return [FeatureCluster(k, f"cluster-{k}", tuple(features[k - 1::n_clusters]))
            for k in range(1, n_clusters + 1)]


def panel_value(panel, values, loc, t):
    """The value of ``values`` (a panel array) at ``loc`` in month ``t``; KeyError if uncovered."""
    j = t - panel.grid_start
    if not 0 <= j < values.shape[1] or not np.isfinite(values[panel.rows[loc], j]):
        raise KeyError(f"{loc} has no value in month {t}")
    return float(values[panel.rows[loc], j])


def plant_adl_response(panel, spec, coef, base=2.0):
    """Rewrite panel.ipc so y follows the design relation exactly (no noise)."""
    t0, t1 = panel.start, panel.end
    burn = 3 * spec.y_lags
    for d in sorted(panel.districts):
        prov, country = panel.province_of(d), panel.country_of(d)
        y = np.full(t1 - t0 + 1, base)
        for t in range(t0 + burn, t1 + 1):
            val = coef.get(f"intercept[{d}]", 0.0)
            for m in range(1, spec.y_lags + 1):
                val += coef.get(f"y_lag[m={m}]", 0.0) * y[t - 3 * m - t0]
            if spec.uses_traditional:
                for k, values in panel.traditional.items():
                    for n in range(1, spec.factor_lags + 1):
                        val += coef.get(f"trad[{k},n={n}]", 0.0) * \
                            panel_value(panel, values, d, t - spec.delay - n)
            if spec.uses_news:
                for w in panel.feature_order:
                    for level, loc in (("district", d), ("province", prov),
                                       ("country", country)):
                        for n in range(1, spec.factor_lags + 1):
                            val += coef.get(f"news[{w},{level},n={n}]", 0.0) * \
                                panel_value(panel, panel.factors[w], loc, t - spec.delay - n)
            y[t - t0] = val
        panel.ipc[panel.rows[d], t0 - panel.grid_start : t1 - panel.grid_start + 1] = y


def design_loop(panel, spec):
    """``build_design``'s output rebuilt cell by cell: the reference builder.

    Every cell is read from its array at month t - offset. A district has no
    rows once some block covers none of its months. Else each block's first
    and last covered month bound its rows: a bound moves only when it is
    stricter than the bound so far, starting from the panel's months.
    """
    from newswarn.panel import TRADITIONAL_INDICATORS, Column

    g0, n_grid = panel.grid_start, panel.ipc.shape[1]
    ds = sorted(panel.districts)
    features = panel.feature_order

    seen = {}

    def has(values, loc):
        key = (id(values), loc)
        if key not in seen:
            seen[key] = any(np.isfinite(v) for v in values[panel.rows[loc]])
        return seen[key]

    def cell(values, loc, t):
        return float(values[panel.rows[loc], t - g0]) if 0 <= t - g0 < n_grid else float("nan")

    def at(values, loc_of=lambda d: d):
        return lambda d, t: cell(values, loc_of(d), t) if has(values, loc_of(d)) else None

    def around(values):
        def mean(d, t):
            cells = [cell(values, n, t) for n in panel.neighbors(d) if has(values, n)]
            return sum(cells[1:], cells[0]) / len(cells) if cells else None
        return mean

    blocks = []  # (columns, source, span); undated sources give constants

    def phase(name, source):
        cols = [Column(f"{name}[m={m}]", offset=3 * m) for m in range(1, spec.y_lags + 1)]
        blocks.append((cols, source, (3 * spec.y_lags, 0)))

    def lagged(name, source, feature=None):
        cols = [Column(f"{name},n={n}]", offset=spec.delay + n, feature=feature)
                for n in range(1, spec.factor_lags + 1)]
        blocks.append((cols, source, (spec.delay + spec.factor_lags, spec.delay + 1)))

    def undated(name, labels, source):
        blocks.append(([Column(f"{name}[{s}]", None) for s in labels], source, None))

    undated("intercept", ds, lambda d: [float(d == e) for e in ds])
    phase("y_lag", at(panel.ipc))
    if spec.uses_traditional:
        for k in TRADITIONAL_INDICATORS:
            lagged(f"trad[{k}", at(panel.traditional[k]))
    if spec.uses_news:
        for w in features:
            for level, loc_of in (("district", lambda d: d), ("province", panel.province_of),
                                  ("country", panel.country_of)):
                lagged(f"news[{w},{level}", at(panel.factors[w], loc_of), w)
    if spec.spatial:
        phase("sp_y", around(panel.ipc))
        if spec.uses_traditional:
            for k in TRADITIONAL_INDICATORS:
                lagged(f"sp_trad[{k}", around(panel.traditional[k]))
        if spec.uses_news:
            for w in features:
                lagged(f"sp_news[{w}", around(panel.factors[w]), w)

    X, y, rows = [], [], []
    for d in ds:
        lo, hi = panel.start, panel.end
        for _, source, span in blocks:
            if span is None:
                continue
            if source(d, g0) is None:
                break
            covered = [t for t in range(g0, g0 + n_grid) if np.isfinite(source(d, t))]
            lo, hi = max(lo, covered[0] + span[0]), min(hi, covered[-1] + span[1])
        else:
            for t in range(lo, hi + 1):
                X.append([v for cols, source, span in blocks for v in (
                    source(d) if span is None else [source(d, t - c.offset) for c in cols])])
                y.append(cell(panel.ipc, d, t))
                rows.append((d, t))
    columns = tuple(c for cols, _, _ in blocks for c in cols)
    return np.array(X).reshape(len(rows), len(columns)), np.array(y), columns, tuple(rows)


def planted_coefficients(panel, spec, rng, news_scale=1.0):
    """A stable coefficient vector keyed by design column names."""
    from newswarn.panel import build_design

    columns = build_design(panel, spec).columns
    coef = {}
    for name in (f"intercept[{d}]" for d in sorted(panel.districts)):
        coef[name] = 0.8 + 0.05 * (zlib.crc32(name.encode()) % 7)
    for c in columns:
        if c.name.startswith("y_lag["):
            coef[c.name] = 0.04
        elif c.name.startswith("trad["):
            coef[c.name] = float(rng.normal(0, 0.02))
        elif c.name.startswith("news["):
            coef[c.name] = float(rng.normal(0, 0.2)) * news_scale
        else:
            coef[c.name] = 0.0
    return coef


def lasso_r(X, y, lam, n_d=0):
    """``panel.lasso_fit`` as ``panel._fit`` calls it, with X's first ``n_d`` columns absorbed.

    Those are 0/1 intercept dummies of consecutive row groups, in order, a
    zero column for a group with no rows. [X, y] less them is demeaned within
    the groups and factored by one QR; the norms and sds of its columns are
    taken before demeaning. Every other column is penalized. Returns (beta,
    rss), beta over every column of X: each intercept is its group's mean of
    y less its means of the other columns times their coefficients.
    """
    from newswarn import panel
    from newswarn.tsstats import _within

    X = np.asarray(X, dtype=float)
    D, Z = X[:, :n_d].astype(bool), X[:, n_d:]
    present = np.flatnonzero(D.any(axis=0))
    XY = np.column_stack([Z, y])
    means = _within(XY, D.sum(axis=0)[present])
    R = np.linalg.qr(XY, mode="r")
    b, rss = panel.lasso_fit(R, np.linalg.norm(Z, axis=0),
                             lasso_scale(Z, np.ones(Z.shape[1], bool)), lam, len(y))
    beta = np.zeros(X.shape[1])
    beta[n_d:] = b
    beta[present] = means[:, -1] - means[:, :-1] @ b
    return beta, rss


def dummy_columns(design, train=slice(None)):
    """``design``'s model columns on its rows ``train`` behind explicit intercept dummies.

    One 0/1 column ``intercept[d]`` per district of the design leads, zero
    where d has no row in ``train``: the form of a fit with its intercepts as
    columns, which the oracles take. Returns (X, y, names, penalized), where
    the lasso penalizes every column but the dummies.
    """
    who = np.array([d for d, _ in design.rows])[train]
    D = (who[:, None] == np.array(design.districts)).astype(float)
    names = [f"intercept[{d}]" for d in design.districts] + [c.name for c in design.columns]
    penalized = np.arange(len(names)) >= len(design.districts)
    return np.column_stack([D, design.X[train][:, design.cols]]), design.y[train], names, penalized


LASSO_ROWS_TOL = 1e-13  # largest final-sweep change at which ``lasso_rows`` has converged


def lasso_scale(X, penalized):
    """Column scales of the lasso objective: a penalized column's sd, else 1."""
    sd = X.std(axis=0)
    return np.where(penalized & (sd > 0), sd, 1.0)


def soft_threshold(rho, lam):
    return rho - lam if rho > lam else rho + lam if rho < -lam else 0.0


def lasso_rows(X, y, lam, penalized):
    """The lasso of ``panel.lasso_fit`` by cyclic coordinate descent on the rows of X.

    The scaled penalized columns and y are projected off the unpenalized
    columns with an SVD (whose own eps cut drops a zero column), descent
    updates an N-row residual, and the unpenalized coefficients are the
    least-squares fit to what the penalized ones leave. Returns (beta, rss)
    once a sweep changes no standardized coefficient by more than
    ``LASSO_ROWS_TOL``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    N, p = X.shape
    penalized = np.asarray(penalized, dtype=bool)
    scale = lasso_scale(X, penalized)
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
    for _ in range(100000):
        max_delta = 0.0
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
                max_delta = max(max_delta, abs(delta))
        if max_delta <= LASSO_ROWS_TOL:
            beta = np.zeros(p)
            beta[pen] = b
            if free.size:
                partial = y - Xs[:, pen] @ b
                beta[free] = np.linalg.lstsq(Xs[:, free], partial, rcond=None)[0]
            resid = y - Xs @ beta
            return beta / scale, float(resid @ resid)
    raise AssertionError(f"lasso_rows did not converge: last largest change {max_delta:.3g}")


def lasso_objective(X, y, beta, lam, penalized):
    """(1/2N)*RSS + lam*sum_penalized |beta_std|, the objective both lasso routes minimize."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    penalized = np.asarray(penalized, dtype=bool)
    resid = y - X @ beta
    std = np.asarray(beta, dtype=float) * lasso_scale(X, penalized)
    return resid @ resid / (2 * y.size) + lam * np.abs(std[penalized]).sum()


def lasso_kkt_residual(X, y, beta, lam, penalized) -> float:
    """Largest violation of the lasso stationarity conditions (standardized scale)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    N, p = X.shape
    penalized = np.asarray(penalized, dtype=bool)
    scale = lasso_scale(X, penalized)
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


def difference_until_stationary(s, max_d: int = 2, max_lag: int | None = None,
                                level: float = 0.05):
    """Smallest differencing order at which the series passes the ADF test.

    Criterion 2's per-series procedure for Granger power and size.
    """
    from newswarn.errors import NumericalError
    from newswarn.tsstats import adf_test

    current = np.asarray(s, dtype=float).ravel()
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


def adl_design(y, x, n, t0):
    """The single-pair design ``[1, y_1..y_n, x_1..x_n]`` of the rows from t0, and its response."""
    cols = [np.ones(y.size - t0)]
    for i in range(1, n + 1):
        cols.append(y[t0 - i : y.size - i])
    for i in range(1, n + 1):
        cols.append(x[t0 - i : x.size - i])
    return np.column_stack(cols), y[t0:]


def panel_stack_loop(y_by, x_by, n, t0):
    """Stacked district designs with intercept dummies, by ``column_stack``: the reference stack.

    Returns ``(X, resp, n_d)``, X's lag columns ``y_1..y_n, x_1..x_n``.
    """
    from newswarn.errors import DataError

    blocks_X, blocks_y = [], []
    for key in sorted(y_by):
        ya, xa = np.asarray(y_by[key], dtype=float), np.asarray(x_by[key], dtype=float)
        if ya.size != xa.size or ya.size <= t0:
            continue
        X, resp = adl_design(ya, xa, n, t0)
        blocks_X.append(X[:, 1:])  # drop the per-block constant
        blocks_y.append(resp)
    if not blocks_X:
        raise DataError("no district has enough aligned observations")
    n_d = len(blocks_y)
    dummies = np.repeat(np.eye(n_d), [b.size for b in blocks_y], axis=0)
    return np.column_stack([dummies, np.vstack(blocks_X)]), np.concatenate(blocks_y), n_d


def adf_loop(s, max_lag=None, level=0.05):
    """The ADF test of one series, each design built by ``column_stack``: the reference ADF.

    Each order's fit is one single-matrix QR, the rank rule that of ``_r_factor``.
    """
    from newswarn.errors import DataError, NumericalError
    from newswarn.tsstats import (AdfResult, _adf_critical, _aic_order, _nested_rss,
                                  _r_factor)

    x = np.asarray(s, dtype=float).ravel()
    T = x.size
    if max_lag is None:
        max_lag = min(int(math.ceil(12.0 * (T / 100.0) ** 0.25)), max(T - 13, 0))
    if T < 12 + max_lag:
        raise DataError(f"series of length {T} too short for ADF with max_lag={max_lag}")
    if np.ptp(x) == 0.0:
        raise NumericalError("degenerate series: constant input to ADF test")
    dy = np.diff(x)

    def design(k, j0):
        cols = [np.ones(dy.size - j0), x[j0 : x.size - 1]]
        for i in range(1, k + 1):
            cols.append(dy[j0 - i : dy.size - i])
        return np.column_stack(cols), dy[j0:]

    X, resp = design(max_lag, max_lag)
    sizes = range(2, max_lag + 3)
    k = _aic_order(_nested_rss(np.column_stack([X, resp]), sizes), resp.size, sizes)
    X, resp = design(k, k)
    p = k + 2
    R = _r_factor(np.column_stack([X[:, [0, *range(2, p), 1]], resp]), [p])
    sigma = abs(R[p, p]) / math.sqrt(resp.size - p)
    if sigma == 0.0:
        raise NumericalError("degenerate ADF regression")
    stat = float(np.sign(R[p - 1, p - 1]) * R[p - 1, p] / sigma)
    cv = _adf_critical(level, resp.size)
    return AdfResult(statistic=stat, stationary=stat < cv, lag=k,
                     nobs=resp.size, critical_value=cv, level=level)


def panel_diff_order_loop(series, max_d, level):
    """The majority-vote differencing order, one ``adf_loop`` per series: the reference vote."""
    from newswarn.errors import DataError, NumericalError

    current = [s for s in series if np.ptp(s) > 0.0]
    if not current:
        return None
    for d in range(max_d + 1):
        passing = testable = 0
        for s in current:
            try:
                result = adf_loop(s, level=level)
            except (DataError, NumericalError):
                continue
            testable += 1
            passing += result.stationary
        if testable and passing * 2 >= testable:
            return d
        if d < max_d:
            current = [np.diff(s) for s in current]
    return None


def load_panel_csv_loop(path, gaz):
    """The row-by-row panel reader that ``panel.load_panel_csv`` replaced: its oracle.

    A later row for the same district and month overwrites an earlier one.
    """
    import csv
    from newswarn.errors import DataError
    from newswarn.months import parse_month
    from newswarn.panel import TRADITIONAL_INDICATORS

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(reader.line_num, cells) for cells in reader if cells]
    for line, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}:{line}: bad panel row: "
                            f"{len(cells)} cells, header has {len(header)}")
    need = {"district_id", "month", "ipc_phase"}
    if not need <= set(header):
        raise DataError(f"panel {path} missing columns: {sorted(need - set(header))}")
    indicators = [k for k in TRADITIONAL_INDICATORS if k in header]
    ipc_obs, months_seen = {}, set()
    trad_cells = {k: {} for k in TRADITIONAL_INDICATORS}
    for lineno, cells in rows:
        row = dict(zip(header, cells))
        try:
            d = row["district_id"]
            if d not in gaz.districts:
                raise DataError(f"unknown district {d!r}")
            t = parse_month(row["month"])
            months_seen.add(t)
            phase_txt = row["ipc_phase"].strip()
            if phase_txt:
                phase = float(phase_txt)
                if not (1 <= phase <= 5 and phase == int(phase)):
                    raise DataError("IPC phase must be an integer 1..5")
                ipc_obs.setdefault(d, {})[t] = phase
            for k in indicators:
                cell = row[k].strip()
                if cell:
                    value = float(cell)
                    if not math.isfinite(value):
                        raise DataError(f"indicator {k} must be finite")
                    trad_cells[k].setdefault(d, {})[t] = value
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad panel row: {exc}") from None
    if not ipc_obs:
        raise DataError(f"panel {path} holds no IPC observations")
    start, end = min(months_seen), max(months_seen)
    at = {loc: i for i, loc in enumerate(gaz.locations)}
    shape = (len(at), end - start + 1)
    ipc, observed = np.full(shape, np.nan), np.full(shape, np.nan)
    for d, obs in ipc_obs.items():
        phase = np.nan
        for t in range(start, end + 1):
            phase = obs.get(t, phase)
            ipc[at[d], t - start] = phase
        observed[at[d], [t - start for t in obs]] = list(obs.values())
    traditional = {}
    for k, per in trad_cells.items():
        traditional[k] = np.full(shape, np.nan)
        for d, cells in per.items():
            ms = sorted(cells)
            if ms != list(range(ms[0], ms[0] + len(ms))):
                raise DataError(f"indicator {k!r} for {d!r} is not contiguous")
            traditional[k][at[d], ms[0] - start : ms[-1] - start + 1] = [cells[m] for m in ms]
    return ipc, observed, traditional, (start, end)


def load_embeddings_loop(path):
    """The line-by-line reader that ``semantics.load_embeddings`` replaced: its oracle."""
    import warnings
    from newswarn.errors import DataError

    vectors = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}:1: expected 'V D' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataError(f"{path}:1: expected integer 'V D' header") from None
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if len(parts) - 1 != dim:
                raise DataError(f"{path}:{lineno}: expected {dim} values, found {len(parts) - 1}")
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric vector component") from None
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite vector component")
            if word in vectors:
                warnings.warn(f"{path}:{lineno}: duplicate word {word!r}, keeping last")
            vec.flags.writeable = False
            vectors[word] = vec
    if len(vectors) != count:
        warnings.warn(f"{path}: header declares {count} words, parsed {len(vectors)}")
    return EmbeddingTable(vectors=vectors, dim=dim)


def read_grid_loop(path, kind, column, panel, by=""):
    """The row-by-row grid reader that ``pipeline._read_grid`` replaced: its oracle."""
    import csv
    from collections import defaultdict
    from newswarn.errors import DataError
    from newswarn.months import parse_month

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [(reader.line_num, cells) for cells in reader if cells]
    for line, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{path}:{line}: bad {kind} row: "
                            f"{len(cells)} cells, header has {len(header)}")
    grids = defaultdict(lambda: np.full(panel.ipc.shape, np.nan))
    for lineno, cells in rows:
        row = dict(zip(header, cells))
        try:
            i, j = panel.rows.get(row["district_id"]), parse_month(row["month"]) - panel.grid_start
            key, value = row[by] if by else "", float(row[column])
        except (DataError, KeyError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad {kind} row: {exc}") from None
        if i is not None and 0 <= j < panel.ipc.shape[1]:
            grids[key][i, j] = value
    return grids
