import json
import zlib

import numpy as np
import pytest

from newswarn.corpus import District, Gazetteer, read_corpus
from newswarn.semantics import EmbeddingTable


def make_gazetteer():
    rows = [
        District("so-jam", "Jamaame", (), "so-lower-juba", "SO", 0.07, 42.75,
                 dict(population=120000, area_km2=4800, ruggedness=0.1,
                      cropland_share=0.3, pasture_share=0.4)),
        District("so-kis", "Kismayo", ("chisimayu",), "so-lower-juba", "SO", -0.36, 42.55,
                 dict(population=180000, area_km2=5200, ruggedness=0.2,
                      cropland_share=0.2, pasture_share=0.5)),
        District("et-maj", "Godere", ("Majang",), "et-gambela", "ET", 7.3, 35.1,
                 dict(population=90000, area_km2=2100, ruggedness=0.6,
                      cropland_share=0.5, pasture_share=0.1)),
        District("et-gog", "Gog", (), "et-gambela", "ET", 7.5, 34.7,
                 dict(population=60000, area_km2=1800, ruggedness=0.5,
                      cropland_share=0.4, pasture_share=0.2)),
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

    targets = ("famine", "hunger", "starvation")
    decoys = [f"decoy{i:02d}" for i in range(spec.decoys)]
    by_country = {}
    for d in districts:
        by_country.setdefault(d.country, []).append(d)
    start = parse_month(spec.start)
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
                    if rng.random() < spec.decoy_mention:
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
            dict(population=1e5 + 1000 * i, area_km2=1000.0 + 10 * i,
                 ruggedness=0.1 * (i % 7), cropland_share=0.2 + 0.01 * (i % 30),
                 pasture_share=0.1 + 0.01 * (i % 20)),
        ))
    return out


def make_panel(**kwargs):
    """Random but well-formed PanelDataset for unit tests."""
    return make_panel_and_factors(**kwargs)[0]


def make_panel_and_factors(n_districts=6, months=96, features=("alpha", "beta", "gamma"),
                           seed=0, start="2010-01", n_clusters=None, countries=1):
    """``make_panel``'s panel and the NewsFactors cube its factor series come from.

    Every feature is retained undifferenced, so ``panel.factors`` holds the
    cube's series as they are.
    """
    from newswarn.corpus import NewsFactors
    from newswarn.months import parse_month, publication_months
    from newswarn.panel import (PanelDataset, TRADITIONAL_INDICATORS,
                                forward_fill_ipc)
    from newswarn.series import Series

    rng = np.random.default_rng(seed)
    t0 = parse_month(start)
    t1 = t0 + months - 1
    districts = {d.district_id: d for d in grid_districts(n_districts,
                                                          countries=countries)}
    pub = publication_months(t0, t1)
    ipc_obs = {}
    ipc = {}
    for d in districts:
        phases = rng.choice([1, 2, 2, 3], size=len(pub)).astype(float)
        obs = {t: float(p) for t, p in zip(pub, phases)}
        ipc_obs[d] = obs
        ipc[d] = forward_fill_ipc(obs, end=t1)
    traditional = {
        k: {d: Series(t0, rng.normal(0, 1, months)) for d in districts}
        for k in TRADITIONAL_INDICATORS
    }
    features = tuple(features)
    by_level = {
        "district": sorted(districts),
        "province": sorted({rec.province_id for rec in districts.values()}),
        "country": sorted({rec.country for rec in districts.values()}),
    }
    locations = [loc for locs in by_level.values() for loc in locs]
    values = np.empty((len(features), len(locations), months))
    for f in range(len(features)):
        for i in range(len(locations)):
            values[f, i] = np.clip(rng.normal(0.05, 0.02, months), 0, 1)
    cube = NewsFactors(
        features=features, locations=tuple(locations),
        levels=tuple(level for level, locs in by_level.items() for _ in locs),
        start=t0, values=values,
        zero_denominator=np.zeros((len(locations), months), dtype=bool),
    )
    if n_clusters is None:
        n_clusters = len(features)
    clusters = {w: 1 + i % n_clusters for i, w in enumerate(features)}
    panel = PanelDataset(
        districts=districts, start=t0, end=t1, publication_months=pub,
        ipc=ipc, ipc_observed=ipc_obs, traditional=traditional,
        factors={w: {level: cube.at_level(w, level) for level in by_level} for w in features},
        feature_order=features, clusters=clusters,
        cluster_labels={c: f"cluster-{c}" for c in set(clusters.values())},
    )
    return panel, cube


def plant_adl_response(panel, spec, coef, base=2.0):
    """Rewrite panel.ipc so y follows the design relation exactly (no noise)."""
    from newswarn.series import Series

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
                for k, per in panel.traditional.items():
                    s = per[d]
                    for n in range(1, spec.factor_lags + 1):
                        val += coef.get(f"trad[{k},n={n}]", 0.0) * s.at(t - spec.delay - n)
                for sname, sval in panel.districts[d].statics.items():
                    val += coef.get(f"static[{sname}]", 0.0) * sval
            if spec.uses_news:
                for w in panel.feature_order:
                    for level, loc in (("district", d), ("province", prov),
                                       ("country", country)):
                        s = panel.factors[w][level][loc]
                        for n in range(1, spec.factor_lags + 1):
                            val += coef.get(f"news[{w},{level},n={n}]", 0.0) * \
                                s.at(t - spec.delay - n)
            y[t - t0] = val
        panel.ipc[d] = Series(t0, y)


def planted_coefficients(panel, spec, rng, news_scale=1.0):
    """A stable coefficient vector keyed by design column names; statics 0."""
    from newswarn.panel import build_design

    columns = build_design(panel, spec).columns
    coef = {}
    for c in columns:
        if c.group == "intercept":
            coef[c.name] = 0.8 + 0.05 * (zlib.crc32(c.name.encode()) % 7)
        elif c.group == "y_lag":
            coef[c.name] = 0.04
        elif c.group == "traditional":
            coef[c.name] = float(rng.normal(0, 0.02))
        elif c.group == "static":
            coef[c.name] = 0.0
        elif c.group == "news":
            coef[c.name] = float(rng.normal(0, 0.2)) * news_scale
        else:
            coef[c.name] = 0.0
    return coef
