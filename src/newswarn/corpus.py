"""News-corpus ingestion, gazetteer location matching, and news factors.

The corpus file holds one JSON object per line: {id, date, source, countries,
text}. Articles are bucketed by calendar month and indexed by location and by
contiguous 1..3-gram. A news factor is the monthly share of a country's
articles that co-mention a text feature and a location.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from operator import itemgetter

import numpy as np

from .errors import DataError
from .months import format_month, parse_date, parse_month
from .series import Series
from .stemmer import stem_tokens
from .textutil import iter_ngrams, normalize_ngram, tokenize

STATIC_FACTOR_NAMES = ("population", "area_km2", "ruggedness", "cropland_share", "pasture_share")

_GAZETTEER_HEADER = [
    "district_id", "name", "aliases", "province_id", "country",
    "lat", "lon", "population", "area_km2", "ruggedness",
    "cropland_share", "pasture_share",
]


@dataclass(frozen=True)
class Article:
    id: str
    month: int
    date: str
    source: str
    country_tags: frozenset[str]
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class District:
    district_id: str
    name: str
    aliases: tuple[str, ...]
    province_id: str
    country: str
    lat: float
    lon: float
    statics: dict[str, float]


class Gazetteer:
    """District register with token-level name lookup."""

    def __init__(self, districts):
        self.districts: dict[str, District] = {}
        self._name_index: dict[tuple[str, ...], set[str]] = defaultdict(set)
        self.max_name_len = 1
        for d in districts:
            if d.district_id in self.districts:
                raise DataError(f"duplicate district id {d.district_id!r}")
            if not (-90.0 <= d.lat <= 90.0 and -180.0 <= d.lon <= 180.0):
                raise DataError(f"district {d.district_id!r} has invalid centroid")
            if not d.province_id or not d.country:
                raise DataError(f"district {d.district_id!r} missing province or country")
            for v in d.statics.values():
                if not np.isfinite(v):
                    raise DataError(f"district {d.district_id!r} has non-finite static factor")
            self.districts[d.district_id] = d
            for name in (d.name, *d.aliases):
                toks = tokenize(name)
                if toks:
                    self._name_index[toks].add(d.district_id)
                    self.max_name_len = max(self.max_name_len, len(toks))

    def __len__(self):
        return len(self.districts)

    def lookup_name(self, tokens) -> set[str]:
        return set(self._name_index.get(tuple(tokens), ()))

    @property
    def provinces(self) -> dict[str, str]:
        """province_id -> country"""
        return {d.province_id: d.country for d in self.districts.values()}

    @property
    def countries(self) -> set[str]:
        return {d.country for d in self.districts.values()}

    def location_level(self, loc: str) -> str:
        if loc in self.districts:
            return "district"
        if loc in self.provinces:
            return "province"
        if loc in self.countries:
            return "country"
        raise DataError(f"unknown location {loc!r}")

    def location_country(self, loc: str) -> str:
        if loc in self.districts:
            return self.districts[loc].country
        provs = self.provinces
        if loc in provs:
            return provs[loc]
        if loc in self.countries:
            return loc
        raise DataError(f"unknown location {loc!r}")


def load_gazetteer(path) -> Gazetteer:
    districts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _GAZETTEER_HEADER if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"gazetteer {path} missing columns: {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                aliases = tuple(a for a in row["aliases"].split("|") if a)
                districts.append(
                    District(
                        district_id=row["district_id"],
                        name=row["name"],
                        aliases=aliases,
                        province_id=row["province_id"],
                        country=row["country"],
                        lat=float(row["lat"]),
                        lon=float(row["lon"]),
                        statics={k: float(row[k]) for k in STATIC_FACTOR_NAMES},
                    )
                )
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad gazetteer row: {exc}") from None
    return Gazetteer(districts)


def write_gazetteer(path, districts) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_GAZETTEER_HEADER)
        for d in districts:
            writer.writerow(
                [d.district_id, d.name, "|".join(d.aliases), d.province_id, d.country,
                 repr(d.lat), repr(d.lon)]
                + [repr(d.statics[k]) for k in STATIC_FACTOR_NAMES]
            )


def match_locations(article: Article, gaz: Gazetteer) -> set[str]:
    """District ids named in the text, their provinces/countries, and tag countries."""
    matched: set[str] = set()
    toks = article.tokens
    for n in range(1, min(gaz.max_name_len, len(toks)) + 1):
        for i in range(len(toks) - n + 1):
            matched |= gaz.lookup_name(toks[i : i + n])
    out: set[str] = set()
    for did in matched:
        d = gaz.districts[did]
        out |= {did, d.province_id, d.country}
    out |= set(article.country_tags)
    return out


class CorpusIndex:
    """Immutable-after-build index over a dated, geo-tagged article stream."""

    def __init__(self, window: tuple[int, int]):
        self.window = window
        self.articles: dict[str, Article] = {}
        self.by_month: dict[int, list[str]] = defaultdict(list)
        self.loc_postings: dict[str, set[str]] = defaultdict(set)
        self.ngram_postings: dict[str, set[str]] = defaultdict(set)
        self.ngram_occurrences: Counter = Counter()
        self.monthly_totals: Counter = Counter()  # (country, month) -> articles
        self.article_locations: dict[str, frozenset[str]] = {}
        self._stem_cache: dict[str, tuple[str, ...]] = {}
        self._target_cache: dict[tuple, frozenset[str]] = {}

    def add(self, article: Article, gaz: Gazetteer) -> None:
        if article.id in self.articles:
            raise DataError(f"duplicate article id {article.id!r}")
        self.articles[article.id] = article
        self.by_month[article.month].append(article.id)
        locs = match_locations(article, gaz)
        self.article_locations[article.id] = frozenset(locs)
        for loc in locs:
            self.loc_postings[loc].add(article.id)
        seen = set()
        for gram in iter_ngrams(article.tokens, 3):
            key = " ".join(gram)
            self.ngram_occurrences[key] += 1
            if key not in seen:
                self.ngram_postings[key].add(article.id)
                seen.add(key)
        for c in article.country_tags:
            self.monthly_totals[(c, article.month)] += 1

    def __len__(self):
        return len(self.articles)

    def months(self):
        return range(self.window[0], self.window[1] + 1)

    def stemmed_tokens(self, article_id: str) -> tuple[str, ...]:
        cached = self._stem_cache.get(article_id)
        if cached is None:
            cached = stem_tokens(self.articles[article_id].tokens)
            self._stem_cache[article_id] = cached
        return cached

    def articles_with_targets(self, target_keywords) -> frozenset[str]:
        """Ids of articles containing any target keyword, matched on stems."""
        key = tuple(sorted(target_keywords))
        cached = self._target_cache.get(key)
        if cached is not None:
            return cached
        sequences = [stem_tokens(tokenize(k)) for k in key]
        hits = set()
        for aid in self.articles:
            stems = self.stemmed_tokens(aid)
            for seq in sequences:
                n = len(seq)
                if n == 0 or n > len(stems):
                    continue
                if any(stems[i : i + n] == seq for i in range(len(stems) - n + 1)):
                    hits.add(aid)
                    break
        result = frozenset(hits)
        self._target_cache[key] = result
        return result


def _parse_corpus_line(line: str, lineno: int, window) -> Article | None:
    try:
        obj = json.loads(line)
        month = parse_date(obj["date"])
        tags = frozenset(str(c).upper() for c in obj["countries"])
        if not tags:
            raise DataError("empty country tags")
        art = Article(
            id=str(obj["id"]),
            month=month,
            date=str(obj["date"]),
            source=str(obj.get("source", "")),
            country_tags=tags,
            tokens=tokenize(str(obj["text"])),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError, DataError) as exc:
        raise DataError(f"line {lineno}: malformed article: {exc}") from None
    if not (window[0] <= art.month <= window[1]):
        return None
    return art


def ingest_corpus(path, window, gaz: Gazetteer, strict: bool = False) -> CorpusIndex:
    """Index the articles of a JSONL corpus file falling inside ``window``.

    ``window`` is an inclusive (start, end) pair of month indices or
    "YYYY-MM" strings. In strict mode malformed lines and duplicate ids are
    fatal; otherwise they are skipped with a warning.
    """
    w0 = parse_month(window[0]) if isinstance(window[0], str) else int(window[0])
    w1 = parse_month(window[1]) if isinstance(window[1], str) else int(window[1])
    if w1 < w0:
        raise DataError(f"empty corpus window [{format_month(w0)}, {format_month(w1)}]")
    index = CorpusIndex((w0, w1))
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                art = _parse_corpus_line(line, lineno, (w0, w1))
                if art is None:
                    continue
                index.add(art, gaz)
            except DataError as exc:
                if strict:
                    raise DataError(f"{path}: {exc}") from None
                warnings.warn(f"{path}: {exc} (skipped)")
                skipped += 1
    if not index.articles:
        raise DataError(f"no articles inside window [{format_month(w0)}, {format_month(w1)}]")
    index.skipped_lines = skipped
    return index


@dataclass(frozen=True)
class NewsFactorSeries:
    """Monthly share of a country's articles co-mentioning feature and location."""

    feature: str
    location_id: str
    level: str
    series: Series
    differencing_order: int = 0
    zero_denominator_months: tuple[int, ...] = ()

    def __post_init__(self):
        if self.differencing_order == 0:
            v = self.series.values
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise DataError("news factor proportions must lie in [0, 1]")

    def diff(self, d: int) -> "NewsFactorSeries":
        if d == 0:
            return self
        return NewsFactorSeries(
            feature=self.feature,
            location_id=self.location_id,
            level=self.level,
            series=self.series.diff(d),
            differencing_order=self.differencing_order + d,
            zero_denominator_months=self.zero_denominator_months,
        )


def compute_news_factor(
    feature: str,
    location_id: str,
    index: CorpusIndex,
    gaz: Gazetteer,
    exclude_targets: bool = False,
    target_keywords=None,
    denominator: str = "country",
) -> NewsFactorSeries:
    """Monthly co-mention proportion of ``feature`` and ``location_id``.

    The denominator is the count of the month's articles tagged with the
    location's country ("country", the default) or all articles that month
    ("corpus"); months with no such articles get value 0 and are flagged.
    With ``exclude_targets`` set, articles containing a target keyword are
    removed from numerator and denominator.
    """
    if denominator not in ("country", "corpus"):
        raise DataError(f"unknown denominator scope {denominator!r}")
    key = normalize_ngram(feature)
    if key not in index.ngram_postings:
        raise DataError(f"feature {key!r} does not occur in the corpus")
    level = gaz.location_level(location_id)
    country = gaz.location_country(location_id)

    excluded: frozenset[str] = frozenset()
    if exclude_targets:
        if not target_keywords:
            raise DataError("exclude_targets requires target keywords")
        excluded = index.articles_with_targets(target_keywords)

    co_ids = index.ngram_postings[key] & index.loc_postings.get(location_id, set())
    co_by_month = Counter(index.articles[a].month for a in co_ids if a not in excluded)
    denom_drop = Counter()
    for a in excluded:
        art = index.articles[a]
        if denominator == "corpus" or country in art.country_tags:
            denom_drop[art.month] += 1

    w0, w1 = index.window
    values = np.zeros(w1 - w0 + 1)
    zero_months = []
    for t in range(w0, w1 + 1):
        if denominator == "country":
            total = index.monthly_totals.get((country, t), 0)
        else:
            total = len(index.by_month.get(t, ()))
        denom = total - denom_drop.get(t, 0)
        if denom <= 0:
            zero_months.append(t)
            continue
        values[t - w0] = co_by_month.get(t, 0) / denom
    return NewsFactorSeries(
        feature=key,
        location_id=location_id,
        level=level,
        series=Series(w0, values),
        zero_denominator_months=tuple(zero_months),
    )


def write_factors_csv(path, factors) -> None:
    """Factors CSV with header feature,location_id,level,month,value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "location_id", "level", "month", "value"])
        month = cache(format_month)  # every series repeats the same months
        for f in factors:
            writer.writerows([f.feature, f.location_id, f.level, month(t), repr(v)]
                             for t, v in f.series.items())


def read_factors_csv(path) -> list[NewsFactorSeries]:
    rows = defaultdict(list)
    months_of: dict[str, int] = {}  # every (feature, location) repeats the same months
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        fields = itemgetter(*(header.index(c) for c in
                              ("feature", "location_id", "level", "month", "value")))
        for row in reader:
            feature, loc, level, month, value = fields(row)
            t = months_of.get(month)
            if t is None:
                t = months_of[month] = parse_month(month)
            rows[(feature, loc, level)].append((t, float(value)))
    out = []
    for (feature, loc, level), pairs in rows.items():
        pairs.sort()
        months = [t for t, _ in pairs]
        if months != list(range(months[0], months[0] + len(months))):
            raise DataError(f"factor {feature!r}@{loc!r} has non-contiguous months")
        out.append(
            NewsFactorSeries(
                feature=feature,
                location_id=loc,
                level=level,
                series=Series(months[0], np.array([v for _, v in pairs])),
            )
        )
    return out
