"""News-corpus reading, gazetteer location matching, and news factors.

The corpus file holds one JSON object per line: {id, date, source, countries,
text}. ``read_corpus`` parses it once into per-article months, country tags
and tokens; it keeps no per-n-gram article sets. Counts come from scans of
those: the 1..3-gram occurrences (``Corpus.ngram_occurrences``), and, for a
list of features, the articles that co-mention a feature and a location
(``news_factors``, ``feature_coverage``). A news factor is the monthly share
of a country's articles that co-mention a text feature and a location;
``save_factors`` writes them as one feature x location x month array.
"""

from __future__ import annotations

import json
import warnings
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .artifacts import read_csv, write_csv
from .errors import DataError
from .months import format_month, parse_date, parse_month
from .series import Series
from .stemmer import porter_stem, stem_tokens
from .textutil import tokenize

STATIC_FACTOR_NAMES = ("population", "area_km2", "ruggedness", "cropland_share", "pasture_share")

_GAZETTEER_HEADER = [
    "district_id", "name", "aliases", "province_id", "country",
    "lat", "lon", "population", "area_km2", "ruggedness",
    "cropland_share", "pasture_share",
]


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
        places: dict[tuple[str, ...], set[str]] = defaultdict(set)
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
                    places[toks].update((d.district_id, d.province_id, d.country))
        # name tokens -> every district so named, with its province and country
        self.places: dict[tuple[str, ...], set[str]] = dict(places)
        self.names_by_first = _by_first_token({name: name for name in places})

    def __len__(self):
        return len(self.districts)

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
    header, rows = read_csv(path, "gazetteer")
    missing = [c for c in _GAZETTEER_HEADER if c not in header]
    if missing:
        raise DataError(f"gazetteer {path} missing columns: {missing}")
    for lineno, row in rows:
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
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad gazetteer row: {exc}") from None
    return Gazetteer(districts)


def write_gazetteer(path, districts) -> None:
    write_csv(path, _GAZETTEER_HEADER, (
        [d.district_id, d.name, "|".join(d.aliases), d.province_id, d.country, d.lat, d.lon]
        + [d.statics[k] for k in STATIC_FACTOR_NAMES]
        for d in districts
    ))


def match_locations(tokens, tags, gaz: Gazetteer) -> set[str]:
    """District ids named in ``tokens``, their provinces/countries, and the tag countries."""
    out = set(tags)
    for name in _contained(tokens, gaz.names_by_first):
        out |= gaz.places[name]
    return out


@dataclass(frozen=True)
class Corpus:
    """The in-window articles of a corpus file, in file order, as parallel lists."""

    window: tuple[int, int]
    months: np.ndarray                   # month index of each article (int64)
    country_tags: list[frozenset[str]]
    tokens: list[tuple[str, ...]]
    skipped_lines: int = 0

    def __len__(self):
        return len(self.tokens)

    @property
    def ngram_occurrences(self) -> Counter:
        """Occurrences of each contiguous 1..3-gram, space-joined; counted on every read."""
        counts: Counter = Counter()
        for toks in self.tokens:
            counts.update([*toks, *[f"{a} {b}" for a, b in zip(toks, toks[1:])],
                           *[f"{a} {b} {c}" for a, b, c in zip(toks, toks[1:], toks[2:])]])
        return counts


def _parse_corpus_line(line: str, lineno: int) -> tuple[str, int, frozenset[str], tuple]:
    try:
        obj = json.loads(line)
        month = parse_date(obj["date"])
        tags = frozenset(str(c).upper() for c in obj["countries"])
        if not tags:
            raise DataError("empty country tags")
        return str(obj["id"]), month, tags, tokenize(str(obj["text"]))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError, DataError) as exc:
        raise DataError(f"line {lineno}: malformed article: {exc}") from None


def read_corpus(path, window, strict: bool = False) -> Corpus:
    """The articles of a JSONL corpus file falling inside ``window``, parsed once.

    ``window`` is an inclusive (start, end) pair of month indices or
    "YYYY-MM" strings. In strict mode malformed lines and duplicate ids are
    fatal; otherwise they are skipped with a warning and counted.
    """
    w0 = parse_month(window[0]) if isinstance(window[0], str) else int(window[0])
    w1 = parse_month(window[1]) if isinstance(window[1], str) else int(window[1])
    if w1 < w0:
        raise DataError(f"empty corpus window [{format_month(w0)}, {format_month(w1)}]")
    ids: set[str] = set()
    months: list[int] = []
    tags_of: list[frozenset[str]] = []
    tokens: list[tuple[str, ...]] = []
    tag_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct tag set
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                article_id, month, tags, toks = _parse_corpus_line(line, lineno)
                if not (w0 <= month <= w1):
                    continue
                if article_id in ids:
                    raise DataError(f"duplicate article id {article_id!r}")
            except DataError as exc:
                if strict:
                    raise DataError(f"{path}: {exc}") from None
                warnings.warn(f"{path}: {exc} (skipped)")
                skipped += 1
                continue
            ids.add(article_id)
            months.append(month)
            tags_of.append(tag_sets.setdefault(tags, tags))
            tokens.append(toks)
    if not tokens:
        raise DataError(f"no articles inside window [{format_month(w0)}, {format_month(w1)}]")
    return Corpus((w0, w1), np.array(months, dtype=np.int64), tags_of, tokens, skipped)


def _by_first_token(phrases: dict) -> dict[str, list]:
    """{key: token tuple} as {first token: [(key, tuple), ...]}; empty tuples are dropped."""
    by_first: dict[str, list] = defaultdict(list)
    for key, phrase in phrases.items():
        if phrase:
            by_first[phrase[0]].append((key, phrase))
    return dict(by_first)


def _contained(tokens, by_first: dict[str, list]) -> set:
    """Keys of the phrases of ``by_first`` that occur contiguously in ``tokens``."""
    found = set()
    windows: dict[int, set] = {}  # n -> the n-token windows of ``tokens``
    for tok in by_first.keys() & tokens:
        for key, phrase in by_first[tok]:
            n = len(phrase)
            if n > 1 and n not in windows:
                windows[n] = set(zip(*(tokens[k:] for k in range(n))))
            if n == 1 or phrase in windows[n]:
                found.add(key)
    return found


def _phrase_hits(token_lists, phrases):
    """(index, indices of the phrases it contains) for each token list containing any."""
    by_first = _by_first_token(dict(enumerate(phrases)))
    for a, toks in enumerate(token_lists):
        hits = _contained(toks, by_first)
        if hits:
            yield a, hits


def _co_mentions(corpus: Corpus, features, gaz: Gazetteer, loc_index: dict[str, int]):
    """(article, features it contains, locations it names) for each article with a feature.

    Features are indices into ``features``; a feature that is not a canonical
    corpus n-gram (1..3 tokens, as ``Corpus.ngram_occurrences`` keys them) is
    contained nowhere. Locations are indices into ``loc_index``; others the
    article names are dropped.
    """
    phrases = []
    for f in features:
        toks = tokenize(f)
        phrases.append(toks if len(toks) <= 3 and " ".join(toks) == f else ())
    for a, hits in _phrase_hits(corpus.tokens, phrases):
        named = match_locations(corpus.tokens[a], corpus.country_tags[a], gaz)
        yield a, hits, [loc_index[loc] for loc in named if loc in loc_index]


def target_flags(corpus: Corpus, target_keywords) -> np.ndarray:
    """Per article, whether it contains any target keyword, matched on Porter stems."""
    stem_of = {t: porter_stem(t) for t in set(chain.from_iterable(corpus.tokens))}
    stems = [tuple(map(stem_of.__getitem__, toks)) for toks in corpus.tokens]
    keywords = [stem_tokens(tokenize(k)) for k in sorted(target_keywords)]
    flags = np.zeros(len(corpus), dtype=bool)
    flags[[a for a, _ in _phrase_hits(stems, keywords)]] = True
    return flags


def feature_coverage(corpus: Corpus, features, gaz: Gazetteer, locations) -> list[int]:
    """Per location, the number of articles naming it that contain any of ``features``."""
    counts = [0] * len(locations)
    for _, _, locs in _co_mentions(corpus, features, gaz,
                                   {loc: i for i, loc in enumerate(locations)}):
        for i in locs:
            counts[i] += 1
    return counts


@dataclass(frozen=True)
class NewsFactors:
    """Monthly share of a country's articles co-mentioning each feature and location.

    ``values[f, i, t]`` is feature ``features[f]`` at ``locations[i]`` in month
    ``start + t``. Locations are the sorted districts, then the sorted
    provinces, then the sorted countries, and ``levels[i]`` names the level of
    ``locations[i]``. ``zero_denominator[i, t]`` flags a month in which the
    location's denominator counted no articles; its values are 0.
    """

    features: tuple[str, ...]
    locations: tuple[str, ...]
    levels: tuple[str, ...]
    start: int
    values: np.ndarray            # float64, feature x location x month
    zero_denominator: np.ndarray  # bool, location x month

    def __post_init__(self):
        v, n_locs = self.values, len(self.locations)
        if (v.dtype != np.float64 or v.ndim != 3 or v.shape[:2] != (len(self.features), n_locs)
                or len(self.levels) != n_locs
                or self.zero_denominator.shape != (n_locs, v.shape[2])):
            raise DataError(f"news factors of dtype {v.dtype} and shape {v.shape} do not fit "
                            f"{len(self.features)} features and {n_locs} locations")
        if not np.all((v >= 0.0) & (v <= 1.0)):
            raise DataError("news factor proportions must lie in [0, 1]")

    def at_level(self, feature: str, level: str) -> dict[str, Series]:
        """{location: series} of ``feature`` at each location of ``level``, in location order."""
        f = self.features.index(feature)
        return {loc: Series(self.start, self.values[f, i])
                for i, loc in enumerate(self.locations) if self.levels[i] == level}


def news_factors(
    corpus: Corpus,
    features,
    gaz: Gazetteer,
    exclude_targets: bool = False,
    target_keywords=None,
    denominator: str = "country",
) -> tuple[NewsFactors, list[str]]:
    """Monthly co-mention proportion of each feature at each gazetteer location.

    The numerator counts the month's articles that contain the feature and
    name the location (``match_locations``). The denominator is the count of
    the month's articles tagged with the location's country ("country", the
    default) or all articles that month ("corpus"). With "country", the
    numerator counts only articles tagged with the location's country too, so
    the value is a share of that country's articles. Months with no such
    articles get value 0 and are flagged. With ``exclude_targets`` set,
    articles containing a target keyword are removed from numerator and
    denominator.

    Returns the factors of the features that occur in some article, in the
    given order, and the features that occur in no article.
    """
    if denominator not in ("country", "corpus"):
        raise DataError(f"unknown denominator scope {denominator!r}")
    keep = np.ones(len(corpus), dtype=bool)
    if exclude_targets:
        if not target_keywords:
            raise DataError("exclude_targets requires target keywords")
        keep = ~target_flags(corpus, target_keywords)
    locations = sorted(gaz.districts) + sorted(gaz.provinces) + sorted(gaz.countries)
    country_of = [gaz.location_country(loc) for loc in locations]
    w0, w1 = corpus.window
    n_months, n_locs = w1 - w0 + 1, len(locations)
    month = (corpus.months - w0).tolist()

    found: set[int] = set()
    cells = array("q")  # flat (feature, location, month) index of each kept co-mention
    for a, hits, locs in _co_mentions(corpus, features, gaz,
                                      {loc: i for i, loc in enumerate(locations)}):
        found |= hits
        if keep[a]:
            if denominator == "country":
                locs = [i for i in locs if country_of[i] in corpus.country_tags[a]]
            cells.extend([(f * n_locs + i) * n_months + month[a] for f in hits for i in locs])
    counts = np.bincount(np.frombuffer(cells, dtype=np.int64),
                         minlength=len(features) * n_locs * n_months)
    counts = counts.reshape(len(features), n_locs, n_months)

    kept = np.flatnonzero(keep)
    if denominator == "corpus":
        denom = np.tile(np.bincount(corpus.months[kept] - w0, minlength=n_months), (n_locs, 1))
    else:
        row = {c: i for i, c in enumerate(sorted(set(country_of)))}
        tagged = [row[c] * n_months + month[a]
                  for a in kept.tolist() for c in corpus.country_tags[a] if c in row]
        totals = np.bincount(np.array(tagged, dtype=np.int64),
                             minlength=len(row) * n_months).reshape(len(row), n_months)
        denom = totals[[row[c] for c in country_of]]
    # An integer count over an integer count, as Python's int / int would give it.
    values = np.zeros(counts.shape)
    np.divide(counts, denom, out=values, where=denom > 0)

    present = [f for f in range(len(features)) if f in found]
    factors = NewsFactors(
        features=tuple(features[f] for f in present),
        locations=tuple(locations),
        levels=tuple(gaz.location_level(loc) for loc in locations),
        start=w0,
        values=values[present],
        zero_denominator=denom <= 0,
    )
    return factors, [feature for f, feature in enumerate(features) if f not in found]


def save_factors(values_path, labels_path, factors: NewsFactors) -> None:
    """Write the values as ``.npy`` and the labels and empty-denominator months as JSON.

    Neither file carries a timestamp, so equal factors give equal bytes.
    """
    with open(values_path, "wb") as fh:
        np.save(fh, factors.values, allow_pickle=False)
    labels = {
        "features": list(factors.features),
        "locations": list(factors.locations),
        "levels": list(factors.levels),
        "start": format_month(factors.start),
        "zero_denominator": {
            loc: [format_month(factors.start + int(t)) for t in np.flatnonzero(row)]
            for loc, row in zip(factors.locations, factors.zero_denominator) if row.any()
        },
    }
    with open(labels_path, "w", encoding="utf-8") as fh:
        json.dump(labels, fh, indent=1)
        fh.write("\n")


def load_factors(values_path, labels_path) -> NewsFactors:
    """The factors ``save_factors`` wrote; DataError when the array does not fit the labels."""
    try:
        values = np.load(values_path, allow_pickle=False)
        with open(labels_path, "r", encoding="utf-8") as fh:
            labels = json.load(fh)
        features, locations, levels = (tuple(labels[k]) for k in
                                       ("features", "locations", "levels"))
        start = parse_month(labels["start"])
        empty = {loc: set(months) for loc, months in labels["zero_denominator"].items()}
        n_months = values.shape[2] if values.ndim == 3 else 0
    except (KeyError, TypeError, ValueError, AttributeError, EOFError) as exc:
        raise DataError(f"bad news factors {values_path}, {labels_path}: {exc}") from None
    months = [format_month(start + t) for t in range(n_months)]
    zero = np.array([[m in empty.get(loc, ()) for m in months] for loc in locations],
                    dtype=bool).reshape(len(locations), n_months)
    return NewsFactors(features, locations, levels, start, values, zero)
