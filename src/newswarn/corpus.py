"""News-corpus reading, gazetteer location matching, and news factors.

The corpus file holds one JSON object per line: {id, date, source, countries,
text}. ``read_corpus`` parses it once, line by line, into per-article months
and country tags, a vocabulary, and one array of token ids, tokenizing
``_TEXT_BLOCK`` articles' texts at a time; it keeps no per-n-gram article sets.
Counts come from n-grams packed into integer keys: the 1..3-gram occurrences
(``Corpus.ngram_counts``, by ``np.bincount`` and ``np.unique``), and, for a
list of features, the articles that co-mention a feature and a location,
found by a sorted-key lookup into per-block article x phrase masks
(``news_factors``, ``feature_coverage``). A news factor is the monthly share
of a country's articles that co-mention a text feature and a location.
``NewsFactors`` holds the two integers of each share, and ``save_factors``
writes them: the co-mention counts as one feature x location x month array
of the smallest unsigned type that holds them, and each location's monthly
denominators beside the labels. The shares are divided out on reading.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .artifacts import read_csv
from .errors import DataError
from .months import format_month, parse_date, parse_month
from .stemmer import porter_stem, stem_tokens
from .textutil import TOKEN, tokenize

GAZETTEER_COLUMNS = ("district_id", "name", "aliases", "province_id", "country", "lat", "lon")


@dataclass(frozen=True)
class District:
    district_id: str
    name: str
    aliases: tuple[str, ...]
    province_id: str
    country: str
    lat: float
    lon: float


class Gazetteer:
    """District register with token-level name lookup."""

    def __init__(self, districts):
        self.districts: dict[str, District] = {}
        self.provinces: dict[str, str] = {}  # province_id -> country
        places: dict[tuple[str, ...], set[str]] = defaultdict(set)
        for d in districts:
            if d.district_id in self.districts:
                raise DataError(f"duplicate district id {d.district_id!r}")
            if not (-90.0 <= d.lat <= 90.0 and -180.0 <= d.lon <= 180.0):
                raise DataError(f"district {d.district_id!r} has invalid centroid")
            if not d.province_id or not d.country:
                raise DataError(f"district {d.district_id!r} missing province or country")
            if (country := self.provinces.setdefault(d.province_id, d.country)) != d.country:
                raise DataError(f"province {d.province_id!r} lies in two countries, "
                                f"{country!r} and {d.country!r}")
            self.districts[d.district_id] = d
            for name in (d.name, *d.aliases):
                toks = tokenize(name)
                if toks:
                    places[toks].update((d.district_id, d.province_id, d.country))
        # name tokens -> every district so named, with its province and country
        self.places: dict[tuple[str, ...], set[str]] = dict(places)
        self.countries: set[str] = set(self.provinces.values())
        # the sorted districts, then provinces, then countries: the rows of location arrays
        self.locations: list[str] = (sorted(self.districts) + sorted(self.provinces)
                                     + sorted(self.countries))
        if shared := [loc for loc, n in Counter(self.locations).items() if n > 1]:
            raise DataError(f"location id {shared[0]!r} is used at more than one level "
                            "(district, province, country)")

    def __len__(self):
        return len(self.districts)

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
        if loc in self.provinces:
            return self.provinces[loc]
        if loc in self.countries:
            return loc
        raise DataError(f"unknown location {loc!r}")


def load_gazetteer(path) -> Gazetteer:
    """Read the district register; columns beyond ``GAZETTEER_COLUMNS`` are ignored."""
    table = read_csv(path, "gazetteer")
    missing = [c for c in GAZETTEER_COLUMNS if c not in table.header]
    if missing:
        raise DataError(f"gazetteer {path} missing columns: {missing}")
    cols = table.columns
    lat = table.parse(cols["lat"], float, table.rows)
    lon = table.parse(cols["lon"], float, table.rows)
    table.check()
    aliases = [tuple(a for a in text.split("|") if a) for text in cols["aliases"]]
    return Gazetteer(map(District, cols["district_id"], cols["name"], aliases,
                         cols["province_id"], cols["country"], lat, lon))


# Packing three token ids into one int64 key needs V**3 + V**2 + V < 2**63.
MAX_VOCABULARY = 2_097_151


@dataclass(frozen=True)
class Corpus:
    """The in-window articles of a corpus file, in file order, with integer-coded tokens.

    Article ``a``'s tokens are ``token_ids[offsets[a]:offsets[a + 1]]``, and
    id ``i`` is the word ``vocabulary[i]``; ids number the words in the order
    the file first uses them. An n-gram of up to 3 tokens packs into one int64
    key, ``(a·V + b)·V + c`` for a trigram over V words, shifted so that each
    order has a range of its own: unigrams ``[0, V)``, bigrams ``[V, V + V²)``,
    trigrams ``[V + V², V + V² + V³)``.
    """

    window: tuple[int, int]
    months: np.ndarray                   # month index of each article (int64)
    country_tags: list[frozenset[str]]
    vocabulary: tuple[str, ...]
    token_ids: np.ndarray                # int32, the articles' tokens end to end
    offsets: np.ndarray                  # int64, len(self) + 1 article boundaries
    skipped_lines: int = 0

    def __len__(self):
        return len(self.months)

    def articles(self, lo: int, hi: int) -> "Corpus":
        """Articles ``lo`` to ``hi - 1`` as a corpus of their own, over the same vocabulary."""
        offsets = self.offsets[lo:hi + 1]
        return replace(self, months=self.months[lo:hi], country_tags=self.country_tags[lo:hi],
                       token_ids=self.token_ids[offsets[0]:offsets[-1]],
                       offsets=offsets - offsets[0])

    @cached_property
    def tag_sets(self) -> tuple[list[frozenset[str]], np.ndarray]:
        """The distinct country-tag sets, in first-use order, and each article's index in them."""
        sets: dict[frozenset[str], int] = {}
        set_of = [sets.setdefault(tags, len(sets)) for tags in self.country_tags]
        return list(sets), np.array(set_of, dtype=np.int64)

    def pack(self, columns) -> np.ndarray:
        """Keys of the n-grams whose k-th token ids are ``columns[k]``, n = len(columns) <= 3."""
        v = len(self.vocabulary)
        key = np.asarray(columns[0], dtype=np.int64)
        for col in columns[1:]:
            key = key * v + col
        return key + sum(v ** k for k in range(1, len(columns)))

    def ngram(self, key: int) -> str:
        """The space-joined n-gram that ``pack`` maps to ``key``."""
        v, n = len(self.vocabulary), 1
        while key >= v ** n:
            key -= v ** n
            n += 1
        ids = []
        for _ in range(n):
            key, i = divmod(key, v)
            ids.append(i)
        return " ".join(self.vocabulary[i] for i in reversed(ids))

    def fits(self, span: int) -> np.ndarray:
        """Whether the ``span`` tokens from each token position lie in one article."""
        inside = np.ones(len(self.token_ids), dtype=bool)
        tails = (self.offsets[1:, None] - np.arange(1, span)).ravel()
        # A tail position before an article's start is a tail of an earlier article too.
        inside[tails[tails >= 0]] = False
        return inside

    def keys_at(self, starts: np.ndarray, n: int) -> np.ndarray:
        """Keys of the n-grams (n <= 3) that start at token positions ``starts``."""
        return self.pack([self.token_ids[starts + k] for k in range(n)])

    def ngram_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct 1..3-gram's key, ascending, and its number of occurrences."""
        unigrams = np.bincount(self.token_ids, minlength=len(self.vocabulary))  # key = token id
        seen = np.flatnonzero(unigrams)
        counted = [(seen, unigrams[seen])] + [
            np.unique(self.keys_at(np.flatnonzero(self.fits(n)), n), return_counts=True)
            for n in (2, 3)]  # one order at a time: the key ranges ascend by order
        return tuple(np.concatenate(parts) for parts in zip(*counted))


_scan_json = json.JSONDecoder().scan_once


def _parse_corpus_line(line: str, lineno: int) -> tuple[str, int, frozenset[str], str]:
    """A stripped corpus line's id, month, country tags and text; DataError naming the line.

    Each line is parsed alone: lines joined into one JSON document could pair
    the halves of two malformed lines into valid objects.
    """
    try:
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            obj = json.loads(line)  # fails too, with json's own message for the line
        month = parse_date(obj["date"])
        countries = obj["countries"]
        if not isinstance(countries, list):
            raise DataError(f"countries {countries!r} is not a list")
        tags = frozenset(str(c).upper() for c in countries)
        if not tags:
            raise DataError("empty country tags")
        return str(obj["id"]), month, tags, str(obj["text"])
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"line {lineno}: malformed article: {exc}") from None


_TEXT_BLOCK = 1 << 9  # articles whose texts are tokenized at once; bounds the token lists
_TOKEN_OR_NUL = re.compile(TOKEN + "|\0")


def _token_ids(texts: list[str], vocabulary: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The texts' token ids end to end and each text's token count, as ``tokenize`` splits them.

    One ``lower`` and ``findall`` tokenize the texts joined by NUL. A NUL of a
    text's own becomes a space first: neither is a token character, and
    ``lower`` treats both alike, so only the separators remain NULs. New words
    get the next ids of ``vocabulary``, in first-use order.
    """
    toks = _TOKEN_OR_NUL.findall("\0".join(t.replace("\0", " ") for t in texts).lower())
    new = [t for t in dict.fromkeys(toks) if t not in vocabulary and t != "\0"]
    vocabulary.update(zip(new, range(len(vocabulary), len(vocabulary) + len(new))))
    ids = np.fromiter(map(vocabulary.get, toks, itertools.repeat(-1)), np.int32, len(toks))
    nul = np.flatnonzero(ids < 0)
    ends = np.append(nul - np.arange(len(nul)), len(ids) - len(nul))
    return ids[ids >= 0], np.diff(ends, prepend=0)


def read_corpus(path, window, strict: bool = False) -> Corpus:
    """The articles of a JSONL corpus file falling inside ``window``, parsed once.

    ``window`` is an inclusive (start, end) pair of month indices or
    "YYYY-MM" strings. In strict mode malformed lines and duplicate ids are
    fatal; otherwise they are skipped with a warning and counted. Lines are
    parsed one by one, and the texts of ``_TEXT_BLOCK`` articles tokenized at once.
    """
    w0 = parse_month(window[0]) if isinstance(window[0], str) else int(window[0])
    w1 = parse_month(window[1]) if isinstance(window[1], str) else int(window[1])
    if w1 < w0:
        raise DataError(f"empty corpus window [{format_month(w0)}, {format_month(w1)}]")
    ids: set[str] = set()
    months: list[int] = []
    tags_of: list[frozenset[str]] = []
    tag_sets: dict[frozenset[str], frozenset[str]] = {}  # one object per distinct tag set
    vocabulary: dict[str, int] = {}  # word -> id, in first-seen order
    texts: list[str] = []  # of the articles not yet tokenized
    token_ids: list[np.ndarray] = []
    counts = [np.zeros(1, dtype=np.int64)]  # tokens per article, after a 0 for the offsets
    skipped = 0

    def tokenize_texts():
        ids_of_block, counts_of_block = _token_ids(texts, vocabulary)
        token_ids.append(ids_of_block)
        counts.append(counts_of_block)
        texts.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                article_id, month, tags, text = _parse_corpus_line(line, lineno)
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
            texts.append(text)
            if len(texts) == _TEXT_BLOCK:
                tokenize_texts()
    if not months:
        raise DataError(f"no articles inside window [{format_month(w0)}, {format_month(w1)}]")
    if texts:
        tokenize_texts()
    if len(vocabulary) > MAX_VOCABULARY:
        raise DataError(f"{path}: vocabulary of {len(vocabulary)} words exceeds "
                        f"{MAX_VOCABULARY}, the most whose 3-grams fit int64 keys")
    return Corpus((w0, w1), np.array(months, dtype=np.int64), tags_of, tuple(vocabulary),
                  np.concatenate(token_ids), np.cumsum(np.concatenate(counts)), skipped)


_BLOCK = 1 << 13  # most articles scanned for co-mentions at once
_BLOCK_CELLS = 1 << 22  # most cells of a block's article x phrase mask; bounds its masks


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The index ranges ``[lo[i], lo[i] + n[i])``, end to end."""
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _coded(corpus: Corpus, phrases) -> list[tuple[int, ...]]:
    """Each token tuple's ids; () for one with a word outside the vocabulary."""
    word_id = {w: i for i, w in enumerate(corpus.vocabulary)}
    return [tuple(word_id[w] for w in p) if all(w in word_id for w in p) else ()
            for p in phrases]


def _phrase_hits(corpus: Corpus, phrases) -> np.ndarray:
    """Article x phrase mask: whether each article holds each phrase.

    ``phrases`` are token-id tuples (``_coded``), matched contiguously; an
    empty one is contained nowhere. A phrase longer than 3 tokens is looked
    up by its first 3 and then checked token by token.
    """
    by_length: dict[int, list[int]] = defaultdict(list)
    for p, phrase in enumerate(phrases):
        if phrase:
            by_length[len(phrase)].append(p)
    hits = np.zeros((len(corpus), len(phrases)), dtype=bool)
    for n, members in sorted(by_length.items()):
        coded = np.array([phrases[p] for p in members], dtype=np.int64)
        wanted = corpus.pack(coded[:, :3].T)
        order = np.argsort(wanted, kind="stable")
        wanted = wanted[order]
        first = np.zeros(len(corpus.vocabulary), dtype=bool)
        first[coded[:, 0]] = True
        starts = np.flatnonzero(corpus.fits(n) & first[corpus.token_ids])
        keys = corpus.keys_at(starts, min(n, 3))
        lo = np.searchsorted(wanted, keys, "left")
        n_hits = np.searchsorted(wanted, keys, "right") - lo
        found = np.flatnonzero(n_hits)
        pos = np.repeat(starts[found], n_hits[found])
        rows = order[_ranges(lo[found], n_hits[found])]
        if n > 3:
            whole = (corpus.token_ids[pos[:, None] + np.arange(3, n)] == coded[rows, 3:]).all(1)
            pos, rows = pos[whole], rows[whole]
        hits[np.searchsorted(corpus.offsets, pos, "right") - 1, np.array(members)[rows]] = True
    return hits


def _blocks(corpus: Corpus, width: int):
    """Blocks of articles as corpora of their own, each after the index of its first article.

    A block holds ``_BLOCK`` articles, or fewer when its masks, ``width``
    cells per article, would exceed ``_BLOCK_CELLS`` cells.
    """
    size = max(1, min(_BLOCK, _BLOCK_CELLS // max(1, width)))
    for a0 in range(0, len(corpus), size):
        yield a0, corpus.articles(a0, a0 + size)


def _co_mentions(corpus: Corpus, features, gaz: Gazetteer, locations):
    """Per block of articles, (article, feature) and (article, location) index pairs.

    The pairs of a block ascend and are distinct (``np.nonzero`` of a block's
    masks), and only articles with a feature get location pairs. Features are
    indices into ``features``; a feature that is not a canonical corpus n-gram
    (1..3 tokens, as ``Corpus.ngram`` spells them) is contained nowhere. An
    article names the district of each gazetteer name it holds, with the
    district's province and country, and the countries it is tagged with.
    Locations are indices into ``locations``; the others an article names are
    dropped.
    """
    phrases = []
    for f in features:
        toks = tokenize(f)
        phrases.append(toks if len(toks) <= 3 and " ".join(toks) == f else ())
    loc_index = {loc: i for i, loc in enumerate(locations)}
    # one phrase per (gazetteer name, location it names)
    named = [(name, loc_index[loc]) for name, locs in gaz.places.items()
             for loc in sorted(locs) if loc in loc_index]
    phrases = _coded(corpus, phrases + [name for name, _ in named])
    named_loc = np.array([i for _, i in named], dtype=np.int64)
    tag_sets, set_of = corpus.tag_sets
    # distinct tag set x location: whether the set tags the location
    tagged = np.array([[loc in tags for loc in locations] for tags in tag_sets],
                      dtype=bool).reshape(len(tag_sets), len(locations))
    n_features = len(features)
    for a0, block in _blocks(corpus, len(phrases) + len(locations)):
        hits = _phrase_hits(block, phrases)
        with_feature = hits[:, :n_features].any(axis=1)
        located = tagged[set_of[a0:a0 + len(block)]] & with_feature[:, None]
        na, nn = np.nonzero(hits[:, n_features:])
        named_here = with_feature[na]
        located[na[named_here], named_loc[nn[named_here]]] = True
        fa, ff = np.nonzero(hits[:, :n_features])
        la, li = np.nonzero(located)
        yield a0 + fa, ff, a0 + la, li


def target_flags(corpus: Corpus, target_keywords) -> np.ndarray:
    """Per article, whether it contains any target keyword, matched on Porter stems."""
    stems: dict[str, int] = {}
    stem_of = np.array([stems.setdefault(porter_stem(w), len(stems)) for w in corpus.vocabulary],
                       dtype=np.int32)
    stemmed = replace(corpus, vocabulary=tuple(stems), token_ids=stem_of[corpus.token_ids])
    keywords = _coded(stemmed, [stem_tokens(tokenize(k)) for k in sorted(target_keywords)])
    flags = np.zeros(len(corpus), dtype=bool)
    for a0, block in _blocks(stemmed, len(keywords)):
        flags[a0:a0 + len(block)] = _phrase_hits(block, keywords).any(axis=1)
    return flags


def feature_coverage(corpus: Corpus, features, gaz: Gazetteer, locations) -> list[int]:
    """Per location, the number of articles naming it that contain any of ``features``."""
    counts = np.zeros(len(locations), dtype=np.int64)
    for _, _, _, located in _co_mentions(corpus, features, gaz, locations):
        counts += np.bincount(located, minlength=len(locations))
    return counts.tolist()


@dataclass(frozen=True)
class NewsFactors:
    """Monthly share of a country's articles co-mentioning each feature and location.

    ``counts[f, i, t]`` is the number of articles in month ``start + t`` that
    contain feature ``features[f]`` and name ``locations[i]``, out of the
    ``denominators[i, t]`` articles that the location's share is of.
    ``values`` is their quotient, 0 in a month whose denominator is 0.
    Locations are the sorted districts, then the sorted provinces, then the
    sorted countries, and ``levels[i]`` names the level of ``locations[i]``.
    """

    features: tuple[str, ...]
    locations: tuple[str, ...]
    levels: tuple[str, ...]
    start: int
    counts: np.ndarray        # unsigned integers, feature x location x month
    denominators: np.ndarray  # int64, location x month

    def __post_init__(self):
        c, d, n_locs = self.counts, self.denominators, len(self.locations)
        if (c.dtype.kind != "u" or c.ndim != 3 or c.shape[:2] != (len(self.features), n_locs)
                or len(self.levels) != n_locs or d.dtype != np.int64
                or d.shape != (n_locs, c.shape[2])):
            raise DataError(f"news factor counts of dtype {c.dtype} and shape {c.shape}, over "
                            f"denominators of dtype {d.dtype} and shape {d.shape}, do not fit "
                            f"{len(self.features)} features and {n_locs} locations")
        if (d < 0).any():
            raise DataError("news factor denominators must not be negative")
        if not np.all(c <= d):
            raise DataError("a news factor count exceeds its month's denominator")

    @cached_property
    def values(self) -> np.ndarray:
        """float64 shares, feature x location x month: each count over its denominator."""
        # An integer count over an integer count, as Python's int / int would give it.
        values = np.zeros(self.counts.shape)
        np.divide(self.counts, self.denominators, out=values, where=self.denominators > 0)
        return values


DENOMINATORS = ("country", "corpus")  # the articles a location's monthly share is of


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
    name the location (``_co_mentions``). The denominator is the count of
    the month's articles tagged with the location's country ("country", the
    default) or all articles that month ("corpus"). With "country", the
    numerator counts only articles tagged with the location's country too, so
    the value is a share of that country's articles. A month with no such
    articles has denominator 0, and value 0. With ``exclude_targets`` set,
    articles containing a target keyword are removed from numerator and
    denominator.

    Returns the factors of the features that occur in some article, in the
    given order, and the features that occur in no article.
    """
    if denominator not in DENOMINATORS:
        raise DataError(f"unknown denominator scope {denominator!r}")
    keep = np.ones(len(corpus), dtype=bool)
    if exclude_targets:
        if not target_keywords:
            raise DataError("exclude_targets requires target keywords")
        keep = ~target_flags(corpus, target_keywords)
    locations = gaz.locations
    country_of = [gaz.location_country(loc) for loc in locations]
    w0, w1 = corpus.window
    n_months, n_locs = w1 - w0 + 1, len(locations)
    month = corpus.months - w0
    # article x scope: whether the article counts toward each location scope, one per
    # gazetteer country ("country") or one that every article counts toward ("corpus")
    scope_of = country_of if denominator == "country" else [None] * n_locs
    scopes = sorted(set(scope_of))
    tag_sets, set_of = corpus.tag_sets
    in_scope = np.array([[s is None or s in tags for s in scopes] for tags in tag_sets],
                        dtype=bool).reshape(len(tag_sets), len(scopes))[set_of]
    loc_scope = np.array([scopes.index(s) for s in scope_of], dtype=np.int64)

    found = np.zeros(len(features), dtype=bool)
    counts = np.zeros(len(features) * n_locs * n_months, dtype=np.int64)
    for fa, ff, la, li in _co_mentions(corpus, features, gaz, locations):
        found[ff] = True
        own = in_scope[la, loc_scope[li]]
        la, li = la[own], li[own]
        fa, ff = fa[keep[fa]], ff[keep[fa]]
        # every kept (article, feature) pair with every location the article names
        lo = np.searchsorted(la, fa, "left")
        n_named = np.searchsorted(la, fa, "right") - lo
        cells = ((np.repeat(ff, n_named) * n_locs + li[_ranges(lo, n_named)]) * n_months
                 + month[np.repeat(fa, n_named)])
        counts += np.bincount(cells, minlength=counts.size)
    counts = counts.reshape(len(features), n_locs, n_months)

    a, c = np.nonzero(in_scope & keep[:, None])
    totals = np.bincount(c * n_months + month[a], minlength=len(scopes) * n_months)

    present = np.flatnonzero(found).tolist()
    factors = NewsFactors(
        features=tuple(features[f] for f in present),
        locations=tuple(locations),
        levels=tuple(gaz.location_level(loc) for loc in locations),
        start=w0,
        counts=counts[present].astype(np.uint64),
        denominators=totals.reshape(len(scopes), n_months)[loc_scope],
    )
    return factors, [feature for f, feature in enumerate(features) if not found[f]]


def save_factors(counts_path, labels_path, factors: NewsFactors) -> None:
    """Write the counts as ``.npy`` and the labels and denominators as one line of JSON.

    The counts are stored in the smallest unsigned type that holds the
    largest. Neither file carries a timestamp, so equal factors give equal bytes.
    """
    counts = factors.counts
    with open(counts_path, "wb") as fh:
        np.save(fh, counts.astype(np.min_scalar_type(counts.max(initial=0))), allow_pickle=False)
    labels = {
        "features": list(factors.features),
        "locations": list(factors.locations),
        "levels": list(factors.levels),
        "start": format_month(factors.start),
        "denominators": factors.denominators.tolist(),
    }
    with open(labels_path, "w", encoding="utf-8") as fh:
        json.dump(labels, fh, separators=(",", ":"))
        fh.write("\n")


def load_factors(counts_path, labels_path) -> NewsFactors:
    """The factors ``save_factors`` wrote; DataError, naming both files, when they do not fit."""
    try:
        counts = np.load(counts_path, allow_pickle=False)
        if counts.dtype.kind == "f":
            raise DataError(f"the counts are {counts.dtype} shares, an older newswarn's format; "
                            "rerun the factors stage (for example, delete "
                            "manifests/factors.json)")
        with open(labels_path, "r", encoding="utf-8") as fh:
            labels = json.load(fh)
        features, locations, levels = (tuple(labels[k]) for k in
                                       ("features", "locations", "levels"))
        start = parse_month(labels["start"])
        rows = labels["denominators"]
        if not (isinstance(rows, list) and all(isinstance(row, list)
                                               and all(type(n) is int for n in row)
                                               for row in rows)):
            raise DataError("denominators are not lists of integers")
        n_months = counts.shape[2] if counts.ndim == 3 else 0
        denominators = np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else n_months)
        return NewsFactors(features, locations, levels, start, counts, denominators)
    except (KeyError, TypeError, ValueError, AttributeError, EOFError, OverflowError,
            DataError) as exc:
        raise DataError(f"bad news factors {counts_path}, {labels_path}: {exc}") from None
