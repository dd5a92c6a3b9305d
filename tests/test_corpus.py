import json
import re
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newswarn import corpus as corpus_mod
from newswarn.corpus import (MAX_VOCABULARY, District, Gazetteer, NewsFactors, feature_coverage,
                             load_factors, news_factors, read_corpus, save_factors)
from newswarn.errors import DataError
from newswarn.months import format_month, parse_date, parse_month
from newswarn.semantics import enumerate_candidates
from newswarn.stemmer import stem_tokens
from newswarn.textutil import iter_ngrams, normalize_ngram, tokenize

from conftest import article, article_tokens, make_gazetteer, ngram_occurrences, write_corpus


# ------------------------------------------------------------------ oracle
# The posting-set index the count-based corpus layer replaced: one Python set
# of article ids per location and per distinct 1..3-gram, and one factor
# series per call. The tests below require the new counts to equal it.


class OracleIndex:
    def __init__(self, window):
        self.window = window
        self.articles = {}  # id -> (month, tags, tokens)
        self.by_month = defaultdict(list)
        self.loc_postings = defaultdict(set)
        self.ngram_postings = defaultdict(set)
        self.ngram_occurrences = Counter()
        self.monthly_totals = Counter()

    def add(self, aid, month, tags, tokens, gaz):
        if aid in self.articles:
            raise DataError(f"duplicate article id {aid!r}")
        self.articles[aid] = (month, tags, tokens)
        self.by_month[month].append(aid)
        for loc in oracle_locations(tokens, tags, gaz):
            self.loc_postings[loc].add(aid)
        for gram in iter_ngrams(tokens):
            key = " ".join(gram)
            self.ngram_occurrences[key] += 1
            self.ngram_postings[key].add(aid)
        for c in tags:
            self.monthly_totals[(c, month)] += 1

    def articles_with_targets(self, target_keywords):
        sequences = [stem_tokens(tokenize(k)) for k in sorted(target_keywords)]
        hits = set()
        for aid, (_, _, tokens) in self.articles.items():
            stems = stem_tokens(tokens)
            for seq in sequences:
                n = len(seq)
                if n and n <= len(stems) and any(stems[i : i + n] == seq
                                                  for i in range(len(stems) - n + 1)):
                    hits.add(aid)
                    break
        return hits


def oracle_locations(tokens, tags, gaz):
    matched = set()
    for n in range(1, len(tokens) + 1):
        for i in range(len(tokens) - n + 1):
            for d in gaz.districts.values():
                if tokenize(d.name) == tokens[i : i + n] or any(
                        tokenize(a) == tokens[i : i + n] for a in d.aliases):
                    matched.add(d.district_id)
    out = set(tags)
    for did in matched:
        d = gaz.districts[did]
        out |= {did, d.province_id, d.country}
    return out


def oracle_ingest(path, window, gaz, strict=False):
    w0, w1 = (parse_month(w) for w in window)
    if w1 < w0:
        raise DataError(f"empty corpus window [{format_month(w0)}, {format_month(w1)}]")
    index = OracleIndex((w0, w1))
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    obj = json.loads(line)
                    month = parse_date(obj["date"])
                    if not isinstance(obj["countries"], list):
                        raise DataError(f"countries {obj['countries']!r} is not a list")
                    tags = frozenset(str(c).upper() for c in obj["countries"])
                    if not tags:
                        raise DataError("empty country tags")
                    aid = str(obj["id"])
                    tokens = tokenize(str(obj["text"]))
                except (KeyError, TypeError, ValueError, DataError) as exc:
                    raise DataError(f"line {lineno}: malformed article: {exc}") from None
                if w0 <= month <= w1:
                    index.add(aid, month, tags, tokens, gaz)
            except DataError as exc:
                if strict:
                    raise DataError(f"{path}: {exc}") from None
                skipped += 1
    if not index.articles:
        raise DataError(f"no articles inside window [{format_month(w0)}, {format_month(w1)}]")
    index.skipped_lines = skipped
    return index


def oracle_factor(feature, loc, index, gaz, exclude_targets=False, target_keywords=None,
                  denominator="country"):
    key = normalize_ngram(feature)
    if key not in index.ngram_postings:
        raise DataError(f"feature {key!r} does not occur in the corpus")
    level = gaz.location_level(loc)
    country = gaz.location_country(loc)
    excluded = index.articles_with_targets(target_keywords) if exclude_targets else set()
    co_ids = index.ngram_postings[key] & index.loc_postings.get(loc, set())
    if denominator == "country":
        co_ids = {a for a in co_ids if country in index.articles[a][1]}
    co_by_month = Counter(index.articles[a][0] for a in co_ids if a not in excluded)
    denom_drop = Counter()
    for a in excluded:
        month, tags, _ = index.articles[a]
        if denominator == "corpus" or country in tags:
            denom_drop[month] += 1
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
    return key, loc, level, values.tobytes(), tuple(zero_months)


def oracle_factors(index, features, gaz, **kwargs):
    locations = sorted(gaz.districts) + sorted(gaz.provinces) + sorted(gaz.countries)
    series, absent = [], []
    for f in features:
        if f not in index.ngram_postings:
            absent.append(f)
            continue
        series += [oracle_factor(f, loc, index, gaz, **kwargs) for loc in locations]
    return series, absent


def oracle_coverage(index, features, locations):
    with_features = set()
    for f in features:
        with_features |= index.ngram_postings.get(f, set())
    return [len(index.loc_postings.get(loc, set()) & with_features) for loc in locations]


def records(factors):
    """(feature, location, level, value bytes, empty months) of each factor series."""
    return [
        (w, loc, level, factors.values[f, i].tobytes(),
         tuple(factors.start + int(t) for t in np.flatnonzero(factors.zero_denominator[i])))
        for f, w in enumerate(factors.features)
        for i, (loc, level) in enumerate(zip(factors.locations, factors.levels))
    ]


def factors_of(corpus, features, gaz, **kwargs):
    """news_factors' monthly values keyed by (feature, location)."""
    factors, _ = news_factors(corpus, features, gaz, **kwargs)
    return {(w, loc): factors.values[f, i] for f, w in enumerate(factors.features)
            for i, loc in enumerate(factors.locations)}


class TestIngest:
    def test_three_articles_indexed(self, small_corpus):
        assert len(small_corpus) == 3
        jan, feb = parse_month("2011-01"), parse_month("2011-02")
        assert small_corpus.months.tolist() == [jan, jan, feb]
        so_by_month = Counter(m for m, tags in zip(small_corpus.months.tolist(),
                                                   small_corpus.country_tags) if "SO" in tags)
        assert so_by_month == {jan: 2, feb: 1}

    def test_article_outside_window_excluded(self, tmp_path):
        arts = [article(0, "2011-01-05", "inside the window"),
                article(1, "2012-06-05", "outside the window")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        corpus = read_corpus(path, ("2011-01", "2011-12"))
        assert len(corpus) == 1
        assert article_tokens(corpus) == [("inside", "the", "window")]
        assert corpus.vocabulary == ("inside", "the", "window")

    def test_duplicate_id_strict_error(self, tmp_path):
        arts = [article(0, "2011-01-05", "one"), article(0, "2011-01-06", "two")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        with pytest.raises(DataError, match="duplicate"):
            read_corpus(path, ("2011-01", "2011-02"), strict=True)

    def test_duplicate_id_lenient_skips(self, tmp_path):
        arts = [article(0, "2011-01-05", "one"), article(0, "2011-01-06", "two")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = read_corpus(path, ("2011-01", "2011-02"))
        assert len(corpus) == 1
        assert corpus.skipped_lines == 1
        assert any("duplicate" in str(w.message) for w in caught)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write('{"id": "a1", "date": "2011-01-02", "countries": ["SO"], "text": "ok"}\n')
            fh.write("not json at all\n")
        with pytest.raises(DataError, match="line 2"):
            read_corpus(path, ("2011-01", "2011-02"), strict=True)

    def test_a_non_string_date_or_string_countries_is_a_malformed_article(self, tmp_path):
        # A string of countries is no list of tags: "SO" is not the tags {"S", "O"}.
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([
            json.dumps(article(0, "2011-01-05", "ok")),
            '{"id": "b", "date": 20110103, "countries": ["SO"], "text": "aa"}',
            '{"id": "c", "date": "2011-01-03", "countries": "SO", "text": "aa"}']) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = read_corpus(path, ("2011-01", "2011-01"))
        assert len(corpus) == 1 and corpus.skipped_lines == 2
        assert [str(w.message).split(f"{path}: ")[1] for w in caught] == [
            "line 2: malformed article: bad date 20110103: not a string (skipped)",
            "line 3: malformed article: countries 'SO' is not a list (skipped)"]
        with pytest.raises(DataError, match="line 2: malformed article: bad date 20110103"):
            read_corpus(path, ("2011-01", "2011-01"), strict=True)

    def test_each_line_is_parsed_alone(self, tmp_path):
        # Joined by commas into one JSON array, the first two lines would parse as two
        # objects; alone, each is malformed, as is a line with data after its object.
        halves = ['{"a": "x', 'y"}, {"id": "x"}']
        assert json.loads("[" + ",".join(halves) + "]") == [{"a": "x,y"}, {"id": "x"}]
        good = json.dumps(article(0, "2011-01-05", "ok"))
        trailing = json.dumps(article(1, "2011-01-06", "more")) + ' {"id": "y"}'
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join([*halves, good, trailing]) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = read_corpus(path, ("2011-01", "2011-01"))
        assert len(corpus) == 1 and corpus.skipped_lines == 3
        messages = [str(w.message).split(f"{path}: ")[1] for w in caught]
        assert [m.split(": malformed article: ")[0] for m in messages] == \
            ["line 1", "line 2", "line 4"]
        assert messages[2].startswith("line 4: malformed article: Extra data: line 1 column")
        with pytest.raises(DataError, match="line 1: malformed article: Unterminated string"):
            read_corpus(path, ("2011-01", "2011-01"), strict=True)

    @pytest.mark.parametrize("block", [1, 2, corpus_mod._TEXT_BLOCK])
    def test_blocks_tokenize_as_each_article_alone(self, tmp_path, monkeypatch, block):
        # A NUL inside a text is no article boundary, and letters whose lowercase is
        # ASCII (dotted capital I, the Kelvin sign) are tokenized as alone.
        texts = ["Jamaame\nFAMINE looms", "dry\x00spell near \u212aISMAYO", "\u0130stanbul \u0130I",
                 "", "ok\u212a, caf\u00e9 \u00c9T\u00c9 42", "x\x00", "\x00", "plain words here"]
        path = write_corpus(tmp_path / "c.jsonl",
                            [article(i, "2011-01-05", text) for i, text in enumerate(texts)])
        monkeypatch.setattr(corpus_mod, "_TEXT_BLOCK", block)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        assert article_tokens(corpus) == [tokenize(text) for text in texts]
        assert corpus.offsets.tolist() == np.cumsum([0, *map(len, map(tokenize, texts))]).tolist()
        assert ("kismayo" in corpus.vocabulary and "i" in corpus.vocabulary
                and "\x00" not in corpus.vocabulary)

    def test_empty_window_errors(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [article(0, "2011-01-05", "x")])
        with pytest.raises(DataError):
            read_corpus(path, ("2012-01", "2012-02"))

    def test_determinism(self, tmp_path):
        arts = [article(i, f"2011-0{1 + i % 2}-05", f"famine in Jamaame number {i}")
                for i in range(6)]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        a = read_corpus(path, ("2011-01", "2011-02"))
        b = read_corpus(path, ("2011-01", "2011-02"))
        assert a.months.tolist() == b.months.tolist()
        assert a.country_tags == b.country_tags
        assert a.vocabulary == b.vocabulary
        assert a.token_ids.tobytes() == b.token_ids.tobytes()
        assert a.offsets.tolist() == b.offsets.tolist()
        assert article_tokens(a) == article_tokens(b)
        assert ngram_occurrences(a) == ngram_occurrences(b)

    def test_token_ids_follow_first_use_in_the_file(self, tmp_path):
        # The out-of-window and the duplicate article add no word, and no id
        # depends on the order of a set or on the hash seed.
        arts = [article(0, "2011-01-05", "Zulu yankee, zulu!"),
                article(1, "2012-06-05", "outside words"),
                article(2, "2011-01-06", "x-ray yankee whiskey"),
                article(2, "2011-01-07", "duplicate words"),
                article(3, "2011-02-01", ""),
                article(4, "2011-02-02", "whiskey alpha")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corpus = read_corpus(path, ("2011-01", "2011-02"))
        assert corpus.vocabulary == ("zulu", "yankee", "x", "ray", "whiskey", "alpha")
        assert corpus.token_ids.dtype == np.int32
        assert corpus.token_ids.tolist() == [0, 1, 0, 2, 3, 1, 4, 4, 5]
        assert corpus.offsets.tolist() == [0, 3, 7, 7, 9]
        assert article_tokens(corpus)[2] == ()

    def test_ngram_keys_have_a_range_per_order(self, small_corpus):
        v = len(small_corpus.vocabulary)
        keys, counts = small_corpus.ngram_counts()
        assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
        assert keys[keys < v].tolist() == list(range(v))
        assert small_corpus.pack([[v - 1], [v - 1]]).tolist() == [v + v * v - 1]
        assert small_corpus.pack([[0], [0], [0]]).tolist() == [v + v * v]
        # no n-gram runs across two articles: "drought market day" is no trigram
        assert counts.sum() == sum(max(0, len(t) - n + 1) for t in article_tokens(small_corpus)
                                   for n in (1, 2, 3))
        assert {small_corpus.ngram(k) for k in keys.tolist()} == {
            " ".join(t[i : i + n]) for t in article_tokens(small_corpus)
            for n in (1, 2, 3) for i in range(len(t) - n + 1)}

    def test_a_vocabulary_too_large_for_int64_keys_is_rejected(self, tmp_path, monkeypatch):
        # The largest V with V**3 + V**2 + V < 2**63; the check runs on a lowered bound.
        v = MAX_VOCABULARY
        assert v ** 3 + v ** 2 + v < 2 ** 63 <= (v + 1) ** 3
        path = write_corpus(tmp_path / "c.jsonl", [article(0, "2011-01-05", "one two three")])
        monkeypatch.setattr(corpus_mod, "MAX_VOCABULARY", 3)
        assert read_corpus(path, ("2011-01", "2011-01")).vocabulary == ("one", "two", "three")
        monkeypatch.setattr(corpus_mod, "MAX_VOCABULARY", 2)
        with pytest.raises(DataError, match="vocabulary of 3 words exceeds 2"):
            read_corpus(path, ("2011-01", "2011-01"))


class TestGazetteerInvariants:
    def base_row(self, **overrides):
        from newswarn.corpus import District
        fields = dict(district_id="x1", name="Xtown", aliases=(), province_id="p1",
                      country="SO", lat=1.0, lon=2.0)
        fields.update(overrides)
        return District(**fields)

    @staticmethod
    def write(path, districts, statics=()):
        """A gazetteer file of ``districts``, each row followed by the cells ``statics``."""
        from newswarn.artifacts import write_csv
        from newswarn.corpus import GAZETTEER_COLUMNS
        names = ["population", "area_km2", "ruggedness", "cropland_share", "pasture_share"]
        write_csv(path, [*GAZETTEER_COLUMNS, *names[:len(statics)]], (
            [d.district_id, d.name, "|".join(d.aliases), d.province_id, d.country, d.lat, d.lon,
             *statics] for d in districts))

    def test_duplicate_district_id(self):
        from newswarn.corpus import Gazetteer
        with pytest.raises(DataError, match="duplicate"):
            Gazetteer([self.base_row(), self.base_row(name="Other")])

    def test_invalid_centroid(self):
        from newswarn.corpus import Gazetteer
        with pytest.raises(DataError, match="centroid"):
            Gazetteer([self.base_row(lat=99.0)])

    def test_missing_province(self):
        from newswarn.corpus import Gazetteer
        with pytest.raises(DataError, match="province"):
            Gazetteer([self.base_row(province_id="")])

    def test_static_columns_are_optional_and_ignored(self, tmp_path):
        # District statics would lie in the span of every model's district
        # intercepts, so the reader takes the location columns alone.
        from newswarn.corpus import load_gazetteer
        rows = [self.base_row(), self.base_row(district_id="x2", name="Ytown", aliases=("yy",))]
        self.write(tmp_path / "with.csv", rows, [float("nan"), 1.0, 0.0, 0.0, 0.0])
        self.write(tmp_path / "without.csv", rows)
        with_statics = load_gazetteer(tmp_path / "with.csv")
        assert with_statics.districts == load_gazetteer(tmp_path / "without.csv").districts
        assert list(with_statics.districts.values()) == rows

    @pytest.mark.parametrize("cut, cells", [(-1, 11), (None, 13)])
    def test_row_of_the_wrong_width_names_file_line_and_counts(self, tmp_path, cut, cells):
        from newswarn.corpus import load_gazetteer
        path = tmp_path / "gazetteer.csv"
        self.write(path, [self.base_row()], [1.0, 1.0, 0.0, 0.0, 0.0])
        header, row = path.read_text().splitlines()
        row = ",".join(row.split(",")[:cut] if cut else row.split(",") + ["9"])
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:2: bad gazetteer row: {cells} cells, header has 12")):
            load_gazetteer(path)


class TestMatchLocations:
    def locations(self, tmp_path, text, gazetteer, countries=("SO",)):
        """The locations a one-article corpus names, read off its feature coverage."""
        path = write_corpus(tmp_path / "c.jsonl", [article(0, "2011-01-05", text, countries)])
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        locations = sorted(gazetteer.districts) + sorted(gazetteer.provinces) + ["SO", "ET"]
        counts = feature_coverage(corpus, [tokenize(text)[0]], gazetteer, locations)
        return {loc for loc, n in zip(locations, counts) if n}

    def test_district_implies_province_and_country(self, tmp_path, gazetteer):
        assert self.locations(tmp_path, "famine may return to Jamaame this year", gazetteer) == \
            {"so-jam", "so-lower-juba", "SO"}

    def test_no_names_falls_back_to_tags(self, tmp_path, gazetteer):
        assert self.locations(tmp_path, "nothing geographic here", gazetteer, ("ET",)) == {"ET"}

    def test_alias_match(self, tmp_path, gazetteer):
        assert self.locations(tmp_path, "drought reported around Majang highlands", gazetteer,
                              ("ET",)) == {"et-maj", "et-gambela", "ET"}

    def test_whole_token_only(self, tmp_path, gazetteer):
        # "gog" must not match inside "gogol"
        assert self.locations(tmp_path, "the gogol river floods", gazetteer) == {"SO"}


class TestNewsFactor:
    def build(self, tmp_path, gazetteer):
        arts = []
        i = 0
        # January: 10 SO articles; 4 mention drought+Jamaame; of those 4, 2 say
        # famine; 1 further article says famine without the co-mention.
        for _ in range(2):
            arts.append(article(i, "2011-01-05", "drought hits Jamaame famine feared")); i += 1
        for _ in range(2):
            arts.append(article(i, "2011-01-06", "drought near Jamaame wells dry")); i += 1
        arts.append(article(i, "2011-01-07", "famine warning issued nationally")); i += 1
        for _ in range(5):
            arts.append(article(i, "2011-01-08", "market day in Kismayo")); i += 1
        return write_corpus(tmp_path / "c.jsonl", arts)

    def test_direct_ratio(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        factors, _ = news_factors(corpus, ["drought"], gazetteer)
        assert factors.start == parse_month("2011-01")
        assert factors.values[0, factors.locations.index("so-jam"), 0] == pytest.approx(0.4)
        assert [loc for loc, level in zip(factors.locations, factors.levels)
                if level == "country"] == ["ET", "SO"]

    def test_exclude_targets_hand_count(self, tmp_path, gazetteer):
        # 4 co-mentions, 2 contain a target; 3 of 10 articles contain a target
        # overall -> (4 - 2) / (10 - 3) = 2/7.
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        f = factors_of(corpus, ["drought"], gazetteer, exclude_targets=True,
                       target_keywords=("famine",))[("drought", "so-jam")]
        assert f.tolist() == [pytest.approx(2.0 / 7.0)]

    def test_never_comentioned_all_zero(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        f = factors_of(corpus, ["market"], gazetteer)[("market", "so-jam")]
        assert np.all(f == 0.0)

    def test_unknown_feature_errors(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        # corpus n-grams are canonical and have at most 3 tokens
        features = ["drought", "zeppelin", "Drought", "drought hits jamaame famine"]
        factors, absent = news_factors(corpus, features, gazetteer)
        assert absent == features[1:]
        assert factors.features == ("drought",)
        assert factors.values.shape == (1, len(factors.locations), 1)
        with pytest.raises(DataError, match="denominator"):
            news_factors(corpus, ["drought"], gazetteer, denominator="nowhere")
        with pytest.raises(DataError, match="target keywords"):
            news_factors(corpus, ["drought"], gazetteer, exclude_targets=True)

    def test_zero_denominator_month_flagged(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-02"))
        factors, _ = news_factors(corpus, ["drought"], gazetteer)
        jam = factors.locations.index("so-jam")
        assert factors.values[0, jam, 1] == 0.0  # 2011-02
        assert factors.zero_denominator[jam].tolist() == [False, True]

    def test_denominator_monotonicity(self, tmp_path, gazetteer):
        # Adding an SO-tagged article with no mentions weakly lowers the factor.
        base = self.build(tmp_path, gazetteer)
        corpus = read_corpus(base, ("2011-01", "2011-01"))
        before = factors_of(corpus, ["drought"], gazetteer)[("drought", "so-jam")]
        arts = [article(90, "2011-01-20", "sports results from the coast")]
        with open(base, "a") as fh:
            fh.write(json.dumps(arts[0]) + "\n")
        corpus2 = read_corpus(base, ("2011-01", "2011-01"))
        after = factors_of(corpus2, ["drought"], gazetteer)[("drought", "so-jam")]
        assert after[0] <= before[0]

    def test_factor_values_within_unit_interval(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        factors = factors_of(corpus, ["drought", "famine", "market"], gazetteer)
        for feature in ("drought", "famine", "market"):
            for loc in ("so-jam", "so-lower-juba", "SO"):
                f = factors[(feature, loc)]
                assert np.all((f >= 0) & (f <= 1))

    def test_denominator_scope_switch(self, tmp_path, gazetteer):
        arts = [article(0, "2011-01-05", "drought hits Jamaame"),
                article(1, "2011-01-06", "calm day in Kismayo")]
        arts += [article(2 + i, "2011-01-07", "harvest news", countries=("ET",))
                 for i in range(2)]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        corpus = read_corpus(path, ("2011-01", "2011-01"))
        country = factors_of(corpus, ["drought"], gazetteer)[("drought", "so-jam")]
        corpus_wide = factors_of(corpus, ["drought"], gazetteer,
                                 denominator="corpus")[("drought", "so-jam")]
        assert country[0] == pytest.approx(1 / 2)
        assert corpus_wide[0] == pytest.approx(1 / 4)

    def test_untagged_mentions_stay_out_of_a_country_share(self, tmp_path, gazetteer):
        # Only the SO-tagged article counts toward so-jam's share of SO articles.
        arts = [article(0, "2011-01-05", "jamaame jamaame"),
                article(1, "2011-01-06", "jamaame jamaame", countries=("ET",))]
        corpus = read_corpus(write_corpus(tmp_path / "c.jsonl", arts), ("2011-01", "2011-01"))
        country = factors_of(corpus, ["jamaame"], gazetteer)
        assert country[("jamaame", "so-jam")][0] == 1.0
        assert country[("jamaame", "ET")][0] == 1.0
        corpus_wide = factors_of(corpus, ["jamaame"], gazetteer, denominator="corpus")
        assert corpus_wide[("jamaame", "so-jam")][0] == 1.0

    def test_a_large_gazetteer_shrinks_the_block_not_the_counts(self, tmp_path, monkeypatch):
        # 2,000 districts with an alias each: a block's mask rows are over 6,000 cells
        # wide, so the 2,500 articles are scanned in several blocks of under 8,192.
        gaz = Gazetteer([District(f"so-d{d:04d}", f"town{d}", (f"alias{d}",), f"so-p{d % 40}",
                                  "SO", 0.0, 42.0) for d in range(2000)])
        named = {i: {f"so-d{i % 2000:04d}", f"so-d{7 * i % 2000:04d}"} for i in range(2500)}
        arts = [article(i, "2011-01-05", f"famine near town{i % 2000} and alias{7 * i % 2000}"
                        if i % 3 else f"drought near town{i % 2000}") for i in range(2500)]
        corpus = read_corpus(write_corpus(tmp_path / "c.jsonl", arts), ("2011-01", "2011-01"))
        locations = sorted(gaz.districts) + sorted(gaz.provinces) + ["SO"]
        blocks, seen = corpus_mod._blocks, []

        def spy(corpus, width):
            for a0, block in blocks(corpus, width):
                seen.append(len(block) * width)
                yield a0, block

        monkeypatch.setattr(corpus_mod, "_blocks", spy)
        coverage = feature_coverage(corpus, ["famine"], gaz, locations)
        assert len(seen) > 1 and max(seen) <= corpus_mod._BLOCK_CELLS
        want = Counter(loc for i, ds in named.items() if i % 3
                       for loc in ds | {gaz.districts[d].province_id for d in ds})
        assert coverage[:-1] == [want[loc] for loc in locations[:-1]]
        assert coverage[-1] == sum(1 for i in range(2500) if i % 3)
        factors = factors_of(corpus, ["famine", "drought"], gaz)
        monkeypatch.setattr(corpus_mod, "_BLOCK_CELLS", 1 << 40)
        seen.clear()
        assert feature_coverage(corpus, ["famine"], gaz, locations) == coverage
        assert len(seen) == 1
        whole = factors_of(corpus, ["famine", "drought"], gaz)
        assert all(whole[key].tobytes() == values.tobytes() for key, values in factors.items())

    def test_factors_round_trip(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        corpus = read_corpus(path, ("2011-01", "2011-02"))
        factors, _ = news_factors(corpus, ["drought", "famine"], gazetteer)
        save_factors(tmp_path / "f.npy", tmp_path / "f.json", factors)
        back = load_factors(tmp_path / "f.npy", tmp_path / "f.json")
        assert (back.features, back.locations, back.levels, back.start) == \
               (factors.features, factors.locations, factors.levels, factors.start)
        assert back.values.tobytes() == factors.values.tobytes()
        assert np.array_equal(back.zero_denominator, factors.zero_denominator)
        labels = json.loads((tmp_path / "f.json").read_text())
        assert labels["start"] == "2011-01"
        so, et = ["2011-02"], ["2011-01", "2011-02"]  # every article is SO-tagged, in January
        assert labels["zero_denominator"] == {
            "so-jam": so, "so-kis": so, "so-lower-juba": so, "SO": so,
            "et-gog": et, "et-maj": et, "et-gambela": et, "ET": et}

    def test_factors_round_trip_values_bit_for_bit(self, tmp_path):
        values = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1 / 3,
                           0.1 + 0.2, np.nextafter(1.0, 0.0), 1.0])
        zero = np.zeros((2, values.size), dtype=bool)
        zero[1, [0, 7]] = True
        factors = NewsFactors(("drought", "flood"), ("so-jam", "SO"), ("district", "country"),
                              parse_month("2010-11"), np.stack([[values, values[::-1]]] * 2),
                              zero)
        save_factors(tmp_path / "a.npy", tmp_path / "a.json", factors)
        back = load_factors(tmp_path / "a.npy", tmp_path / "a.json")
        assert back.values.tobytes() == factors.values.tobytes()
        assert np.array_equal(back.zero_denominator, zero)
        assert back.start == parse_month("2010-11")
        save_factors(tmp_path / "b.npy", tmp_path / "b.json", back)
        for suffix in ("npy", "json"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == \
                   (tmp_path / f"b.{suffix}").read_bytes()

    def test_load_factors_rejects_an_array_that_does_not_fit_its_labels(self, tmp_path):
        labels = tmp_path / "f.json"
        labels.write_text(json.dumps({"features": ["drought"], "locations": ["so-jam", "SO"],
                                      "levels": ["district", "country"], "start": "2011-01",
                                      "zero_denominator": {}}))
        values = tmp_path / "f.npy"
        np.save(values, np.full((1, 2, 3), 0.5))
        back = load_factors(values, labels)
        assert back.start + back.values.shape[2] - 1 == parse_month("2011-03")
        for bad, match in [(np.full((1, 3, 3), 0.5), "do not fit"),
                           (np.full((1, 2), 0.5), "do not fit"),
                           (np.full((1, 2, 3), 0.5, dtype=np.float32), "dtype float32"),
                           (np.full((1, 2, 3), 1.5), r"\[0, 1\]")]:
            np.save(values, bad)
            with pytest.raises(DataError, match=match):
                load_factors(values, labels)
        values.write_bytes(b"not an array")
        with pytest.raises(DataError, match="bad news factors"):
            load_factors(values, labels)


# ------------------------------------------------- property test against the oracle

_WORDS = ("jamaame", "kismayo", "majang", "gog", "dry", "spell", "famine", "starving",
          "food", "crisis", "aa")
_MALFORMED = ("not json", "[1, 2]",
              '{"id": "m", "countries": ["SO"], "text": "aa"}',
              '{"id": "m", "date": 20110103, "countries": ["SO"], "text": "aa"}',
              '{"id": "m", "date": "2011-01-03", "countries": "SO", "text": "aa"}',
              '{"date": "2011-01-03", "countries": ["SO"], "text": "aa"}',
              '{"id": "m", "date": "2011-01-03", "countries": [], "text": "aa"}',
              '{"id": "m", "date": "2011-13-03", "countries": ["SO"], "text": "aa"}')
_phrase = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
# Multi-token district aliases, and a text that holds a 4-token target keyword's stems.
_COUNTRY_OF = {"jamaame": "SO", "kismayo": "SO", "majang": "ET", "gog": "ET",
               "kismayo aa": "KE", "majang dry spell aa": "KE"}
# Texts with a newline or a NUL, and letters whose lowercase is ASCII: "\u212aismayo" (the
# Kelvin sign) tokenizes to "kismayo", and "FAM\u0130NE" (a dotted capital I) to "fami ne".
_UNITS = _WORDS + ("kismayo aa", "majang dry spell aa", "starving food crisis aa",
                   "dry\nspell", "\x00", "famine\x00crisis", "\u212aismayo", "FAM\u0130NE")


@st.composite
def _article(draw):
    words = draw(st.lists(st.sampled_from(_UNITS), min_size=2, max_size=12))
    tags = set(draw(st.lists(st.sampled_from(["SO", "ET", "KE"]), min_size=1, max_size=2)))
    if draw(st.integers(0, 9)):  # mostly also tagged with the countries of the districts named
        tags |= {_COUNTRY_OF[w] for w in words if w in _COUNTRY_OF}
    month = draw(st.sampled_from(["2010-12", "2011-01", "2011-02", "2011-04", "2011-05"]))
    return json.dumps({"id": str(draw(st.integers(0, 40))), "date": f"{month}-15",
                       "countries": sorted(tags), "text": " ".join(words)})


_line = st.one_of(st.sampled_from(_MALFORMED), st.just(""), *[_article()] * 6)


@pytest.mark.parametrize("exclude", [False, True])
@pytest.mark.parametrize("denominator", ["country", "corpus"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_line, min_size=4, max_size=16),
       features=st.lists(st.one_of(st.sampled_from(_WORDS), _phrase, st.just("zeppelin")),
                         min_size=2, max_size=6),
       # "starved" and "starving" share a stem, and "foods" and "food" another.
       targets=st.lists(st.sampled_from(["famine", "food crisis", "starved", "dry spell",
                                         "starved foods crisis aa"]),
                        min_size=1, max_size=3),
       strict=st.booleans(),
       # articles per tokenizing and co-mention block
       block=st.sampled_from([1, 3, corpus_mod._BLOCK]))
def test_counts_match_posting_set_oracle(tmp_path, monkeypatch, lines, features, targets, strict,
                                         block, exclude, denominator):
    # The window 2011-01..2011-04 leaves out 2010-12 and 2011-05 and has no
    # dated article in 2011-03, so every example has a zero-denominator month.
    # The two-token alias "kismayo aa" names a district of its own, beside Kismayo, and
    # the four-token alias "majang dry spell aa" one beside Majang.
    turkana = District("ke-tur", "Lokichar", ("kismayo aa",), "ke-turkana", "KE", 2.0, 35.0)
    marsabit = District("ke-mar", "Laisamis", ("majang dry spell aa",), "ke-marsabit", "KE",
                        2.3, 37.8)
    gaz = Gazetteer([*make_gazetteer().districts.values(), turkana, marsabit])
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    window = ("2011-01", "2011-04")
    monkeypatch.setattr(corpus_mod, "_TEXT_BLOCK", block)
    monkeypatch.setattr(corpus_mod, "_BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            index = oracle_ingest(path, window, gaz, strict=strict)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_corpus(path, window, strict=strict)
            assert str(got.value) == str(exc)
            return
        corpus = read_corpus(path, window, strict=strict)
    assert len(corpus) == len(index.articles)
    assert corpus.skipped_lines == index.skipped_lines
    assert article_tokens(corpus) == [tokens for _, _, tokens in index.articles.values()]
    assert ngram_occurrences(corpus) == index.ngram_occurrences
    for floor in (0, 1, 2):
        assert enumerate_candidates(corpus, floor) == sorted(
            gram for gram, n in index.ngram_occurrences.items() if " " not in gram or n > floor)

    features = sorted(set(features))
    kwargs = dict(exclude_targets=exclude, target_keywords=tuple(targets),
                  denominator=denominator)
    want, want_absent = oracle_factors(index, features, gaz, **kwargs)
    got, got_absent = news_factors(corpus, features, gaz, **kwargs)
    locations = sorted(gaz.provinces) + sorted(gaz.districts) + ["SO", "ET", "KE", "XX"]
    assert feature_coverage(corpus, features, gaz, locations) == \
           oracle_coverage(index, features, locations)
    assert got_absent == want_absent
    assert records(got) == want
    assert all(parse_month("2011-03") in r[-1] for r in want)
    save_factors(tmp_path / "f.npy", tmp_path / "f.json", got)
    assert records(load_factors(tmp_path / "f.npy", tmp_path / "f.json")) == want
