import warnings

import numpy as np
import pytest

from newswarn.corpus import (Article, NewsFactorSeries, compute_news_factor, ingest_corpus,
                             match_locations, read_factors_csv, write_factors_csv)
from newswarn.errors import DataError
from newswarn.months import parse_month
from newswarn.series import Series
from newswarn.textutil import tokenize

from conftest import article, make_gazetteer, write_corpus


def make_article(text, countries=("SO",), month="2011-01"):
    return Article(id="x", month=parse_month(month), date=f"{month}-01", source="t",
                   country_tags=frozenset(countries), tokens=tokenize(text))


class TestIngest:
    def test_three_articles_indexed(self, small_index):
        assert len(small_index) == 3
        jan, feb = parse_month("2011-01"), parse_month("2011-02")
        assert sorted(small_index.by_month[jan]) == ["a000", "a001"]
        assert small_index.by_month[feb] == ["a002"]
        assert small_index.monthly_totals[("SO", jan)] == 2
        assert small_index.monthly_totals[("SO", feb)] == 1

    def test_article_outside_window_excluded(self, tmp_path, gazetteer):
        arts = [article(0, "2011-01-05", "inside the window"),
                article(1, "2012-06-05", "outside the window")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        index = ingest_corpus(path, ("2011-01", "2011-12"), gazetteer)
        assert len(index) == 1
        assert sum(index.monthly_totals.values()) == 1

    def test_duplicate_id_strict_error(self, tmp_path, gazetteer):
        arts = [article(0, "2011-01-05", "one"), article(0, "2011-01-06", "two")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        with pytest.raises(DataError, match="duplicate"):
            ingest_corpus(path, ("2011-01", "2011-02"), gazetteer, strict=True)

    def test_duplicate_id_lenient_skips(self, tmp_path, gazetteer):
        arts = [article(0, "2011-01-05", "one"), article(0, "2011-01-06", "two")]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = ingest_corpus(path, ("2011-01", "2011-02"), gazetteer)
        assert len(index) == 1
        assert any("duplicate" in str(w.message) for w in caught)

    def test_malformed_line_reports_line_number(self, tmp_path, gazetteer):
        path = tmp_path / "c.jsonl"
        with open(path, "w") as fh:
            fh.write('{"id": "a1", "date": "2011-01-02", "countries": ["SO"], "text": "ok"}\n')
            fh.write("not json at all\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_corpus(path, ("2011-01", "2011-02"), gazetteer, strict=True)

    def test_empty_window_errors(self, tmp_path, gazetteer):
        path = write_corpus(tmp_path / "c.jsonl", [article(0, "2011-01-05", "x")])
        with pytest.raises(DataError):
            ingest_corpus(path, ("2012-01", "2012-02"), gazetteer)

    def test_determinism(self, tmp_path, gazetteer):
        arts = [article(i, f"2011-0{1 + i % 2}-05", f"famine in Jamaame number {i}")
                for i in range(6)]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        a = ingest_corpus(path, ("2011-01", "2011-02"), gazetteer)
        b = ingest_corpus(path, ("2011-01", "2011-02"), gazetteer)
        assert a.monthly_totals == b.monthly_totals
        assert a.ngram_occurrences == b.ngram_occurrences
        assert {k: sorted(v) for k, v in a.loc_postings.items()} == \
               {k: sorted(v) for k, v in b.loc_postings.items()}


class TestGazetteerInvariants:
    def base_row(self, **overrides):
        from newswarn.corpus import District
        fields = dict(district_id="x1", name="Xtown", aliases=(), province_id="p1",
                      country="SO", lat=1.0, lon=2.0,
                      statics=dict(population=1.0, area_km2=1.0, ruggedness=0.0,
                                   cropland_share=0.0, pasture_share=0.0))
        fields.update(overrides)
        return District(**fields)

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

    def test_non_finite_static(self):
        from newswarn.corpus import Gazetteer
        row = self.base_row(statics=dict(population=float("nan"), area_km2=1.0,
                                         ruggedness=0.0, cropland_share=0.0,
                                         pasture_share=0.0))
        with pytest.raises(DataError, match="static"):
            Gazetteer([row])


class TestMatchLocations:
    def test_district_implies_province_and_country(self, gazetteer):
        art = make_article("famine may return to Jamaame this year")
        assert match_locations(art, gazetteer) == {"so-jam", "so-lower-juba", "SO"}

    def test_no_names_falls_back_to_tags(self, gazetteer):
        art = make_article("nothing geographic here", countries=("ET",))
        assert match_locations(art, gazetteer) == {"ET"}

    def test_alias_match(self, gazetteer):
        art = make_article("drought reported around Majang highlands", countries=("ET",))
        assert match_locations(art, gazetteer) == {"et-maj", "et-gambela", "ET"}

    def test_whole_token_only(self, gazetteer):
        art = make_article("the gogol river floods")  # "gog" must not match inside "gogol"
        assert match_locations(art, gazetteer) == {"SO"}


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
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        f = compute_news_factor("drought", "so-jam", index, gazetteer)
        assert f.series.at(parse_month("2011-01")) == pytest.approx(0.4)
        assert f.level == "district"

    def test_exclude_targets_hand_count(self, tmp_path, gazetteer):
        # 4 co-mentions, 2 contain a target; 3 of 10 articles contain a target
        # overall -> (4 - 2) / (10 - 3) = 2/7.
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        f = compute_news_factor("drought", "so-jam", index, gazetteer,
                                exclude_targets=True, target_keywords=("famine",))
        assert f.series.at(parse_month("2011-01")) == pytest.approx(2.0 / 7.0)

    def test_never_comentioned_all_zero(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        f = compute_news_factor("market", "so-jam", index, gazetteer)
        assert np.all(f.series.values == 0.0)

    def test_unknown_feature_errors(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        with pytest.raises(DataError):
            compute_news_factor("zeppelin", "so-jam", index, gazetteer)
        with pytest.raises(DataError):
            compute_news_factor("drought", "nowhere", index, gazetteer)

    def test_zero_denominator_month_flagged(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-02"), gazetteer)
        f = compute_news_factor("drought", "so-jam", index, gazetteer)
        feb = parse_month("2011-02")
        assert f.series.at(feb) == 0.0
        assert feb in f.zero_denominator_months

    def test_denominator_monotonicity(self, tmp_path, gazetteer):
        # Adding an SO-tagged article with no mentions weakly lowers the factor.
        base = self.build(tmp_path, gazetteer)
        index = ingest_corpus(base, ("2011-01", "2011-01"), gazetteer)
        before = compute_news_factor("drought", "so-jam", index, gazetteer)
        arts = [article(90, "2011-01-20", "sports results from the coast")]
        with open(base, "a") as fh:
            import json as _json
            fh.write(_json.dumps(arts[0]) + "\n")
        index2 = ingest_corpus(base, ("2011-01", "2011-01"), gazetteer)
        after = compute_news_factor("drought", "so-jam", index2, gazetteer)
        jan = parse_month("2011-01")
        assert after.series.at(jan) <= before.series.at(jan)

    def test_factor_values_within_unit_interval(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        for feature in ("drought", "famine", "market"):
            for loc in ("so-jam", "so-lower-juba", "SO"):
                f = compute_news_factor(feature, loc, index, gazetteer)
                assert np.all((f.series.values >= 0) & (f.series.values <= 1))

    def test_denominator_scope_switch(self, tmp_path, gazetteer):
        arts = [article(0, "2011-01-05", "drought hits Jamaame"),
                article(1, "2011-01-06", "calm day in Kismayo")]
        arts += [article(2 + i, "2011-01-07", "harvest news", countries=("ET",))
                 for i in range(2)]
        path = write_corpus(tmp_path / "c.jsonl", arts)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        jan = parse_month("2011-01")
        country = compute_news_factor("drought", "so-jam", index, gazetteer)
        corpus_wide = compute_news_factor("drought", "so-jam", index, gazetteer,
                                          denominator="corpus")
        assert country.series.at(jan) == pytest.approx(1 / 2)
        assert corpus_wide.series.at(jan) == pytest.approx(1 / 4)

    def test_factors_csv_round_trip(self, tmp_path, gazetteer):
        path = self.build(tmp_path, gazetteer)
        index = ingest_corpus(path, ("2011-01", "2011-01"), gazetteer)
        factors = [compute_news_factor("drought", loc, index, gazetteer)
                   for loc in ("so-jam", "SO")]
        out = tmp_path / "factors.csv"
        write_factors_csv(out, factors)
        back = read_factors_csv(out)
        assert {(f.feature, f.location_id, f.level) for f in back} == \
               {("drought", "so-jam", "district"), ("drought", "SO", "country")}
        by_loc = {f.location_id: f for f in back}
        assert np.allclose(by_loc["so-jam"].series.values, factors[0].series.values)

    def test_factors_csv_round_trips_values_bit_for_bit(self, tmp_path):
        values = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1 / 3,
                           0.1 + 0.2, np.nextafter(1.0, 0.0), 1.0])
        factors = [
            NewsFactorSeries("drought", "so-jam", "district",
                             Series(parse_month("2010-11"), values)),
            NewsFactorSeries("flood", "SO", "country",
                             Series(parse_month("2011-03"), values[::-1])),
        ]
        out = tmp_path / "factors.csv"
        write_factors_csv(out, factors)
        back = read_factors_csv(out)
        assert [(f.feature, f.location_id, f.level, f.series.start) for f in back] == \
               [(f.feature, f.location_id, f.level, f.series.start) for f in factors]
        for got, want in zip(back, factors):
            assert got.series.values.tobytes() == want.series.values.tobytes()

    def test_factors_csv_non_contiguous_months_rejected(self, tmp_path):
        out = tmp_path / "factors.csv"
        out.write_text("feature,location_id,level,month,value\n"
                       "drought,so-jam,district,2011-01,0.5\n"
                       "drought,so-jam,district,2011-03,0.25\n")
        with pytest.raises(DataError, match="non-contiguous months"):
            read_factors_csv(out)
