import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from newswarn.cli import main as cli_main
from newswarn.corpus import District, load_gazetteer
from newswarn.errors import ConfigError, DataError
from newswarn.frames import load_frames
from newswarn.months import parse_month
from newswarn.outbreak import detect_outbreaks
from newswarn.semantics import load_embeddings, wmd
from newswarn import synth
from newswarn.synth import (_CHUNK, PlantedFeature, SyntheticSpec, _articles, _layout,
                            _RawDraws, generate_synthetic)

from conftest import article_records_loop

SMALL = dict(districts=10, months=60, decoys=6, articles_per_country_month=60)
# a non-uniform choice of home district within country AA
UNDERCOVER = dict(SMALL, months=24, countries=2, province_size=3, undercover_province="AA-P01",
                  undercover_weight=0.05)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    return generate_synthetic(SyntheticSpec(**SMALL), seed=3, out_dir=out)


def test_same_seed_identical_bytes(tmp_path, bundle):
    again = generate_synthetic(SyntheticSpec(**SMALL), seed=3, out_dir=tmp_path / "b")
    for name in bundle["paths"]:  # config.ini's paths are relative to the bundle
        assert digest(bundle["paths"][name]) == digest(again["paths"][name]), name


def test_seed_changes_articles_not_structure(tmp_path, bundle):
    other = generate_synthetic(SyntheticSpec(**SMALL), seed=4, out_dir=tmp_path / "c")
    assert digest(bundle["paths"]["corpus.jsonl"]) != digest(other["paths"]["corpus.jsonl"])
    assert {p["ngram"] for p in other["truth"]["planted"]} == \
           {p["ngram"] for p in bundle["truth"]["planted"]}


def test_gazetteer_is_loadable_and_sized(bundle):
    gaz = load_gazetteer(bundle["paths"]["gazetteer.csv"])
    assert len(gaz) == SMALL["districts"]


def test_corpus_lines_parse_and_mention_planted(bundle):
    planted = {p["ngram"] for p in bundle["truth"]["planted"]}
    seen = set()
    with open(bundle["paths"]["corpus.jsonl"]) as fh:
        for line in fh:
            rec = json.loads(line)
            assert set(rec) == {"id", "date", "source", "countries", "text"}
            assert line == json.dumps(rec, sort_keys=True) + "\n"
            seen |= planted & set(rec["text"].split())
    assert seen == planted


def test_frames_pass_extraction(bundle):
    frames = load_frames(bundle["paths"]["frames_news.jsonl"])
    assert any(c.role == "cause" for f in frames for c in f.constituents)
    study_path = bundle["paths"]["frames_study.jsonl"]
    assert load_frames(study_path)
    with open(study_path) as fh:
        assert {json.loads(line)["provenance"] for line in fh} == {"study"}


def test_embeddings_place_decoys_within_radius(bundle):
    table = load_embeddings(bundle["paths"]["embeddings.txt"])
    planted = [p["ngram"] for p in bundle["truth"]["planted"]]
    for decoy in bundle["truth"]["decoys"]:
        nearest = min(wmd(decoy, s, table) for s in planted)
        assert nearest < 6.0
    # filler words stay out of reach of every seed
    far = [w for w in table.vectors if w.startswith(("ba", "do", "ka"))][:5]
    for w in far:
        assert min(wmd(w, s, table) for s in planted) > 6.0


def test_truth_outbreaks_match_published_phases(bundle):
    import csv
    from collections import defaultdict

    phases = defaultdict(dict)
    with open(bundle["paths"]["panel.csv"]) as fh:
        for row in csv.DictReader(fh):
            if row["ipc_phase"]:
                phases[row["district_id"]][parse_month(row["month"])] = float(row["ipc_phase"])
    recomputed = []
    for d, obs in phases.items():
        periods = sorted(obs)
        values = [obs[t] for t in periods]
        recomputed.extend((d, periods[e.start]) for e in detect_outbreaks(values, d))
    expected = {(o["district"], parse_month(o["start_month"]))
                for o in bundle["truth"]["outbreaks"]}
    assert set(recomputed) == expected


def test_projections_on_publication_grid(bundle):
    import csv

    months = set()
    with open(bundle["paths"]["projections.csv"]) as fh:
        for row in csv.DictReader(fh):
            months.add(parse_month(row["month"]))
            assert 1 <= float(row["projected_phase"]) <= 5
    pub = set()
    with open(bundle["paths"]["panel.csv"]) as fh:
        for row in csv.DictReader(fh):
            if row["ipc_phase"]:
                pub.add(parse_month(row["month"]))
    assert months == pub


def test_planted_feature_validation():
    with pytest.raises(DataError):
        PlantedFeature("storm", lead=9, effect=1.0)
    with pytest.raises(DataError):
        PlantedFeature("storm", lead=2, effect=float("inf"))


def _stream_inputs(spec, rng):
    """Districts laid out as the generator lays them out, random episodes, fillers."""
    districts = [District(f"d{i:03d}", f"town{i:03d}", (), province, country, 0.0, 0.0)
                 for i, (_, country, province) in enumerate(_layout(spec))]
    z = {(p.ngram, d.district_id): (rng.random(spec.months) < 0.3).astype(float)
         for p in spec.planted for d in districts}
    return districts, z, [f"word{i:03d}" for i in range(150)]


@pytest.mark.parametrize("fields", [
    SMALL,
    dict(SMALL, months=24, countries=3),  # 10 districts: the last country takes 4
    UNDERCOVER,
    dict(SMALL, months=24, extra_seeds=(), decoys=0),
    # chunk edges inside a country-month
    dict(SMALL, months=4, countries=1, articles_per_country_month=3 * _CHUNK + 20),
    dict(SMALL, months=24, articles_per_country_month=1),  # a third of them draw none
    dict(SMALL, months=24, articles_per_country_month=0),
], ids=["small", "three-countries", "undercover", "planted-only", "three-chunks", "sparse",
        "silent"])
def test_article_stream_keeps_the_loops_draws(fields, monkeypatch):
    spec = SyntheticSpec(**fields)
    districts, z, fillers = _stream_inputs(spec, np.random.default_rng(11))
    # Each chunk's (buffered half-word at its start, starts where the last chunk
    # closed): with no poisson draw between them, the two share a country-month.
    chunks, closed = [], [None]

    class Recorded(_RawDraws):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            chunks.append((self.has, self._start == closed[0]))

        def close(self):
            super().close()
            closed[0] = self._bg.state

    monkeypatch.setattr(synth, "_RawDraws", Recorded)
    fast, slow = np.random.default_rng(5), np.random.default_rng(5)
    got = list(_articles(fast, spec, districts, z, fillers))
    want = list(article_records_loop(slow, spec, districts, z, fillers))
    assert len(got) == len(want)
    assert {has for has, _ in chunks} == ({0, 1} if got else set())
    if spec.articles_per_country_month > 2 * _CHUNK:
        assert {has for has, inside in chunks if inside} == {0, 1}
    for a, b in zip(got, want):
        assert a == b
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("fields", [SMALL, UNDERCOVER], ids=["small", "undercover"])
def test_bundle_bytes_equal_the_loop_oracles(fields, tmp_path, monkeypatch):
    spec = SyntheticSpec(**fields)
    fast = generate_synthetic(spec, seed=3, out_dir=tmp_path / "fast")
    monkeypatch.setattr(synth, "_articles", article_records_loop)
    slow = generate_synthetic(spec, seed=3, out_dir=tmp_path / "slow")
    for name in fast["paths"]:
        assert digest(fast["paths"][name]) == digest(slow["paths"][name]), name


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
@pytest.mark.parametrize("n", [3, 27, 150, 2**31 + 1])  # 2**31 + 1 rejects about half
def test_raw_draws_decode_scalar_integers(n, buffered):
    fast, slow = np.random.default_rng(9), np.random.default_rng(9)
    if buffered:  # leave the high half of a raw in PCG64's buffer
        fast.integers(0, 7), slow.integers(0, 7)
    assert fast.bit_generator.state["has_uint32"] == buffered
    raw = _RawDraws(fast.bit_generator, 8)  # runs short: more raws are drawn
    got = [raw.below(n) for _ in range(300)]
    raw.close()
    assert got == [int(slow.integers(0, n)) for _ in range(300)]
    assert fast.bit_generator.state == slow.bit_generator.state


def test_raw_draws_interleave_doubles_with_integers():
    fast, slow = np.random.default_rng(4), np.random.default_rng(4)
    raw = _RawDraws(fast.bit_generator, 3)
    got, want = [], []
    for i in range(200):
        at = raw.take(i % 4)
        got += raw.dbl[at:at + i % 4].tolist()
        want += slow.random(i % 4).tolist()
        got.append(raw.below(150))
        want.append(int(slow.integers(0, 150)))
    raw.close()
    assert got == want
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("fields, field", [
    (dict(districts=0, countries=1), "districts"),
    (dict(districts=2, countries=4), "districts"),
    (dict(countries=0), "countries"),
    (dict(months=0), "months"),
    (dict(province_size=0), "province_size"),
    (dict(districts=10, countries=2, undercover_province="AB-P00"), "undercover_province"),
    (dict(districts=10, countries=2, undercover_province="AA-P00", undercover_weight=-0.5),
     "undercover_weight"),
    (dict(districts=10, countries=2, undercover_province="AA-P00", undercover_weight=np.nan),
     "undercover_weight"),
    # AA-P00 holds all of AA's districts, so no AA article could be drawn
    (dict(districts=10, countries=2, undercover_province="AA-P00", undercover_weight=0.0),
     "undercover_weight"),
    (dict(embedding_dim=0), "embedding_dim"),  # every seed vector is 0/0
    (dict(embedding_dim=1), "embedding_dim"),  # only two seeds fit on a line
])
def test_bad_spec_raises_config_error_naming_the_field(fields, field):
    with pytest.raises(ConfigError, match=f"^{field} "):
        SyntheticSpec(**fields)


def test_seeds_that_cannot_lie_apart_raise_config_error(tmp_path):
    # At most 10 seeds lie more than 12 apart on a circle of radius 20.
    spec = SyntheticSpec(districts=2, countries=1, months=12, decoys=2,
                         articles_per_country_month=5, embedding_dim=2,
                         extra_seeds=tuple(f"extra{i}" for i in range(6)))
    with pytest.raises(ConfigError, match="^embedding_dim 2 has no room for 11 seed vectors"):
        generate_synthetic(spec, seed=1, out_dir=tmp_path)


def test_synth_cli_rejects_a_bad_spec(tmp_path):
    result = CliRunner().invoke(cli_main, ["synth", "--out", str(tmp_path / "bad"),
                                           "--districts", "0"])
    assert result.exit_code == 1
    assert result.output.startswith("error: districts ")
    assert not (tmp_path / "bad").exists()
