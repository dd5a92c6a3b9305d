"""Synthetic corpus/panel generator with planted causal structure.

The real IPC and news archives cannot ship, so verification rests on
recovering planted structure: latent risk episodes raise a feature's news
mention rate immediately, raise the IPC phase ``lead`` months later, and
reach the traditional indicators only after a further reporting delay. A
correct pipeline therefore screens the planted features in, and its
news-aware models see crises coming while the baseline cannot.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .config import PipelineConfig, save_config
from .corpus import District, write_gazetteer
from .errors import ConfigError, DataError
from .months import (DEFAULT_PUBLICATION_SCHEDULE, format_month, parse_month,
                     publication_months)
from .outbreak import detect_outbreaks

_SYLLABLES = ("ba", "do", "ka", "lu", "mi", "na", "po", "ra", "su", "ta", "ve", "zo")

_FILLER_SEEDS = (
    "market", "road", "minister", "meeting", "report", "village", "river",
    "school", "project", "border", "season", "harvest", "trade", "council",
)

_TARGETS = ("famine", "hunger", "starvation")


@dataclass(frozen=True)
class PlantedFeature:
    ngram: str
    lead: int          # months by which news mentions precede the phase response
    effect: float      # phase-scale risk contribution of an active episode

    def __post_init__(self):
        if not 0 <= self.lead <= 8:
            raise DataError(f"lead {self.lead} outside the model's lag reach")
        if not np.isfinite(self.effect):
            raise DataError("effect size must be finite")


DEFAULT_PLANTED = (
    PlantedFeature("drought", 3, 2.0),
    PlantedFeature("conflict", 1, 0.9),
    PlantedFeature("pests", 2, 1.0),
    PlantedFeature("displacement", 3, 2.0),
    PlantedFeature("cholera", 2, 0.9),
)


@dataclass(frozen=True)
class SyntheticSpec:
    districts: int = 40
    months: int = 120
    start: str = "2010-01"
    countries: int = 4
    province_size: int = 5
    planted: tuple[PlantedFeature, ...] = DEFAULT_PLANTED
    extra_seeds: tuple[str, ...] = ("erosion", "deforestation")
    decoys: int = 40
    articles_per_country_month: int = 200
    mention_base: float = 0.01
    mention_boost: float = 0.88
    decoy_mention: float = 0.10
    episode_start_prob: float = 0.015
    episode_len: tuple[int, int] = (6, 9)
    refractory: int = 10
    indicator_delay: int = 3
    indicator_noise: float = 0.4
    phase_noise: float = 0.10
    projection_flip: float = 0.30
    undercover_province: str | None = None
    undercover_weight: float = 0.15
    embedding_dim: int = 8
    schedule: tuple = DEFAULT_PUBLICATION_SCHEDULE

    def __post_init__(self):
        for name in ("countries", "months", "province_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.districts < self.countries:
            raise ConfigError(f"districts must be at least countries ({self.countries}), "
                              f"got {self.districts}")
        if self.undercover_province is not None:
            layout = _layout(self)
            provinces = {province for _, _, province in layout}
            if self.undercover_province not in provinces:
                raise ConfigError(f"undercover_province {self.undercover_province!r} names no "
                                  f"generated province ({', '.join(sorted(provinces))})")
            if not 0 <= self.undercover_weight < np.inf:
                raise ConfigError("undercover_weight must be finite and non-negative, "
                                  f"got {self.undercover_weight}")
            reporting = {c for _, c, province in layout if province != self.undercover_province}
            if self.undercover_weight == 0 and reporting != {c for _, c, _ in layout}:
                raise ConfigError(f"undercover_weight 0 leaves a country whose districts all lie "
                                  f"in {self.undercover_province} no district to report from")


def _layout(spec: SyntheticSpec) -> list[tuple[int, str, str]]:
    """(country index, country code, province id) of each district, in order.

    Countries take ``districts // countries`` consecutive districts each, the
    last one the remainder; provinces take ``province_size`` consecutive ones.
    """
    per_country = spec.districts // spec.countries
    out = []
    for i in range(spec.districts):
        c_idx = min(i // per_country, spec.countries - 1)
        country = f"A{chr(ord('A') + c_idx)}"
        out.append((c_idx, country, f"{country}-P{i // spec.province_size:02d}"))
    return out


def _district_names(rng: np.random.Generator, count: int, reserved: set[str]) -> list[str]:
    names: list[str] = []
    seen = set(reserved)
    while len(names) < count:
        name = "".join(rng.choice(_SYLLABLES, size=3))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _filler_vocab(rng: np.random.Generator, reserved: set[str], count: int = 150) -> list[str]:
    vocab = []
    seen = set(reserved)
    for stem in _FILLER_SEEDS:
        if stem not in seen:
            vocab.append(stem)
            seen.add(stem)
    while len(vocab) < count:
        word = "".join(rng.choice(_SYLLABLES, size=2)) + str(rng.integers(10, 99))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _episode_process(rng, months, start_prob, len_range, refractory) -> np.ndarray:
    z = np.zeros(months)
    t = 0
    while t < months:
        if rng.random() < start_prob:
            length = int(rng.integers(len_range[0], len_range[1] + 1))
            z[t : t + length] = 1.0
            t += length + refractory
        else:
            t += 1
    return z


def _far_point(rng, dim, base_offset=60.0, jitter=3.0) -> np.ndarray:
    v = rng.normal(0.0, jitter, size=dim)
    v[0] += base_offset
    return v


def _articles(rng, spec: SyntheticSpec, districts: list[District], z: dict, fillers: list[str]):
    """Yield the corpus records in id order: month by month, country by country.

    A ``(spec, seed)`` pair fixes every byte of the bundle, so these are the
    draws, in order, of a loop that makes one scalar draw per choice
    (``article_records_loop`` in the tests):
    ``cdf.searchsorted(rng.random(), side="right")`` is ``rng.choice(n, p=w)``;
    k scalar ``rng.integers(0, n)`` are the k draws of
    ``rng.choice(fillers, size=k)``; and one ``rng.random(m)`` returns the m
    mention and target-gate uniforms of m scalar calls.
    """
    n_planted = len(spec.planted)
    words = ([p.ngram for p in spec.planted] + list(spec.extra_seeds)
             + [f"decoy{i:02d}" for i in range(spec.decoys)])
    n_fill = len(fillers)
    by_country: dict[str, list[District]] = {}
    for d in districts:
        by_country.setdefault(d.country, []).append(d)
    streams = []
    for country, homes in by_country.items():
        weights = np.array([spec.undercover_weight
                            if spec.undercover_province == d.province_id else 1.0
                            for d in homes])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        # rates[h, j]: each word's mention probability in home h's month j
        rates = np.empty((len(homes), spec.months, len(words)))
        rates[:, :, n_planted:] = ([spec.mention_base] * len(spec.extra_seeds)
                                   + [spec.decoy_mention] * spec.decoys)
        for h, d in enumerate(homes):
            for k, p in enumerate(spec.planted):
                rates[h, :, k] = spec.mention_base + spec.mention_boost * z[(p.ngram, d.district_id)]
        streams.append((country, homes, cdf, rates))

    start = parse_month(spec.start)
    article_id = 0
    for j in range(spec.months):
        month = format_month(start + j)
        for country, homes, cdf, rates in streams:
            for _ in range(int(rng.poisson(spec.articles_per_country_month))):
                h = int(cdf.searchsorted(rng.random(), side="right"))
                tokens = [fillers[rng.integers(0, n_fill)] for _ in range(rng.integers(2, 5))]
                tokens.append(homes[h].name)
                tokens += [fillers[rng.integers(0, n_fill)] for _ in range(rng.integers(1, 3))]
                u = rng.random(len(words) + 1)
                hit = (u[:-1] < rates[h, j]).nonzero()[0].tolist()
                tokens += [words[i] for i in hit]
                # planted words lead `words`: one is hit iff the first hit is one
                if u[-1] < (0.25 if hit and hit[0] < n_planted else 0.03):
                    tokens.append(_TARGETS[rng.integers(0, len(_TARGETS))])
                if rng.integers(0, 2):
                    tokens.append(fillers[rng.integers(0, n_fill)])
                day = int(rng.integers(1, 28))
                yield {
                    "id": f"a{article_id:07d}",
                    "date": f"{month}-{day:02d}",
                    "source": f"wire-{int(rng.integers(0, 5))}",
                    "countries": [country],
                    "text": " ".join(tokens),
                }
                article_id += 1


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir) -> dict:
    """Write the full synthetic input bundle; returns paths plus ground truth."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = parse_month(spec.start)
    months = list(range(start, start + spec.months))
    pub_months = publication_months(months[0], months[-1], spec.schedule)

    planted_names = [p.ngram for p in spec.planted]
    decoys = [f"decoy{i:02d}" for i in range(spec.decoys)]
    effect_phrases = (("famine", "looms"), ("hunger", "worsens"), ("starvation", "feared"))
    reserved = set(planted_names) | set(spec.extra_seeds) | set(decoys) | set(_TARGETS)
    reserved |= {t for ph in effect_phrases for t in ph}

    # Geography: countries -> provinces of `province_size` -> districts.
    names = _district_names(rng, spec.districts, reserved)
    reserved |= set(names)
    fillers = _filler_vocab(rng, reserved)
    districts = []
    for i, (c_idx, country, province) in enumerate(_layout(spec)):
        districts.append(
            District(
                district_id=f"d{i:03d}",
                name=names[i],
                aliases=(f"{names[i]}shire",) if i % 7 == 0 else (),
                province_id=province,
                country=country,
                lat=0.5 * (i // 8),
                lon=0.5 * (i % 8) + 10.0 * c_idx,
                statics={
                    "population": float(np.round(rng.uniform(5e4, 5e5))),
                    "area_km2": float(np.round(rng.uniform(500, 5000))),
                    "ruggedness": float(np.round(rng.uniform(0, 1), 4)),
                    "cropland_share": float(np.round(rng.uniform(0.1, 0.7), 4)),
                    "pasture_share": float(np.round(rng.uniform(0.05, 0.5), 4)),
                },
            )
        )
    write_gazetteer(out / "gazetteer.csv", districts)

    # Latent risk episodes and the resulting monthly phase per district.
    z = {
        (p.ngram, d.district_id): _episode_process(
            rng, spec.months, spec.episode_start_prob, spec.episode_len, spec.refractory
        )
        for p in spec.planted
        for d in districts
    }
    base_phase = {d.district_id: 1 for d in districts}
    true_phase: dict[str, np.ndarray] = {}
    for d in districts:
        risk = np.zeros(spec.months)
        for p in spec.planted:
            zi = z[(p.ngram, d.district_id)]
            shifted = np.zeros(spec.months)
            if p.lead:
                shifted[p.lead :] = zi[: spec.months - p.lead]
            else:
                shifted = zi
            risk += p.effect * shifted
        latent = base_phase[d.district_id] + risk + rng.normal(0, spec.phase_noise, spec.months)
        true_phase[d.district_id] = np.clip(np.round(latent), 1, 5)

    # Traditional indicators: delayed, noisy views of the same latents.
    delay = spec.indicator_delay
    noise = spec.indicator_noise

    def delayed(name: str, d: str) -> np.ndarray:
        zi = z.get((name, d))
        if zi is None:
            return np.zeros(spec.months)
        shifted = np.zeros(spec.months)
        shifted[delay:] = zi[: spec.months - delay]
        return shifted

    indicator_rows: dict[str, dict[str, np.ndarray]] = {}
    for d in districts:
        did = d.district_id
        conflict = delayed("conflict", did)
        drought = delayed("drought", did)
        pests = delayed("pests", did)
        e = lambda: rng.normal(0, noise, spec.months)
        indicator_rows[did] = {
            "conflict_events": np.abs(6.0 * conflict + e()),
            "conflict_fatalities": np.abs(3.0 * conflict + e()),
            "price_index": 4.6 + 0.05 * np.cumsum(rng.normal(0, 0.02, spec.months)),
            "price_yoy": rng.normal(0, noise, spec.months),
            "evapotranspiration": 1.0 + 1.5 * drought + e(),
            "rain_mean": 1.0 - 1.2 * drought + e(),
            "rain_deviation": -1.5 * drought + e(),
            "ndvi_mean": 0.8 - 1.0 * pests + 0.3 * e(),
            "ndvi_deviation": -1.5 * pests + e(),
        }

    # Panel CSV: phases only at publication months, indicators monthly.
    pub_set = set(pub_months)
    with open(out / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        header = ["district_id", "month", "ipc_phase"] + [
            "conflict_events", "conflict_fatalities", "price_index", "price_yoy",
            "evapotranspiration", "rain_mean", "rain_deviation", "ndvi_mean",
            "ndvi_deviation",
        ]
        fh.write(",".join(header) + "\n")
        for d in districts:
            did = d.district_id
            for j, t in enumerate(months):
                phase = str(int(true_phase[did][j])) if t in pub_set else ""
                cells = [did, format_month(t), phase] + [
                    repr(float(indicator_rows[did][k][j])) for k in header[3:]
                ]
                fh.write(",".join(cells) + "\n")

    # Expert projections: next-period truth with occasional one-step errors.
    with open(out / "projections.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("district_id,month,projected_phase\n")
        for d in districts:
            did = d.district_id
            for t in pub_months:
                truth = int(true_phase[did][t - start])
                proj = truth
                if rng.random() < spec.projection_flip:
                    proj = int(np.clip(truth + rng.choice([-1, 1]), 1, 5))
                fh.write(f"{did},{format_month(t)},{proj}\n")

    # Article stream: mention rates follow the latent processes immediately.
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for record in _articles(rng, spec, districts, z, fillers):
            fh.write(encode(record) + "\n")

    # Frame files: well-formed causal frames for every seed, plus chaff that
    # must fail each filter.
    def frame_line(cause_tokens, effect_tokens, label, provenance, doc, link=("due", "to")):
        constituents = [
            {"role": "cause", "tokens": list(cause_tokens)},
            {"role": "connective", "tokens": list(link)},
            {"role": "effect", "tokens": list(effect_tokens)},
        ]
        return json.dumps(
            {"doc_id": doc, "sentence_index": 0, "frame_label": label,
             "constituents": constituents, "provenance": provenance},
            sort_keys=True,
        )

    with open(out / "frames_news.jsonl", "w", encoding="utf-8") as fh:
        for i, p in enumerate(spec.planted):
            for k in range(3):
                effect = effect_phrases[(i + k) % len(effect_phrases)]
                fh.write(frame_line([p.ngram], effect, "Causation", "news",
                                    f"doc{i}-{k}") + "\n")
        # chaff: no effect role, no target in effect, no causal link
        fh.write(json.dumps({
            "doc_id": "chaff0", "sentence_index": 0, "frame_label": "Causation",
            "constituents": [{"role": "cause", "tokens": ["storm"]}],
            "provenance": "news"}, sort_keys=True) + "\n")
        fh.write(frame_line(["storm"], ["roads", "flooded"], "Causation", "news",
                            "chaff1") + "\n")
        fh.write(json.dumps({
            "doc_id": "chaff2", "sentence_index": 0, "frame_label": "Description",
            "constituents": [
                {"role": "cause", "tokens": ["storm"]},
                {"role": "effect", "tokens": ["famine", "looms"]}],
            "provenance": "news"}, sort_keys=True) + "\n")
    with open(out / "frames_study.jsonl", "w", encoding="utf-8") as fh:
        for i, extra in enumerate(spec.extra_seeds):
            fh.write(frame_line([extra], effect_phrases[i % len(effect_phrases)],
                                "Causation", "study", f"study{i}") + "\n")

    # Embeddings: seeds far apart, decoys within the expansion radius of a
    # planted seed, everything else in a distant cloud.
    dim = spec.embedding_dim
    vectors: dict[str, np.ndarray] = {}
    seed_words = planted_names + list(spec.extra_seeds)
    for i, w in enumerate(seed_words):
        while True:
            v = rng.normal(0, 1, dim)
            v = 20.0 * v / np.linalg.norm(v)
            if all(np.linalg.norm(v - vectors[u]) > 12.0 for u in seed_words[:i]):
                vectors[w] = v
                break
    for i, g in enumerate(decoys):
        anchor = vectors[planted_names[i % len(planted_names)]]
        direction = rng.normal(0, 1, dim)
        direction /= np.linalg.norm(direction)
        vectors[g] = anchor + direction * rng.uniform(2.5, 5.5)
    far_words = (list(fillers) + [d.name for d in districts]
                 + [f"{d.name}shire" for d in districts]
                 + list(_TARGETS) + [t for ph in effect_phrases for t in ph]
                 + ["storm", "roads", "flooded"])
    for w in far_words:
        if w not in vectors:
            vectors[w] = _far_point(rng, dim)
    with open(out / "embeddings.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for w in sorted(vectors):
            fh.write(w + " " + " ".join(repr(float(x)) for x in vectors[w]) + "\n")

    # Ground truth: planted structure and the outbreaks implied by the
    # published phase series.
    outbreaks = []
    for d in districts:
        did = d.district_id
        phases = [true_phase[did][t - start] for t in pub_months]
        for event in detect_outbreaks(phases, pub_months, district=did):
            outbreaks.append({"district": did, "start_month": format_month(event.start),
                              "severity": event.severity})
    truth = {
        "seed": seed,
        "planted": [asdict(p) for p in spec.planted],
        "extra_seeds": list(spec.extra_seeds),
        "decoys": decoys,
        "base_phase": base_phase,
        "outbreaks": outbreaks,
    }
    write_json(out / "truth.json", truth)

    cfg = PipelineConfig(
        corpus=str(out / "corpus.jsonl"),
        frames_news=str(out / "frames_news.jsonl"),
        frames_study=str(out / "frames_study.jsonl"),
        embeddings=str(out / "embeddings.txt"),
        gazetteer=str(out / "gazetteer.csv"),
        panel=str(out / "panel.csv"),
        projections=str(out / "projections.csv"),
        output=str(out / "run"),
        window_start=format_month(months[0]),
        window_end=format_month(months[-1]),
        ngram_floor=600,
        clusters=12,
        match_window=0,
        spatial=False,
        lasso_compare=False,
    )
    save_config(out / "config.ini", cfg)
    return {
        "dir": str(out),
        "config": str(out / "config.ini"),
        "truth": truth,
        "paths": {name: str(out / name) for name in (
            "corpus.jsonl", "frames_news.jsonl", "frames_study.jsonl",
            "embeddings.txt", "gazetteer.csv", "panel.csv", "projections.csv",
            "truth.json", "config.ini",
        )},
    }
