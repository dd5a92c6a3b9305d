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
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .config import PipelineConfig, save_config
from .corpus import GAZETTEER_COLUMNS, District
from .errors import ConfigError, DataError
from .months import format_month, parse_month, publication_months
from .outbreak import detect_outbreaks
from .panel import TRADITIONAL_INDICATORS

_SYLLABLES = ("ba", "do", "ka", "lu", "mi", "na", "po", "ra", "su", "ta", "ve", "zo")

_FILLER_SEEDS = (
    "market", "road", "minister", "meeting", "report", "village", "river",
    "school", "project", "border", "season", "harvest", "trade", "council",
)

_FILLER_COUNT = 150
_TARGETS = ("famine", "hunger", "starvation")
_SEED_DRAWS = 10_000  # draws per seed vector before the embedding space counts as full

START = "2010-01"        # first month of every bundle
DECOY_MENTION = 0.10     # a decoy word's mention probability in each article
EPISODE_LEN = (6, 9)     # shortest and longest risk episode, in months
REFRACTORY = 10          # months after an episode before the next can start
INDICATOR_DELAY = 3      # months by which the traditional indicators trail the latents
INDICATOR_NOISE = 0.4    # sd of the indicators' noise


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
    countries: int = 4
    province_size: int = 5
    planted: tuple[PlantedFeature, ...] = DEFAULT_PLANTED
    extra_seeds: tuple[str, ...] = ("erosion", "deforestation")
    decoys: int = 40
    articles_per_country_month: int = 200
    mention_base: float = 0.01
    mention_boost: float = 0.88
    episode_start_prob: float = 0.015
    phase_noise: float = 0.10
    projection_flip: float = 0.30
    undercover_province: str | None = None
    undercover_weight: float = 0.15
    embedding_dim: int = 8

    def __post_init__(self):
        for name in ("countries", "months", "province_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.embedding_dim < 2:
            raise ConfigError(f"embedding_dim must be at least 2, got {self.embedding_dim}")
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


def _filler_vocab(rng: np.random.Generator, reserved: set[str]) -> list[str]:
    vocab = []
    seen = set(reserved)
    for stem in _FILLER_SEEDS:
        if stem not in seen:
            vocab.append(stem)
            seen.add(stem)
    while len(vocab) < _FILLER_COUNT:
        word = "".join(rng.choice(_SYLLABLES, size=2)) + str(rng.integers(10, 99))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _episode_process(rng, months, start_prob) -> np.ndarray:
    z = np.zeros(months)
    t = 0
    while t < months:
        if rng.random() < start_prob:
            length = int(rng.integers(EPISODE_LEN[0], EPISODE_LEN[1] + 1))
            z[t : t + length] = 1.0
            t += length + REFRACTORY
        else:
            t += 1
    return z


def _far_point(rng, dim) -> np.ndarray:
    """A point of the distant cloud: sd 3 about 60 along the first axis, 0 along the rest."""
    v = rng.normal(0.0, 3.0, size=dim)
    v[0] += 60.0
    return v


class _RawDraws:
    """Scalar ``Generator`` draws decoded from a block of PCG64's raw 64-bit outputs.

    numpy's ``random()`` is ``(raw >> 11) * 2**-53``. Its ``integers(0, n)``
    is Lemire's bounded method (ACM TOMACS 29(1), 2019) on a 32-bit word,
    which PCG64 serves from its ``has_uint32``/``uinteger`` buffer if a half
    is left there, and otherwise from the next raw, low half first, keeping
    the high half. ``close`` sets the generator where those scalar calls
    would have left it. A block that runs short draws more raws.
    """

    __slots__ = ("_bg", "_start", "has", "buf", "pos", "raws", "ints", "dbl")

    def __init__(self, bit_generator, size: int):
        self._bg = bit_generator
        self._start = bit_generator.state
        if self._start["bit_generator"] != "PCG64":
            raise TypeError(f"decoded draws need PCG64, not {self._start['bit_generator']}")
        self.has, self.buf = self._start["has_uint32"], self._start["uinteger"]
        self.pos = 0
        self.raws = bit_generator.random_raw(size)
        self._decode()

    def _decode(self) -> None:
        self.ints = memoryview(self.raws)  # each raw as a Python int
        self.dbl = memoryview((self.raws >> np.uint64(11)) * 2.0 ** -53)  # each raw as random()

    def _more(self) -> None:
        self.raws = np.concatenate((self.raws, self._bg.random_raw(len(self.raws) + 1)))
        self._decode()

    def take(self, k: int) -> int:
        """Consume k ``random()`` doubles; return the first one's position in ``dbl``.

        Read ``dbl`` after the call: a block that runs short is replaced.
        """
        at = self.pos
        self.pos += k
        while self.pos > len(self.raws):
            self._more()
        return at

    def below(self, n: int) -> int:
        """``integers(0, n)`` for 2 <= n <= 2**32."""
        while True:
            if self.has:
                self.has = 0
                m = self.buf * n
            else:
                if self.pos == len(self.raws):
                    self._more()
                raw = self.ints[self.pos]
                self.pos += 1
                self.has, self.buf = 1, raw >> 32
                m = (raw & 0xFFFFFFFF) * n
            if (m & 0xFFFFFFFF) >= (1 << 32) % n:  # otherwise rejected: draw again
                return m >> 32

    def close(self) -> None:
        self._bg.state = self._start
        self._bg.advance(self.pos)
        state = self._bg.state
        state["has_uint32"], state["uinteger"] = self.has, self.buf
        self._bg.state = state


_CHUNK = 64  # articles decoded from one block of raw draws


def _articles(rng, spec: SyntheticSpec, districts: list[District], z: dict, fillers: list[str]):
    """Yield the corpus records in id order: month by month, country by country.

    A ``(spec, seed)`` pair fixes every byte of the bundle, so these are the
    values, in order, of a loop that makes one scalar draw per choice
    (``article_records_loop`` in the tests, the stream's spec): the home
    district is ``rng.choice(n, p=w)``, each count and filler one
    ``rng.integers``, each mention and the target gate one ``rng.random()``.
    Only each country-month's article count, ``rng.poisson``, is drawn by
    ``rng`` itself. The rest is decoded from ``rng``'s raw draws
    (``_RawDraws``), ``_CHUNK`` articles at a time, so ``rng`` must be the
    PCG64 generator that ``default_rng`` gives. A chunk's mention uniforms
    are compared with ``rates`` as one array.
    """
    n_planted = len(spec.planted)
    words = ([p.ngram for p in spec.planted] + list(spec.extra_seeds)
             + [f"decoy{i:02d}" for i in range(spec.decoys)])
    n_words, n_fill = len(words), len(fillers)
    block = n_words + 10  # raws an article takes at most, rejections aside
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
        rates = np.empty((len(homes), spec.months, n_words))
        rates[:, :, n_planted:] = ([spec.mention_base] * len(spec.extra_seeds)
                                   + [DECOY_MENTION] * spec.decoys)
        for h, d in enumerate(homes):
            for k, p in enumerate(spec.planted):
                rates[h, :, k] = spec.mention_base + spec.mention_boost * z[(p.ngram, d.district_id)]
        # bisect_right on the cdf's floats is its searchsorted(side="right")
        streams.append((country, [d.name for d in homes], cdf.tolist(), rates))

    start = parse_month(START)
    article_id = 0
    for j in range(spec.months):
        month = format_month(start + j)
        for country, names, cdf, rates in streams:
            planted_rates = rates[:, j, :n_planted].tolist()
            count = int(rng.poisson(spec.articles_per_country_month))
            for first in range(0, count, _CHUNK):
                size = min(_CHUNK, count - first)
                raw = _RawDraws(rng.bit_generator, size * block)
                below = raw.below
                homes, starts, drawn = [], [], []
                for _ in range(size):
                    at = raw.take(1)
                    h = bisect_right(cdf, raw.dbl[at])
                    head = [fillers[below(n_fill)] for _ in range(2 + below(3))]
                    head.append(names[h])
                    head += [fillers[below(n_fill)] for _ in range(1 + below(2))]
                    at = raw.take(n_words + 1)
                    dbl = raw.dbl
                    # planted words lead `words`; the gate's rate is 0.25 if one is hit
                    hit = any(map(float.__lt__, dbl[at:at + n_planted], planted_rates[h]))
                    gate = 0.25 if hit else 0.03
                    rest = [_TARGETS[below(len(_TARGETS))]] if dbl[at + n_words] < gate else []
                    if below(2):
                        rest.append(fillers[below(n_fill)])
                    day = 1 + below(27)
                    homes.append(h)
                    starts.append(at)
                    drawn.append((head, rest, day, below(5)))
                raw.close()
                hits = np.asarray(raw.dbl)[np.add.outer(starts, np.arange(n_words))] < rates[homes, j]
                mentions = [[] for _ in range(size)]
                for a, i in zip(*(ix.tolist() for ix in hits.nonzero())):
                    mentions[a].append(words[i])
                for (head, rest, day, source), said in zip(drawn, mentions):
                    yield {
                        "id": f"a{article_id:07d}",
                        "date": f"{month}-{day:02d}",
                        "source": f"wire-{source}",
                        "countries": [country],
                        "text": " ".join(head + said + rest),
                    }
                    article_id += 1


def generate_synthetic(spec: SyntheticSpec, seed: int, out_dir) -> dict:
    """Write the full synthetic input bundle; returns paths plus ground truth."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = parse_month(START)
    months = list(range(start, start + spec.months))
    pub_months = publication_months(months[0], months[-1])

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
            )
        )
    # Five time-invariant district columns, drawn row by row as the file is
    # written. load_gazetteer ignores them: district intercepts absorb them.
    write_csv(out / "gazetteer.csv", [*GAZETTEER_COLUMNS, "population", "area_km2",
                                      "ruggedness", "cropland_share", "pasture_share"], (
        [d.district_id, d.name, "|".join(d.aliases), d.province_id, d.country, d.lat, d.lon,
         np.round(rng.uniform(5e4, 5e5)), np.round(rng.uniform(500, 5000)),
         np.round(rng.uniform(0, 1), 4), np.round(rng.uniform(0.1, 0.7), 4),
         np.round(rng.uniform(0.05, 0.5), 4)] for d in districts))

    # Latent risk episodes and the resulting monthly phase per district.
    z = {
        (p.ngram, d.district_id): _episode_process(rng, spec.months, spec.episode_start_prob)
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
    def delayed(name: str, d: str) -> np.ndarray:
        zi = z.get((name, d))
        if zi is None:
            return np.zeros(spec.months)
        shifted = np.zeros(spec.months)
        shifted[INDICATOR_DELAY:] = zi[: spec.months - INDICATOR_DELAY]
        return shifted

    indicator_rows: dict[str, dict[str, np.ndarray]] = {}
    for d in districts:
        did = d.district_id
        conflict = delayed("conflict", did)
        drought = delayed("drought", did)
        pests = delayed("pests", did)
        e = lambda: rng.normal(0, INDICATOR_NOISE, spec.months)
        indicator_rows[did] = {
            "conflict_events": np.abs(6.0 * conflict + e()),
            "conflict_fatalities": np.abs(3.0 * conflict + e()),
            "price_index": 4.6 + 0.05 * np.cumsum(rng.normal(0, 0.02, spec.months)),
            "price_yoy": rng.normal(0, INDICATOR_NOISE, spec.months),
            "evapotranspiration": 1.0 + 1.5 * drought + e(),
            "rain_mean": 1.0 - 1.2 * drought + e(),
            "rain_deviation": -1.5 * drought + e(),
            "ndvi_mean": 0.8 - 1.0 * pests + 0.3 * e(),
            "ndvi_deviation": -1.5 * pests + e(),
        }

    # Panel CSV: phases only at publication months, indicators monthly.
    pub_set = set(pub_months)
    with open(out / "panel.csv", "w", encoding="utf-8", newline="") as fh:
        header = ("district_id", "month", "ipc_phase") + TRADITIONAL_INDICATORS
        fh.write(",".join(header) + "\n")
        for d in districts:
            did = d.district_id
            for j, t in enumerate(months):
                phase = str(int(true_phase[did][j])) if t in pub_set else ""
                cells = [did, format_month(t), phase] + [
                    repr(float(indicator_rows[did][k][j])) for k in TRADITIONAL_INDICATORS
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
    # One format string writes what json.dumps(record, sort_keys=True) would.
    esc = json.encoder.encode_basestring_ascii
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for r in _articles(rng, spec, districts, z, fillers):
            fh.write('{"countries": [%s], "date": %s, "id": %s, "source": %s, "text": %s}\n' % (
                ", ".join(map(esc, r["countries"])), esc(r["date"]), esc(r["id"]),
                esc(r["source"]), esc(r["text"])))

    # Frame files: well-formed causal frames for every seed, plus chaff that
    # must fail each filter.
    def frame_line(cause_tokens, effect_tokens, label, provenance, doc):
        constituents = [
            {"role": "cause", "tokens": list(cause_tokens)},
            {"role": "connective", "tokens": ["due", "to"]},
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
        for _ in range(_SEED_DRAWS):
            v = rng.normal(0, 1, dim)
            v = 20.0 * v / np.linalg.norm(v)
            if all(np.linalg.norm(v - vectors[u]) > 12.0 for u in seed_words[:i]):
                vectors[w] = v
                break
        else:
            raise ConfigError(f"embedding_dim {dim} has no room for {len(seed_words)} seed "
                              f"vectors 12 apart on the radius-20 sphere (seed {i + 1} found "
                              f"none in {_SEED_DRAWS} draws)")
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
        for event in detect_outbreaks(phases, district=did):
            outbreaks.append({"district": did,
                              "start_month": format_month(pub_months[event.start]),
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
