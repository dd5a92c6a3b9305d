"""Filtering of pre-parsed semantic frames and extraction of causal text features.

Frames arrive as JSONL produced offline by a frame-semantic parser. A frame
survives when it carries at least one cause and one effect constituent, some
effect constituent mentions a target keyword (matched on Porter stems), and
the frame label or a constituent contains a causal-link trigger. Features are
the 1..3-grams of the surviving cause/effect constituents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .artifacts import write_json
from .errors import DataError
from .stemmer import stem_tokens
from .textutil import MAX_NGRAM, contains_subsequence, iter_ngrams, normalize_ngram, tokenize

# Editable defaults. The 13 target keywords and the 41 causal-link triggers
# are configuration, not constants of the method; override via PipelineConfig.
DEFAULT_TARGET_KEYWORDS = (
    "famine",
    "hunger",
    "starvation",
    "malnutrition",
    "undernourishment",
    "undernutrition",
    "food insecurity",
    "food crisis",
    "food shortage",
    "food scarcity",
    "food emergency",
    "food deprivation",
    "acute hunger",
)

DEFAULT_CAUSAL_LINKS = (
    "cause", "causes", "caused", "causing",
    "because", "because of", "due to", "owing to", "thanks to",
    "lead to", "leads to", "led to", "leading to",
    "result in", "results in", "resulted in", "resulting in",
    "result from", "results from", "resulted from",
    "as a result of", "consequence of", "in consequence of",
    "bring about", "brings about", "brought about",
    "give rise to", "gives rise to", "gave rise to",
    "stem from", "stems from", "stemmed from",
    "trigger", "triggers", "triggered",
    "provoke", "provokes", "provoked",
    "spark", "sparks", "sparked",
)

DEFAULT_STOP_WORDS = frozenset(
    """a an the of in on at to for and or but with by from as is are was were
    be been being that this these those it its their his her our your my may
    might will would shall can could have has had do does did not no"""
    .split()
)


@dataclass(frozen=True)
class Constituent:
    role: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SemanticFrame:
    frame_label: str
    constituents: tuple[Constituent, ...]

    def with_role(self, role: str):
        return tuple(c for c in self.constituents if c.role == role)


@dataclass(frozen=True)
class TextFeature:
    ngram: str
    provenance: tuple[str, ...]
    frame_count: int = 0
    source_seed: str | None = None  # nearest seed, for expanded features
    distance: float | None = None

    def __post_init__(self):
        n = len(self.ngram.split())
        if not 1 <= n <= MAX_NGRAM:
            raise DataError(f"feature {self.ngram!r} must have 1-{MAX_NGRAM} tokens")


def has_cause_and_effect(frame: SemanticFrame) -> bool:
    roles = {c.role for c in frame.constituents}
    return "cause" in roles and "effect" in roles


def effect_mentions_target(frame: SemanticFrame, target_stems) -> bool:
    """Whether an effect constituent holds a target keyword's stem sequence."""
    for c in frame.with_role("effect"):
        stems = stem_tokens(c.tokens)
        if any(contains_subsequence(stems, seq) for seq in target_stems):
            return True
    return False


def causal_link_match(frame: SemanticFrame, link_tokens) -> str | None:
    """Where a causal-link token sequence fired: "label", "constituent", or None."""
    label_tokens = tokenize(frame.frame_label)
    if any(contains_subsequence(label_tokens, seq) for seq in link_tokens):
        return "label"
    for c in frame.constituents:
        if any(contains_subsequence(c.tokens, seq) for seq in link_tokens):
            return "constituent"
    return None


def filter_frames(frames, target_stems, link_tokens):
    """Frames passing all three causal filters, in input order.

    ``target_stems`` are the target keywords as Porter-stem sequences and
    ``link_tokens`` the causal-link triggers as token sequences.
    """
    return [f for f in frames
            if has_cause_and_effect(f) and effect_mentions_target(f, target_stems)
            and causal_link_match(f, link_tokens) is not None]


def extract_ngrams(frame: SemanticFrame, stop_words=DEFAULT_STOP_WORDS) -> set[str]:
    """1..3-grams of the cause and effect constituents, minus stop-only grams."""
    grams: set[str] = set()
    for role in ("cause", "effect"):
        for c in frame.with_role(role):
            toks = tuple(t for tok in c.tokens for t in tokenize(tok))
            for gram in iter_ngrams(toks):
                if all(t in stop_words for t in gram):
                    continue
                grams.add(" ".join(gram))
    return grams


def load_frames(path) -> list[SemanticFrame]:
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                constituents = tuple(
                    Constituent(role=str(c["role"]).lower(), tokens=tuple(c["tokens"]))
                    for c in obj["constituents"]
                )
                frame = SemanticFrame(frame_label=obj["frame_label"], constituents=constituents)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise DataError(f"{path}:{lineno}: bad frame record: {exc}") from None
            if not frame.constituents:
                raise DataError(f"{path}:{lineno}: frame has no constituents")
            frames.append(frame)
    return frames


@dataclass
class ExtractionResult:
    features: dict[str, TextFeature]


def run_extraction(
    news_path,
    study_path=None,
    target_keywords=DEFAULT_TARGET_KEYWORDS,
    causal_links=DEFAULT_CAUSAL_LINKS,
    stop_words=DEFAULT_STOP_WORDS,
    stem_dedup: bool = False,
) -> ExtractionResult:
    """Extract the seed feature set from news and study frame files.

    Features keep their surface forms; with ``stem_dedup`` n-grams sharing a
    Porter-stem sequence collapse onto the first surface form seen.
    """
    target_stems = tuple(stem_tokens(tokenize(k)) for k in target_keywords)
    link_tokens = tuple(tokenize(link) for link in causal_links)
    result = ExtractionResult({})
    stem_key: dict[tuple[str, ...], str] = {}

    for path, provenance in ((news_path, "frame-news"), (study_path, "frame-study")):
        if path is None:
            continue
        if not Path(path).exists():
            raise DataError(f"frame file not found: {path}")
        for frame in filter_frames(load_frames(path), target_stems, link_tokens):
            for gram in sorted(extract_ngrams(frame, stop_words)):
                ngram = normalize_ngram(gram)
                if stem_dedup:
                    stems = stem_tokens(ngram.split())
                    ngram = stem_key.setdefault(stems, ngram)
                prior = result.features.get(ngram)
                if prior is None:
                    result.features[ngram] = TextFeature(
                        ngram=ngram, provenance=(provenance,), frame_count=1
                    )
                else:
                    prov = prior.provenance
                    if provenance not in prov:
                        prov = tuple(sorted(set(prov) | {provenance}))
                    result.features[ngram] = replace(
                        prior, provenance=prov, frame_count=prior.frame_count + 1
                    )
    return result


def save_seed_features(path, result: ExtractionResult) -> None:
    rows = [
        {"ngram": f.ngram, "provenance": list(f.provenance), "frame_count": f.frame_count}
        for _, f in sorted(result.features.items())
    ]
    write_json(path, rows)


def load_seed_features(path) -> list[TextFeature]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    return [
        TextFeature(
            ngram=r["ngram"],
            provenance=tuple(r["provenance"]),
            frame_count=int(r.get("frame_count", 0)),
        )
        for r in rows
    ]
