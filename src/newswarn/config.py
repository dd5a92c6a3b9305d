"""Pipeline configuration: INI-style flat key-value text with sections."""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, DataError
from .frames import DEFAULT_CAUSAL_LINKS, DEFAULT_STOP_WORDS, DEFAULT_TARGET_KEYWORDS
from .months import parse_month


@dataclass
class PipelineConfig:
    # paths
    corpus: str = "corpus.jsonl"
    frames_news: str = "frames_news.jsonl"
    frames_study: str = ""
    embeddings: str = "embeddings.txt"
    gazetteer: str = "gazetteer.csv"
    panel: str = "panel.csv"
    projections: str = ""
    output: str = "run"
    # corpus window
    window_start: str = "2009-07"
    window_end: str = "2020-02"
    # lexicon
    target_keywords: tuple[str, ...] = DEFAULT_TARGET_KEYWORDS
    causal_links: tuple[str, ...] = DEFAULT_CAUSAL_LINKS
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS
    cluster_labels: tuple[str, ...] = ()
    # thresholds (defaults mirror the documented method constants)
    wmd_radius: float = 6.0
    ngram_floor: int = 1000
    granger_level: float = 0.01
    adf_level: float = 0.05
    adf_max_d: int = 2
    factor_lags: int = 6
    y_lags: int = 6
    publication_delay: int = 2
    folds: int = 10
    grid_min: float = 1.0
    grid_max: float = 5.0
    grid_step: float = 0.1
    precision_target: float = 0.80
    clusters: int = 12
    lasso_lambda: float = 0.001
    match_window: int = 0
    screening_mode: str = "pooled"
    factor_denominator: str = "country"
    stem_dedup: bool = False
    # run options
    strict: bool = False
    exclude_target_articles: bool = False
    spatial: bool = True
    lasso_compare: bool = True

    def validate(self) -> "PipelineConfig":
        try:
            window = parse_month(self.window_start), parse_month(self.window_end)
        except DataError as exc:
            raise ConfigError(f"bad corpus window: {exc}") from None
        checks = [
            (window[0] <= window[1], "window_start must not be after window_end"),
            (self.wmd_radius > 0, "wmd_radius must be positive"),
            (self.ngram_floor >= 0, "ngram_floor must be non-negative"),
            (0 < self.granger_level < 1, "granger_level must be in (0, 1)"),
            (self.adf_level in (0.01, 0.05, 0.10), "adf_level must be 0.01, 0.05 or 0.10"),
            (self.adf_max_d >= 0, "adf_max_d must be non-negative"),
            (self.factor_lags >= 1 and self.y_lags >= 1, "lag orders must be at least 1"),
            (self.publication_delay >= 0, "publication_delay must be non-negative"),
            (self.folds >= 2, "folds must be at least 2"),
            (self.grid_step > 0 and self.grid_min <= self.grid_max, "bad threshold grid"),
            (1.0 <= self.grid_min and self.grid_max <= 5.0, "threshold grid outside [1, 5]"),
            (0 < self.precision_target <= 1, "precision_target must be in (0, 1]"),
            (self.clusters >= 1, "clusters must be at least 1"),
            (self.lasso_lambda >= 0, "lasso_lambda must be non-negative"),
            (self.match_window >= 0, "match_window must be non-negative"),
            (self.screening_mode in ("pooled", "per-district"), "bad screening_mode"),
            (self.factor_denominator in ("country", "corpus"), "bad factor_denominator"),
            (bool(self.target_keywords), "target_keywords must be non-empty"),
            (bool(self.causal_links), "causal_links must be non-empty"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


_PATH_KEYS = ("corpus", "frames_news", "frames_study", "embeddings", "gazetteer",
              "panel", "projections", "output")
_LIST_KEYS = ("target_keywords", "causal_links", "cluster_labels")
_BOOL_KEYS = ("strict", "exclude_target_articles", "spatial", "lasso_compare",
              "stem_dedup")
_INT_KEYS = ("ngram_floor", "adf_max_d", "factor_lags", "y_lags", "publication_delay",
             "folds", "clusters", "match_window")
_FLOAT_KEYS = ("wmd_radius", "granger_level", "adf_level", "grid_min", "grid_max",
               "grid_step", "precision_target", "lasso_lambda")


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def load_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = PipelineConfig()
    base = Path(path).resolve().parent
    known = {f.name for f in fields(PipelineConfig)}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            try:
                if key in _BOOL_KEYS:
                    value = parser.getboolean(section, key)
                elif key in _INT_KEYS:
                    value = int(raw)
                elif key in _FLOAT_KEYS:
                    value = float(raw)
                elif key in _LIST_KEYS:
                    value = _split_list(raw)
                elif key == "stop_words":
                    value = frozenset(_split_list(raw))
                elif key in _PATH_KEYS:
                    value = str(base / raw) if raw and not Path(raw).is_absolute() else raw
                else:
                    value = raw
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
            setattr(cfg, key, value)
    return cfg.validate()


def save_config(path, cfg: PipelineConfig) -> None:
    """Write ``cfg`` with its paths relative to the config file's directory.

    ``load_config`` resolves them against that directory again, so a bundle
    keeps working after its directory is moved.
    """
    parser = configparser.ConfigParser()
    base = Path(path).resolve().parent

    def path_value(p: str) -> str:
        return os.path.relpath(Path(p).resolve(), base) if p else p

    parser["paths"] = {k: path_value(getattr(cfg, k)) for k in _PATH_KEYS}
    parser["window"] = {"window_start": cfg.window_start, "window_end": cfg.window_end}
    parser["lexicon"] = {
        "target_keywords": ", ".join(cfg.target_keywords),
        "causal_links": ", ".join(cfg.causal_links),
        "stop_words": ", ".join(sorted(cfg.stop_words)),
        "cluster_labels": ", ".join(cfg.cluster_labels),
    }
    parser["thresholds"] = {
        **{k: repr(getattr(cfg, k)) for k in _FLOAT_KEYS},
        **{k: str(getattr(cfg, k)) for k in _INT_KEYS},
        "screening_mode": cfg.screening_mode,
        "factor_denominator": cfg.factor_denominator,
    }
    parser["run"] = {k: str(getattr(cfg, k)).lower() for k in _BOOL_KEYS}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
