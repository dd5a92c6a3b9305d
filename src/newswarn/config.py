"""Pipeline configuration: INI-style flat key-value text with sections."""

from __future__ import annotations

import configparser
import os
import typing
from dataclasses import dataclass
from pathlib import Path

from .corpus import DENOMINATORS
from .errors import ConfigError, DataError
from .frames import DEFAULT_CAUSAL_LINKS, DEFAULT_STOP_WORDS, DEFAULT_TARGET_KEYWORDS
from .months import parse_month
from .tsstats import _ADF_CRIT_CONST, SCREENING_MODES


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
            (self.adf_level in _ADF_CRIT_CONST,
             f"adf_level must be one of {', '.join(map(str, _ADF_CRIT_CONST))}"),
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
            (self.screening_mode in SCREENING_MODES, "bad screening_mode"),
            (self.factor_denominator in DENOMINATORS, "bad factor_denominator"),
            (bool(self.target_keywords), "target_keywords must be non-empty"),
            (bool(self.causal_links), "causal_links must be non-empty"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        return self


_PATH_KEYS = ("corpus", "frames_news", "frames_study", "embeddings", "gazetteer",
              "panel", "projections", "output")
# The type each key is read and written as: its annotation, ``tuple[str, ...]`` as tuple.
_KINDS = {key: typing.get_origin(hint) or hint
          for key, hint in typing.get_type_hints(PipelineConfig).items()}


def load_config(path) -> PipelineConfig:
    """Read a config file; each key may sit in any section, but only once."""
    # [DEFAULT] is one more section, and a % is a character like any other.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = PipelineConfig()
    base = Path(path).resolve().parent
    seen = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _KINDS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            if key in seen:
                raise ConfigError(f"config key {key!r} is given in [{seen[key]}] and [{section}]")
            seen[key] = section
            kind = _KINDS[key]
            try:
                if key in _PATH_KEYS:
                    value = str(base / raw) if raw and not Path(raw).is_absolute() else raw
                elif kind is bool:
                    value = parser.getboolean(section, key)
                elif kind in (tuple, frozenset):
                    value = kind(x.strip() for x in raw.split(",") if x.strip())
                else:
                    value = kind(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
            setattr(cfg, key, value)
    return cfg.validate()


def save_config(path, cfg: PipelineConfig) -> None:
    """Write ``cfg`` with its paths relative to the config file's directory.

    ``load_config`` resolves them against that directory again, so a bundle
    keeps working after its directory is moved. Every other key is written as
    its field's type reads back.
    """
    base = Path(path).resolve().parent

    def text(key: str) -> str:
        value, kind = getattr(cfg, key), _KINDS[key]
        if key in _PATH_KEYS:
            return os.path.relpath(Path(value).resolve(), base) if value else value
        if kind in (tuple, frozenset):
            return ", ".join(sorted(value) if kind is frozenset else value)
        if kind is bool:
            return str(value).lower()
        return repr(value) if kind is float else str(value)

    parser = configparser.ConfigParser(interpolation=None)
    parser["paths"] = {k: text(k) for k in _PATH_KEYS}
    parser["settings"] = {k: text(k) for k in _KINDS if k not in _PATH_KEYS}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
