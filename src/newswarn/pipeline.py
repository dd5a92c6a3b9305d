"""Stage orchestration with content-hash manifests.

A stage's manifest records what its body read and wrote as it ran: the config
keys it read through ``RunContext.cfg`` are its parameters, by name, and its
files are the ones it opened through ``RunContext.read`` and ``write``. A stage
is skipped on rerun when the keys it read keep their values, every file it read
still has the recorded hash, and its outputs are intact, so deleting any
downstream output and resuming reproduces it bit-identically. Manifests carry no
timestamps; the config and its input files fully determine every emitted byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import frames as frames_mod
from . import outbreak as outbreak_mod
from . import panel as panel_mod
from . import semantics as semantics_mod
from . import tsstats as tsstats_mod
from .artifacts import read_csv, write_csv, write_json
from .config import _KINDS, _PATH_KEYS, PipelineConfig
from .errors import ConfigError, DataError
from .months import format_month, parse_month
from .report import build_report


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_KEYS = frozenset(_KINDS) - frozenset(_PATH_KEYS)  # what a manifest's params may name


def _params(cfg, keys) -> tuple[dict, str]:
    """The values of ``keys`` in ``cfg`` as a manifest records them, and their hash."""
    params = {k: sorted(v) if isinstance(v, frozenset) else v
              for k in sorted(keys) for v in [getattr(cfg, k)]}
    return params, hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


class _MissingInput(ConfigError):
    """A file a stage reads is not named by the config or does not exist."""


class _KeyLog:
    """A config as stage code sees it: each key of ``_KEYS`` read joins the set ``keys``."""

    def __init__(self, cfg):
        self._cfg, self.keys = cfg, set()

    def __getattr__(self, name):
        if name in _KEYS:
            self.keys.add(name)
        return getattr(self._cfg, name)


@dataclass
class RunContext:
    """One run's config and output directory, and the files each stage reads and writes.

    Stages open files only through ``read`` and ``write``. The names they
    pass are config path keys (``corpus``, ``panel``, ...) or files of the
    run directory (``seeds.json``, ``report/coverage.csv``). They read config
    keys through ``cfg``, which records each one but the paths, whose files
    ``read`` hashes. The stage's manifest is built from what was recorded.
    """

    cfg: PipelineConfig  # wrapped in a _KeyLog on construction
    out: Path
    _reads: dict = field(default_factory=dict)  # name -> sha256, or None for an unset key
    _writes: set = field(default_factory=set)
    _memos: dict = field(default_factory=dict)  # key -> (value, the reads and keys that built it)
    _digests: dict = field(default_factory=dict)  # path -> sha256, hashed once per run

    def __post_init__(self):
        self.cfg = _KeyLog(self.cfg)

    @property
    def window(self) -> tuple[int, int]:
        return parse_month(self.cfg.window_start), parse_month(self.cfg.window_end)

    def _path(self, name: str) -> Path | None:
        """Where ``name`` lives under the current config; None for an unset key."""
        if name in _PATH_KEYS:
            value = getattr(self.cfg, name)
            return Path(value) if value else None
        return self.out / name

    def read(self, name: str, optional: bool = False) -> Path | None:
        """Record that the running stage reads ``name``, and return its path.

        An unset ``optional`` key is recorded as None and returns None.
        """
        path = self._path(name)
        if path is None and optional:
            self._reads[name] = None
            return None
        if path is None:
            raise _MissingInput(f"config does not name a {name} file")
        if not path.is_file():
            raise _MissingInput(f"{name} file not found: {path}")
        if name not in self._reads:
            self._reads[name] = self._digest(path)
        return path

    def write(self, name: str) -> Path:
        """Record that the running stage writes ``name`` of the run directory; return its path."""
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self._writes.add(path)
        self._digests.pop(path, None)
        return path

    def _digest(self, path: Path) -> str:
        """``file_sha256`` of ``path``, hashed on its first use in the run.

        ``write`` and the end of the writing stage drop a path's digest, so
        what a stage writes is hashed again. A file edited by anything else
        while the run goes on keeps the digest it had; the next run sees the edit.
        """
        if path not in self._digests:
            self._digests[path] = file_sha256(path)
        return self._digests[path]

    def _memo(self, key, build):
        """``build()``, once per context. The files and config keys it read join every caller's,
        the running stage's even when ``build`` fails, so its error file lists the files.
        """
        if key not in self._memos:
            outer_reads, outer_keys = self._reads, self.cfg.keys
            self._reads, self.cfg.keys = {}, set()
            try:
                self._memos[key] = build(), self._reads, self.cfg.keys
            finally:
                outer_reads.update(self._reads)
                outer_keys.update(self.cfg.keys)
                self._reads, self.cfg.keys = outer_reads, outer_keys
        value, reads, keys = self._memos[key]
        self._reads.update(reads)
        self.cfg.keys.update(keys)
        return value

    def gazetteer(self):
        return self._memo("gazetteer", lambda: corpus_mod.load_gazetteer(self.read("gazetteer")))

    def corpus(self) -> corpus_mod.Corpus:
        """The corpus, parsed on first read and shared by every stage of the run."""
        return self._memo("corpus", lambda: corpus_mod.read_corpus(
            self.read("corpus"), self.window, strict=self.cfg.strict))

    def embeddings(self):
        return self._memo("embeddings",
                          lambda: semantics_mod.load_embeddings(self.read("embeddings")))

    def factors(self) -> corpus_mod.NewsFactors:
        """The factors stage's array and labels, loaded on first read."""
        return self._memo("factors", lambda: corpus_mod.load_factors(
            self.read("factors.npy"), self.read("factors.json")))

    def clusters(self) -> list[semantics_mod.FeatureCluster]:
        return self._memo("clusters",
                          lambda: semantics_mod.load_clusters(self.read("clusters.json")))

    def panel_csv(self):
        """``load_panel_csv``'s parse of the panel file, shared by select and the panel."""
        return self._memo("panel_csv", lambda: panel_mod.load_panel_csv(
            self.read("panel"), self.gazetteer()))

    def panel_dataset(self):
        def build():
            with open(self.read("retained.json"), "r", encoding="utf-8") as fh:
                retained = json.load(fh)
            return panel_mod.assemble_panel(
                self.gazetteer(), self.panel_csv(), self.factors(),
                {w: meta["diff_order"] for w, meta in retained.items()})

        return self._memo("panel", build)

    def model_specs(self) -> dict[str, panel_mod.ModelSpec]:
        cfg = self.cfg
        base = dict(y_lags=cfg.y_lags, factor_lags=cfg.factor_lags,
                    delay=cfg.publication_delay)
        specs = {kind: panel_mod.ModelSpec(kind=kind, **base) for kind in panel_mod.MODEL_KINDS}
        if cfg.spatial:
            for kind in panel_mod.MODEL_KINDS:
                specs[f"{kind}_spatial"] = panel_mod.ModelSpec(kind=kind, spatial=True, **base)
        if cfg.lasso_compare:
            for kind in panel_mod.MODEL_KINDS:
                specs[f"{kind}_lasso"] = panel_mod.ModelSpec(kind=kind, lasso=cfg.lasso_lambda,
                                                             **base)
        return specs

    def model_designs(self) -> tuple[dict[str, panel_mod.DesignMatrix], int]:
        """Design of every model spec (``panel.model_designs``), and the CV bar they all share.

        A design with a regressor that ``audit_no_lookahead`` flags raises
        DataError, so no look-ahead fit is scored.
        """
        def build():
            panel = self.panel_dataset()
            designs = panel_mod.model_designs(panel, self.model_specs())
            for name, design in sorted(designs.items()):
                ahead = panel_mod.audit_no_lookahead(design)
                if ahead:
                    raise DataError(
                        f"{name}: the design looks ahead with publication_delay = "
                        f"{self.cfg.publication_delay}: {', '.join(ahead[:3])}"
                        f"{f' and {len(ahead) - 3} more' if len(ahead) > 3 else ''}")
            return designs, panel_mod.min_train_rows(designs.values(), panel, self.cfg.folds)

        return self._memo("designs", build)

    def cv_report(self, name: str) -> panel_mod.CVReport:
        """Cross-validation of model spec ``name`` on its design, at the shared bar."""
        def build():
            designs, min_train = self.model_designs()
            try:
                return panel_mod.cross_validate_design(
                    designs[name], self.model_specs()[name], self.panel_dataset(),
                    self.cfg.folds, min_train_rows=min_train)
            except DataError as exc:
                raise DataError(f"{name}: {exc}") from None

        return self._memo(("cv", name), build)

    def predictions(self) -> dict[str, np.ndarray]:
        """``predictions.csv`` as model -> predicted phase on the panel's grid, NaN where none."""
        return self._memo("predictions", lambda: dict(_read_grid(
            self.read("predictions.csv"), "predictions", "y_pred", self.panel_dataset(),
            by="model")))

    def events(self) -> tuple[list, dict[str, list]]:
        """``events.csv`` as (actual, model -> predicted) events, each month a grid position."""
        position = {t: i for i, t in enumerate(self.panel_dataset().publication_months)}
        table = read_csv(self.read("events.csv"), "events")
        periods = table.cells("period")
        month_of = table.parse_distinct(periods, parse_month)
        off = [p for p, t in month_of.items() if t not in position]
        if off:
            table.fail(periods.index(off[0]), DataError(f"{off[0]} is not a publication month"))
        districts, kinds, models = map(table.cells, ("district_id", "kind", "model"))
        severities = table.parse(table.cells("severity"), float, table.rows)
        table.check()
        events = list(map(outbreak_mod.OutbreakEvent, districts,
                          [position[month_of[p]] for p in periods], severities))
        actual, predicted = [], {}
        for event, kind, model in zip(events, kinds, models):
            if kind == "actual":
                actual.append(event)
            else:
                predicted.setdefault(model, []).append(event)
        return actual, predicted


def _up_to_date(ctx: RunContext, manifest: dict) -> bool:
    """Whether the recorded params and inputs are unchanged and the outputs intact here.

    The params are the current values of the keys the manifest lists; a key
    the config no longer has fails the check. Inputs are looked up again
    under the current config and output directory. Outputs must lie under
    the current output directory, so a copied run directory is never cached
    against the original's files.
    """
    listed = manifest.get("params", {})
    if not (listed.keys() <= _KEYS
            and manifest.get("params_hash") == _params(ctx.cfg, listed)[1]):
        return False
    for name, digest in manifest.get("inputs", {}).items():
        path = ctx._path(name)
        if digest != (ctx._digest(path) if path is not None and path.is_file() else None):
            return False
    for p, digest in manifest.get("outputs", {}).items():
        path = Path(p)
        if not (path.is_relative_to(ctx.out) and path.is_file() and ctx._digest(path) == digest):
            return False
    return True


def _execute_stage(ctx: RunContext, name: str):
    """Run stage ``name`` unless its manifest shows it up to date; "run" or "cached".

    Its params are the config keys its body read, under their own names.
    """
    manifest_dir = ctx.out / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = manifest_dir / f"{name}.json"
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if _up_to_date(ctx, manifest):
            return "cached"
    ctx._reads, ctx._writes, ctx.cfg.keys = {}, set(), set()
    try:
        _STAGES[name](ctx)
    except _MissingInput:
        raise
    except Exception as exc:
        write_json(manifest_dir / f"{name}.error.json", {
            "stage": name, "error": f"{type(exc).__name__}: {exc}", "inputs": ctx._reads,
            "params_hash": _params(ctx.cfg, ctx.cfg.keys)[1]})
        raise
    finally:  # the body may have read a file it then rewrote
        for path in ctx._writes:
            ctx._digests.pop(path, None)
    params, phash = _params(ctx.cfg, ctx.cfg.keys)
    write_json(manifest_path, {
        "stage": name,
        "params_hash": phash,
        "params": params,
        "inputs": ctx._reads,
        "outputs": {str(p): ctx._digest(p) for p in sorted(ctx._writes)},
    })
    (manifest_dir / f"{name}.error.json").unlink(missing_ok=True)
    return "run"


# ---------------------------------------------------------------- stages


def _stage_extract(ctx: RunContext):
    cfg = ctx.cfg
    result = frames_mod.run_extraction(
        ctx.read("frames_news"),
        ctx.read("frames_study", optional=True),
        cfg.target_keywords,
        cfg.causal_links,
        cfg.stop_words,
        stem_dedup=cfg.stem_dedup,
    )
    frames_mod.save_seed_features(ctx.write("seeds.json"), result)


def _stage_expand(ctx: RunContext):
    cfg = ctx.cfg
    seeds = frames_mod.load_seed_features(ctx.read("seeds.json"))
    embeddings = ctx.embeddings()  # before the corpus parse, so a missing file fails fast
    candidates = semantics_mod.enumerate_candidates(ctx.corpus(), cfg.ngram_floor)
    expanded = semantics_mod.expand_seeds(seeds, candidates, embeddings,
                                          radius=cfg.wmd_radius)
    write_json(ctx.write("expanded.json"), [
        {"ngram": f.ngram, "nearest_seed": f.source_seed, "distance": f.distance}
        for f in expanded
    ])
    rows = [
        {"ngram": f.ngram, "provenance": list(f.provenance),
         "frame_count": f.frame_count} for f in seeds
    ] + [
        {"ngram": f.ngram, "provenance": list(f.provenance),
         "nearest_seed": f.source_seed, "distance": f.distance} for f in expanded
    ]
    write_json(ctx.write("features.json"), sorted(rows, key=lambda r: r["ngram"]))


def _stage_factors(ctx: RunContext):
    cfg = ctx.cfg
    with open(ctx.read("features.json"), "r", encoding="utf-8") as fh:
        features = sorted({row["ngram"] for row in json.load(fh)})
    factors, absent = corpus_mod.news_factors(
        ctx.corpus(), features, ctx.gazetteer(),
        exclude_targets=cfg.exclude_target_articles,
        target_keywords=cfg.target_keywords,
        denominator=cfg.factor_denominator,
    )
    corpus_mod.save_factors(ctx.write("factors.npy"), ctx.write("factors.json"), factors)
    skipped = [{"ngram": f, "reason": "absent from corpus"} for f in absent]
    write_json(ctx.write("factors_skipped.json"), skipped)


def _stage_select(ctx: RunContext):
    cfg = ctx.cfg
    panel_csv = ctx.panel_csv()  # before the factors, so a bad panel row fails first
    factors = ctx.factors()
    panel = panel_mod.assemble_panel(ctx.gazetteer(), panel_csv, factors,
                                     dict.fromkeys(factors.features, 0))
    retained, report = tsstats_mod.select_features(
        panel.feature_order, panel.ipc, panel.factors,
        n_max=cfg.factor_lags, level=cfg.granger_level,
        adf_level=cfg.adf_level, max_d=cfg.adf_max_d, mode=cfg.screening_mode,
    )
    write_csv(ctx.write("screening.csv"),
              ["feature", "F", "p", "lag_n", "differencing_d", "decision", "reason"],
              ([r.feature, r.f_stat, r.p_value, r.n_lags, r.diff_order, int(r.decision),
                r.reason] for r in report))
    write_json(ctx.write("retained.json"), {
        w: {"diff_order": meta["diff_order"], "f_stat": meta["result"].f_stat,
            "p_value": meta["result"].p_value, "n_lags": meta["result"].n_lags}
        for w, meta in retained.items()
    })
    # report's coverage table reads this count, so rerunning report never parses the corpus.
    provinces = sorted(ctx.gazetteer().provinces)
    articles = corpus_mod.feature_coverage(ctx.corpus(), sorted(retained), ctx.gazetteer(),
                                           provinces)
    write_json(ctx.write("retained_coverage.json"), dict(zip(provinces, articles)))


def _stage_fit(ctx: RunContext):
    specs = ctx.model_specs()
    designs, _ = ctx.model_designs()
    panel = ctx.panel_dataset()
    months = panel.end - panel.start + 1
    reports = {}
    audits = {}
    for name in sorted(specs):
        design = designs[name]
        audits[name] = {"violations": panel_mod.audit_no_lookahead(design),
                        "rows": len(design.rows),
                        "skipped": len(design.districts) * months - len(design.rows)}
        reports[name] = ctx.cv_report(name)
    write_json(ctx.write("cv_reports.json"), {
        name: {
            "fold_rmse": [r if r is None else float(r) for r in rep.fold_rmse],
            "folds_scored": sum(r is not None for r in rep.fold_rmse),
            "mean_rmse": rep.mean_rmse,
            "country_rmse": rep.country_rmse,
            "district_rmse": rep.district_rmse,
        }
        for name, rep in reports.items()
    })
    write_csv(ctx.write("predictions.csv"),
              ["district_id", "month", "y_true", "y_pred", "model"],
              ([p.district, format_month(p.month), p.y_true, p.y_pred, model]
               for model in sorted(reports) for p in reports[model].predictions))
    models = {}
    for kind in panel_mod.MODEL_KINDS:
        result = panel_mod.fit_design(designs[kind], specs[kind])
        models[kind] = {
            "spec": {"kind": kind, "spatial": specs[kind].spatial,
                     "y_lags": specs[kind].y_lags,
                     "factor_lags": specs[kind].factor_lags,
                     "delay": specs[kind].delay},
            "coefficients": result.coefficients(),
            "dropped": list(result.dropped),
            "rss": result.rss,
            "nobs": result.nobs,
            "fold_rmse": [r if r is None else float(r)
                          for r in reports[kind].fold_rmse],
        }
    write_json(ctx.write("models.json"), models)
    write_json(ctx.write("audit.json"), audits)


def _stage_ablate(ctx: RunContext):
    cfg = ctx.cfg
    retained = ctx.panel_dataset().feature_order
    clusters = semantics_mod.cluster_features(
        retained, ctx.embeddings(), k=min(cfg.clusters, len(retained)),
        labels=list(cfg.cluster_labels) or None) if retained else []
    semantics_mod.save_clusters(ctx.write("clusters.json"), clusters)
    # The fit stage's design, bar and CV, so deltas are against the reported combined CV.
    designs, min_train = ctx.model_designs()
    results = panel_mod.ablate(designs["combined"], ctx.model_specs()["combined"],
                               ctx.panel_dataset(), ctx.cv_report("combined"),
                               clusters, cfg.folds, min_train)
    write_csv(ctx.write("ablation.csv"),
              ["cluster_id", "label", "district_id", "rmse_delta"],
              ([r.cluster_id, r.label, d, delta] for r in results
               for d, delta in [("ALL", r.mean_delta), *sorted(r.district_delta.items())]))


def _read_grid(path, kind: str, column: str, panel, by: str = "") -> dict[str, np.ndarray]:
    """A CSV's ``column`` on the panel's grid, one array shaped like ``panel.ipc``
    per value of column ``by`` (all under "" without one), NaN where no row gives a value.

    Rows off the grid are ignored, and of two rows for one cell the later counts;
    a malformed row raises DataError naming file and line.
    """
    table = read_csv(path, kind)
    districts, months = table.cells("district_id"), table.cells("month")
    month_of = table.parse_distinct(months, parse_month)
    keys = table.cells(by) if by else ("",) * len(table.lines)
    values = np.array(table.parse(table.cells(column), float, table.rows))
    table.check()
    shape = panel.ipc.shape
    i = np.fromiter(map(panel.rows.get, districts, itertools.repeat(-1)), int, len(districts))
    j = np.fromiter(map(month_of.__getitem__, months), int, len(months)) - panel.grid_start
    rows = np.flatnonzero((i >= 0) & (j >= 0) & (j < shape[1])).tolist()
    keys = list(map(keys.__getitem__, rows))
    index = {key: g for g, key in enumerate(dict.fromkeys(keys))}  # by first row on the grid
    cells = np.ravel_multi_index((np.fromiter(map(index.__getitem__, keys), int, len(keys)),
                                  i[rows], j[rows]), (len(index), *shape))
    last = dict(zip(cells.tolist(), rows))  # each cell's last row
    grids = np.full((len(index), *shape), np.nan)
    grids.reshape(-1)[list(last)] = values[list(last.values())]
    return defaultdict(lambda: np.full(shape, np.nan), zip(index, grids))


def _publication_rows(panel, grid: np.ndarray) -> np.ndarray:
    """The sorted districts' rows of a panel-grid array, at the publication months."""
    return grid[np.ix_([panel.rows[d] for d in sorted(panel.districts)],
                       [t - panel.grid_start for t in panel.publication_months])]


def _prediction_series(ctx: RunContext, panel) -> tuple[list, dict, np.ndarray]:
    """Sorted districts, and each model's and the published phase's rows of them.

    Rows hold the publication months, NaN wherever any model lacks a prediction.
    """
    series = {m: _publication_rows(panel, grid) for m, grid in sorted(ctx.predictions().items())
              if m in panel_mod.MODEL_KINDS}
    covered = np.all([np.isfinite(v) for v in series.values()], axis=0)
    series = {m: np.where(covered, v, np.nan) for m, v in series.items()}
    return sorted(panel.districts), series, np.where(
        covered, _publication_rows(panel, panel.ipc_observed), np.nan)


def _stage_classify(ctx: RunContext):
    cfg = ctx.cfg
    panel = ctx.panel_dataset()
    periods = panel.publication_months
    districts, series, actual = _prediction_series(ctx, panel)
    actual_events = []
    for d, vals in zip(districts, actual):
        actual_events.extend(outbreak_mod.detect_outbreaks(vals, d))
    levels = outbreak_mod.threshold_grid(cfg.grid_min, cfg.grid_max, cfg.grid_step)

    def operating_point(by_district, actual):
        """The Pareto front, and its (l, u, recall) at the precision target or the error."""
        front = outbreak_mod.sweep_pareto(by_district, actual, levels, cfg.match_window)
        try:
            l, u, recall = outbreak_mod.recall_at_precision(front, cfg.precision_target)
        except DataError as exc:
            return front, {"error": str(exc)}
        return front, {"l": l, "u": u, "recall": recall}

    fronts, points = {}, {}
    event_rows = [(e.district, format_month(periods[e.start]), "actual", "", e.severity)
                  for e in actual_events]
    for model, rows in series.items():
        by_district = dict(zip(districts, rows))
        fronts[model], entry = operating_point(by_district, actual_events)
        entry["n_actual"] = len(actual_events)
        if "error" not in entry:
            predicted = []
            for d, vals in sorted(by_district.items()):
                predicted.extend(outbreak_mod.classify(vals, entry["l"], entry["u"], d))
            s = outbreak_mod.score(predicted, actual_events, cfg.match_window)
            entry.update(asdict(s), precision=s.precision)
            event_rows.extend(
                (e.district, format_month(periods[e.start]), "predicted", model, e.severity)
                for e in predicted
            )
        entry["per_country"] = {
            country: operating_point(
                {d: v for d, v in by_district.items() if panel.country_of(d) == country},
                [e for e in actual_events if panel.country_of(e.district) == country])[1]
            for country in sorted({panel.country_of(d) for d in by_district})
        }
        points[model] = entry
    projections_path = ctx.read("projections", optional=True)
    if projections_path:
        grid = _read_grid(projections_path, "projections", "projected_phase", panel)[""]
        # Scored on the models' evaluation cells, as the actual outbreaks are.
        projections = np.where(np.isnan(actual), np.nan, _publication_rows(panel, grid))
        expert = outbreak_mod.expert_baseline(dict(zip(districts, projections)),
                                              actual_events, cfg.match_window)
        points["expert"] = {**asdict(expert), "precision": expert.precision,
                            "recall": expert.recall}
    write_csv(ctx.write("fronts.csv"), ["l", "u", "precision", "recall", "model"],
              ([p.l, p.u, p.precision, p.recall, model]
               for model in sorted(fronts) for p in fronts[model]))
    write_csv(ctx.write("events.csv"), ["district_id", "period", "kind", "model", "severity"],
              event_rows)
    write_json(ctx.write("operating_points.json"), points)


def _stage_validate(ctx: RunContext):
    rows, percentiles = panel_mod.validate_factors(ctx.panel_dataset(), ctx.factors())
    write_csv(ctx.write("associations.csv"),
              ["traditional_factor", "news_factor", "spearman_r", "n_districts"],
              ([r.indicator, r.feature, r.spearman_r, r.n_districts] for r in rows))
    pct_rows = []
    for kind, table in sorted(percentiles.items()):
        for name, by_district in sorted(table.items()):
            for d, v in sorted(by_district.items()):
                pct_rows.append({"kind": kind, "name": name, "district": d,
                                 "percentile": v})
    write_json(ctx.write("association_percentiles.json"), pct_rows)


def _stage_report(ctx: RunContext):
    # No table uses precision_target. It is read so that a precision edit reruns report, as
    # perfbench's resume gate expects until ROADMAP item 5's coupled benchmark change.
    ctx.cfg.precision_target
    build_report(ctx)  # looked up as the stage runs, so a patched build_report is the one run


_STAGES = dict(  # each stage's body, in run order
    extract=_stage_extract, expand=_stage_expand, factors=_stage_factors, select=_stage_select,
    fit=_stage_fit, ablate=_stage_ablate, classify=_stage_classify, validate=_stage_validate,
    report=_stage_report)
_STAGE_FUNCS = {name: lambda ctx, name=name: _execute_stage(ctx, name) for name in _STAGES}
STAGE_ORDER = tuple(_STAGES)


def run_pipeline(cfg: PipelineConfig, stages=None) -> dict[str, str]:
    """Run the requested stages (all, in order, by default)."""
    cfg.validate()
    requested = list(stages) if stages else list(STAGE_ORDER)
    unknown = [s for s in requested if s not in _STAGE_FUNCS]
    if unknown:
        raise ConfigError(f"unknown stages: {unknown}")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(cfg=cfg, out=out)
    summary = {}
    for name in STAGE_ORDER:
        if name in requested:
            summary[name] = _STAGE_FUNCS[name](ctx)
    return summary
