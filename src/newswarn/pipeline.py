"""Stage orchestration with content-hash manifests.

Each stage declares its input files, parameters, and output files. A stage is
skipped on rerun when its manifest still matches the current input hashes and
its outputs are intact, so deleting any downstream output and resuming
reproduces it bit-identically. Manifests carry no timestamps; the config and
its input files fully determine every emitted byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import frames as frames_mod
from . import outbreak as outbreak_mod
from . import panel as panel_mod
from . import semantics as semantics_mod
from . import tsstats as tsstats_mod
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .months import format_month, parse_month
from .series import Series

STAGE_ORDER = (
    "extract", "expand", "factors", "select", "fit", "ablate",
    "classify", "validate", "report",
)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _params_hash(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


@dataclass
class RunContext:
    cfg: PipelineConfig
    out: Path
    _cache: dict = field(default_factory=dict)

    @property
    def window(self) -> tuple[int, int]:
        return parse_month(self.cfg.window_start), parse_month(self.cfg.window_end)

    def gazetteer(self):
        if "gaz" not in self._cache:
            self._require(self.cfg.gazetteer, "gazetteer")
            self._cache["gaz"] = corpus_mod.load_gazetteer(self.cfg.gazetteer)
        return self._cache["gaz"]

    def corpus(self) -> corpus_mod.Corpus:
        """The corpus, parsed on first read and shared by every stage of the run."""
        if "corpus" not in self._cache:
            self._require(self.cfg.corpus, "corpus")
            self._cache["corpus"] = corpus_mod.read_corpus(self.cfg.corpus, self.window,
                                                           strict=self.cfg.strict)
        return self._cache["corpus"]

    def embeddings(self):
        if "emb" not in self._cache:
            self._require(self.cfg.embeddings, "embeddings")
            self._cache["emb"] = semantics_mod.load_embeddings(self.cfg.embeddings)
        return self._cache["emb"]

    def factors(self) -> list[corpus_mod.NewsFactorSeries]:
        """``factors.csv``, parsed on first read: after the factors stage has written it."""
        if "factors" not in self._cache:
            self._cache["factors"] = corpus_mod.read_factors_csv(self.out / "factors.csv")
        return self._cache["factors"]

    def panel_dataset(self):
        if "panel" not in self._cache:
            retained = self._load_retained()
            clusters, labels = self._load_cluster_map()
            self._cache["panel"] = panel_mod.assemble_panel(
                self.gazetteer(), self.cfg.panel, self.factors(),
                {w: meta["diff_order"] for w, meta in retained.items()},
                clusters, labels,
            )
        return self._cache["panel"]

    def _load_retained(self) -> dict:
        path = self.out / "retained.json"
        if not path.exists():
            raise DataError("select stage outputs missing; run the select stage first")
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _load_cluster_map(self):
        path = self.out / "clusters.json"
        if not path.exists():
            return {}, {}
        clusters = semantics_mod.load_clusters(path)
        mapping = {m: c.cluster_id for c in clusters for m in c.members}
        labels = {c.cluster_id: c.label for c in clusters}
        return mapping, labels

    def _require(self, path: str, role: str) -> None:
        if not path:
            raise ConfigError(f"config does not name a {role} file")
        if not Path(path).exists():
            raise ConfigError(f"{role} file not found: {path}")

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
        """Design of every model spec, and the CV bar they all share (``min_train_rows``).

        ``build_design`` ignores ``spec.lasso``, so a ``*_lasso`` spec shares the
        design object of its OLS twin.
        """
        if "designs" not in self._cache:
            panel = self.panel_dataset()
            built: dict[panel_mod.ModelSpec, panel_mod.DesignMatrix] = {}
            designs = {}
            for name, spec in sorted(self.model_specs().items()):
                key = replace(spec, lasso=None)
                if key not in built:
                    built[key] = panel_mod.build_design(panel, spec)
                designs[name] = built[key]
            self._cache["designs"] = designs, min_train_rows(designs.values(), panel,
                                                             self.cfg.folds)
        return self._cache["designs"]

    def cv_report(self, name: str) -> panel_mod.CVReport:
        """Cross-validation of model spec ``name`` on its design, at the shared bar."""
        reports = self._cache.setdefault("cv", {})
        if name not in reports:
            designs, min_train = self.model_designs()
            try:
                reports[name] = panel_mod.cross_validate_design(
                    designs[name], self.model_specs()[name], self.panel_dataset(),
                    self.cfg.folds, min_train_rows=min_train)
            except DataError as exc:
                raise DataError(f"{name}: {exc}") from None
        return reports[name]

    def predictions(self) -> dict[str, dict[tuple[str, int], float]]:
        """``predictions.csv`` as model -> (district, month) -> predicted phase."""
        if "predictions" not in self._cache:
            preds: dict[str, dict[tuple[str, int], float]] = {}
            with open(self.out / "predictions.csv", "r", encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    preds.setdefault(row["model"], {})[
                        (row["district_id"], parse_month(row["month"]))
                    ] = float(row["y_pred"])
            self._cache["predictions"] = preds
        return self._cache["predictions"]


def _execute_stage(ctx: RunContext, name: str, inputs, params: dict, outputs, compute):
    manifest_dir = ctx.out / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = manifest_dir / f"{name}.json"
    inputs = [str(p) for p in inputs]
    outputs = [str(p) for p in outputs]
    for p in inputs:
        if not Path(p).exists():
            raise ConfigError(f"stage {name!r}: missing input file {p}")
    input_hashes = {p: file_sha256(p) for p in sorted(inputs)}
    phash = _params_hash(params)
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if (
            manifest.get("params_hash") == phash
            and manifest.get("inputs") == input_hashes
            and all(Path(p).exists() for p in manifest.get("outputs", {}))
            and all(file_sha256(p) == h for p, h in manifest.get("outputs", {}).items())
        ):
            return "cached"
    try:
        compute()
    except Exception as exc:
        failure = {"stage": name, "error": f"{type(exc).__name__}: {exc}",
                   "inputs": input_hashes, "params_hash": phash}
        with open(manifest_dir / f"{name}.error.json", "w", encoding="utf-8") as fh:
            json.dump(failure, fh, indent=1, sort_keys=True)
        raise
    manifest = {
        "stage": name,
        "params_hash": phash,
        "params": params,
        "inputs": input_hashes,
        "outputs": {p: file_sha256(p) for p in sorted(outputs)},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    (manifest_dir / f"{name}.error.json").unlink(missing_ok=True)
    return "run"


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def min_train_rows(designs, panel, folds: int, rows_per_parameter: float = 4.0) -> int:
    """Smallest training sample allowed in any fold, from the widest design.

    Expanding-window folds whose training sample is thinner than a few rows
    per parameter produce wild extrapolations; they are skipped for every
    model alike so fold averages stay comparable. The bar is capped at the
    largest training window any fold can offer, so undersized fixtures still
    score their final folds.
    """
    widest = max((len(d.columns) for d in designs), default=0)
    bar = int(rows_per_parameter * widest) + 1
    blocks = panel_mod.month_folds(panel.start, panel.end, folds)
    last_train = {m for b in blocks[:-1] for m in b}
    cap = max(
        (sum(1 for _, m in d.rows if m in last_train) for d in designs), default=0
    )
    return min(bar, cap)


# ---------------------------------------------------------------- stages


def _stage_extract(ctx: RunContext):
    cfg = ctx.cfg
    ctx._require(cfg.frames_news, "news frames")
    inputs = [cfg.frames_news]
    if cfg.frames_study:
        ctx._require(cfg.frames_study, "study frames")
        inputs.append(cfg.frames_study)
    out_path = ctx.out / "seeds.json"

    def compute():
        result = frames_mod.run_extraction(
            cfg.frames_news,
            cfg.frames_study or None,
            frames_mod.TargetLexicon(cfg.target_keywords),
            frames_mod.CausalLinkSet(cfg.causal_links),
            cfg.stop_words,
            stem_dedup=cfg.stem_dedup,
        )
        frames_mod.save_seed_features(out_path, result)

    params = {"targets": sorted(cfg.target_keywords), "links": sorted(cfg.causal_links),
              "stop_words": sorted(cfg.stop_words), "stem_dedup": cfg.stem_dedup}
    return _execute_stage(ctx, "extract", inputs, params, [out_path], compute)


def _stage_expand(ctx: RunContext):
    cfg = ctx.cfg
    ctx._require(cfg.embeddings, "embeddings")
    ctx._require(cfg.corpus, "corpus")
    inputs = [ctx.out / "seeds.json", cfg.corpus, cfg.embeddings]
    outputs = [ctx.out / "expanded.json", ctx.out / "features.json"]

    def compute():
        seeds = frames_mod.load_seed_features(ctx.out / "seeds.json")
        candidates = semantics_mod.enumerate_candidates(ctx.corpus(), cfg.ngram_floor)
        expanded = semantics_mod.expand_seeds(seeds, candidates, ctx.embeddings(),
                                              radius=cfg.wmd_radius)
        _write_json(ctx.out / "expanded.json", [
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
        _write_json(ctx.out / "features.json", sorted(rows, key=lambda r: r["ngram"]))

    params = {"radius": cfg.wmd_radius, "floor": cfg.ngram_floor,
              "window": [cfg.window_start, cfg.window_end], "strict": cfg.strict}
    return _execute_stage(ctx, "expand", inputs, params, outputs, compute)


def _stage_factors(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "features.json", cfg.corpus, cfg.gazetteer]
    outputs = [ctx.out / "factors.csv", ctx.out / "factors_skipped.json"]

    def compute():
        with open(ctx.out / "features.json", "r", encoding="utf-8") as fh:
            features = sorted({row["ngram"] for row in json.load(fh)})
        factors, absent = corpus_mod.news_factors(
            ctx.corpus(), features, ctx.gazetteer(),
            exclude_targets=cfg.exclude_target_articles,
            target_keywords=cfg.target_keywords,
            denominator=cfg.factor_denominator,
        )
        corpus_mod.write_factors_csv(ctx.out / "factors.csv", factors)
        skipped = [{"ngram": f, "reason": "absent from corpus"} for f in absent]
        _write_json(ctx.out / "factors_skipped.json", skipped)

    params = {"exclude_targets": cfg.exclude_target_articles,
              "targets": sorted(cfg.target_keywords),
              "denominator": cfg.factor_denominator,
              "window": [cfg.window_start, cfg.window_end]}
    return _execute_stage(ctx, "factors", inputs, params, outputs, compute)


def _stage_select(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "factors.csv", cfg.panel, cfg.gazetteer, cfg.embeddings]
    outputs = [ctx.out / "screening.csv", ctx.out / "retained.json", ctx.out / "clusters.json"]

    def compute():
        gaz = ctx.gazetteer()
        ipc, _, _, _ = panel_mod.load_panel_csv(cfg.panel, gaz)
        by_feature: dict[str, dict[str, Series]] = {}
        for f in ctx.factors():
            if f.level == "district":
                by_feature.setdefault(f.feature, {})[f.location_id] = f.series
        retained, report = tsstats_mod.select_features(
            sorted(by_feature), ipc, by_feature,
            n_max=cfg.factor_lags, level=cfg.granger_level,
            adf_level=cfg.adf_level, max_d=cfg.adf_max_d, mode=cfg.screening_mode,
        )
        tsstats_mod.write_screening_csv(ctx.out / "screening.csv", report)
        _write_json(ctx.out / "retained.json", {
            w: {"diff_order": meta["diff_order"], "f_stat": meta["result"].f_stat,
                "p_value": meta["result"].p_value, "n_lags": meta["result"].n_lags}
            for w, meta in retained.items()
        })
        if retained:
            k = min(cfg.clusters, len(retained))
            clusters = semantics_mod.cluster_features(
                sorted(retained), ctx.embeddings(), k=k,
                labels=list(cfg.cluster_labels) or None,
            )
        else:
            clusters = []
        semantics_mod.save_clusters(ctx.out / "clusters.json", clusters)

    params = {"n_max": cfg.factor_lags, "level": cfg.granger_level,
              "adf_level": cfg.adf_level, "max_d": cfg.adf_max_d,
              "mode": cfg.screening_mode, "clusters": cfg.clusters,
              "cluster_labels": list(cfg.cluster_labels)}
    return _execute_stage(ctx, "select", inputs, params, outputs, compute)


def _stage_fit(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "retained.json", ctx.out / "clusters.json",
              ctx.out / "factors.csv", cfg.panel, cfg.gazetteer]
    outputs = [ctx.out / "cv_reports.json", ctx.out / "predictions.csv",
               ctx.out / "models.json", ctx.out / "audit.json"]

    def compute():
        specs = ctx.model_specs()
        designs, _ = ctx.model_designs()
        reports = {}
        audits = {}
        for name in sorted(specs):
            design = designs[name]
            violations, _ = panel_mod.audit_no_lookahead(design)
            audits[name] = {"violations": violations, "rows": len(design.rows),
                            "skipped": len(design.skipped)}
            reports[name] = ctx.cv_report(name)
        _write_json(ctx.out / "cv_reports.json", {
            name: {
                "fold_rmse": [r if r is None else float(r) for r in rep.fold_rmse],
                "mean_rmse": rep.mean_rmse,
                "country_rmse": rep.country_rmse,
                "district_rmse": rep.district_rmse,
            }
            for name, rep in reports.items()
        })
        panel_mod.write_predictions_csv(ctx.out / "predictions.csv", reports)
        models = {}
        for kind in panel_mod.MODEL_KINDS:
            result = panel_mod.fit_design(designs[kind], specs[kind], on_collinear="prune")
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
        _write_json(ctx.out / "models.json", models)
        _write_json(ctx.out / "audit.json", audits)

    params = {"folds": cfg.folds, "spatial": cfg.spatial,
              "lasso_compare": cfg.lasso_compare, "lasso_lambda": cfg.lasso_lambda,
              "y_lags": cfg.y_lags, "factor_lags": cfg.factor_lags,
              "delay": cfg.publication_delay}
    return _execute_stage(ctx, "fit", inputs, params, outputs, compute)


def _stage_ablate(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "retained.json", ctx.out / "clusters.json",
              ctx.out / "factors.csv", cfg.panel, cfg.gazetteer]
    outputs = [ctx.out / "ablation.csv"]

    def compute():
        # The fit stage's design, bar and CV, so deltas are against the reported combined CV.
        designs, min_train = ctx.model_designs()
        combined, results = panel_mod.ablate(ctx.panel_dataset(), ctx.model_specs()["combined"],
                                             cfg.folds, min_train_rows=min_train,
                                             design=designs["combined"],
                                             combined=ctx.cv_report("combined"))
        with open(ctx.out / "ablation.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster_id", "label", "district_id", "rmse_delta"])
            for r in results:
                writer.writerow([r.cluster_id, r.label, "ALL", repr(r.mean_delta)])
                for d in sorted(r.district_delta):
                    writer.writerow([r.cluster_id, r.label, d, repr(r.district_delta[d])])

    params = {"folds": cfg.folds, "y_lags": cfg.y_lags, "factor_lags": cfg.factor_lags,
              "delay": cfg.publication_delay, "spatial": cfg.spatial}
    return _execute_stage(ctx, "ablate", inputs, params, outputs, compute)


def _prediction_series(ctx: RunContext, panel) -> tuple[dict, dict, list]:
    """Per-model period series, masked actual series, and the shared period grid."""
    preds = ctx.predictions()
    periods = list(panel.publication_months)
    model_names = [m for m in sorted(preds) if m in panel_mod.MODEL_KINDS]
    series: dict[str, dict[str, tuple[list, np.ndarray]]] = {m: {} for m in model_names}
    actual: dict[str, tuple[list, np.ndarray]] = {}
    for d in sorted(panel.districts):
        covered = np.array([
            all((d, t) in preds[m] for m in model_names) for t in periods
        ])
        obs = panel.ipc_observed.get(d, {})
        actual_vals = np.array([
            obs.get(t, np.nan) if covered[i] else np.nan for i, t in enumerate(periods)
        ])
        actual[d] = (periods, actual_vals)
        for m in model_names:
            vals = np.array([
                preds[m].get((d, t), np.nan) if covered[i] else np.nan
                for i, t in enumerate(periods)
            ])
            series[m][d] = (periods, vals)
    return series, actual, periods


def _stage_classify(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "predictions.csv", ctx.out / "retained.json",
              ctx.out / "clusters.json", ctx.out / "factors.csv", cfg.panel, cfg.gazetteer]
    if cfg.projections:
        ctx._require(cfg.projections, "projections")
        inputs.append(cfg.projections)
    outputs = [ctx.out / "fronts.csv", ctx.out / "events.csv",
               ctx.out / "operating_points.json"]

    def compute():
        panel = ctx.panel_dataset()
        series, actual_series, periods = _prediction_series(ctx, panel)
        actual_events = []
        for d, (ps, vals) in sorted(actual_series.items()):
            actual_events.extend(outbreak_mod.detect_outbreaks(vals, ps, d))
        grid = outbreak_mod.threshold_grid(cfg.grid_min, cfg.grid_max, cfg.grid_step)
        fronts = {}
        points = {}
        event_rows = [(e.district, format_month(e.start), "actual", "", e.severity)
                      for e in actual_events]
        for model, by_district in sorted(series.items()):
            front = outbreak_mod.sweep_pareto(by_district, actual_events, grid=grid,
                                              window=cfg.match_window, period_grid=periods)
            fronts[model] = front
            entry: dict = {"n_actual": len(actual_events)}
            try:
                l, u, recall = outbreak_mod.recall_at_precision(front, cfg.precision_target)
                predicted = []
                for d, (ps, vals) in sorted(by_district.items()):
                    predicted.extend(outbreak_mod.classify(vals, l, u, ps, d))
                s = outbreak_mod.score(predicted, actual_events, cfg.match_window,
                                       grid=periods)
                entry.update({"l": l, "u": u, "recall": recall,
                              "precision": s.precision, "matched": s.matched,
                              "n_predicted": s.n_predicted})
                event_rows.extend(
                    (e.district, format_month(e.start), "predicted", model, e.severity)
                    for e in predicted
                )
            except DataError as exc:
                entry["error"] = str(exc)
            per_country = {}
            countries = sorted({panel.country_of(d) for d in by_district})
            for country in countries:
                sub = {d: s for d, s in by_district.items()
                       if panel.country_of(d) == country}
                sub_actual = [e for e in actual_events
                              if panel.country_of(e.district) == country]
                sub_front = outbreak_mod.sweep_pareto(sub, sub_actual, grid=grid,
                                                      window=cfg.match_window,
                                                      period_grid=periods)
                try:
                    l, u, recall = outbreak_mod.recall_at_precision(sub_front,
                                                                    cfg.precision_target)
                    per_country[country] = {"l": l, "u": u, "recall": recall}
                except DataError as exc:
                    per_country[country] = {"error": str(exc)}
            entry["per_country"] = per_country
            points[model] = entry
        if cfg.projections:
            projections = _load_projections(cfg.projections, panel, actual_series)
            expert = outbreak_mod.expert_baseline(projections, actual_events,
                                                  cfg.match_window, period_grid=periods)
            points["expert"] = {"precision": expert.precision, "recall": expert.recall,
                                "matched": expert.matched,
                                "n_predicted": expert.n_predicted,
                                "n_actual": expert.n_actual}
        outbreak_mod.write_front_csv(ctx.out / "fronts.csv", fronts)
        outbreak_mod.write_events_csv(ctx.out / "events.csv", event_rows)
        _write_json(ctx.out / "operating_points.json", points)

    params = {"grid": [cfg.grid_min, cfg.grid_max, cfg.grid_step],
              "precision_target": cfg.precision_target, "window": cfg.match_window}
    return _execute_stage(ctx, "classify", inputs, params, outputs, compute)


def _load_projections(path, panel, actual_series):
    rows: dict[str, dict[int, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["district_id"], {})[parse_month(row["month"])] = float(
                row["projected_phase"]
            )
    out = {}
    for d, (periods, actual_vals) in actual_series.items():
        got = rows.get(d, {})
        # Mask projections to the same evaluation coverage as the models.
        vals = np.array([
            got.get(t, np.nan) if not np.isnan(actual_vals[i]) else np.nan
            for i, t in enumerate(periods)
        ])
        out[d] = (periods, vals)
    return out


def _stage_validate(ctx: RunContext):
    cfg = ctx.cfg
    inputs = [ctx.out / "retained.json", ctx.out / "factors.csv", cfg.panel, cfg.gazetteer]
    outputs = [ctx.out / "associations.csv", ctx.out / "association_percentiles.json"]

    def compute():
        panel = ctx.panel_dataset()
        rows, percentiles = panel_mod.validate_factors(panel)
        with open(ctx.out / "associations.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["traditional_factor", "news_factor", "spearman_r",
                             "n_districts"])
            for r in rows:
                writer.writerow([r.indicator, r.feature, repr(r.spearman_r), r.n_districts])
        pct_rows = []
        for kind, table in sorted(percentiles.items()):
            for name, by_district in sorted(table.items()):
                for d, v in sorted(by_district.items()):
                    pct_rows.append({"kind": kind, "name": name, "district": d,
                                     "percentile": v})
        _write_json(ctx.out / "association_percentiles.json", pct_rows)

    params = {}
    return _execute_stage(ctx, "validate", inputs, params, outputs, compute)


def _stage_report(ctx: RunContext):
    from .report import build_report

    cfg = ctx.cfg
    ctx._require(cfg.corpus, "corpus")
    ctx._require(cfg.embeddings, "embeddings")
    inputs = [ctx.out / "cv_reports.json", ctx.out / "predictions.csv",
              ctx.out / "fronts.csv", ctx.out / "events.csv",
              ctx.out / "operating_points.json", ctx.out / "ablation.csv",
              ctx.out / "retained.json", ctx.out / "clusters.json",
              ctx.out / "factors.csv", cfg.panel, cfg.gazetteer, cfg.corpus, cfg.embeddings]
    report_dir = ctx.out / "report"
    outputs = [
        report_dir / "rmse_by_country.csv",
        report_dir / "outbreak_counts.csv",
        report_dir / "episodes.csv",
        report_dir / "cluster_correlation.csv",
        report_dir / "coverage.csv",
        report_dir / "ablation_deltas.csv",
        report_dir / "feature_edges.csv",
        report_dir / "factor_percentiles.csv",
    ]

    def compute():
        build_report(ctx)

    params = {"precision_target": cfg.precision_target, "match_window": cfg.match_window}
    return _execute_stage(ctx, "report", inputs, params, outputs, compute)


_STAGE_FUNCS = {
    "extract": _stage_extract,
    "expand": _stage_expand,
    "factors": _stage_factors,
    "select": _stage_select,
    "fit": _stage_fit,
    "ablate": _stage_ablate,
    "classify": _stage_classify,
    "validate": _stage_validate,
    "report": _stage_report,
}


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
