"""Report bundle: the CSV tables a run emits for analysis and plotting.

Per-country model errors, outbreak counts by severity, per-episode series
extracts, cluster correlation, coverage splits, and the feature-similarity
edge list. Series values are emitted raw and percentile-transformed
(rank/(N-1) within each series); smoothed columns carry a 3-month trailing
mean and are labeled as such.
"""

from __future__ import annotations

import json

import numpy as np

from . import outbreak as outbreak_mod
from . import semantics as semantics_mod
from .artifacts import write_csv
from .months import format_month
from .panel import MODEL_KINDS, percentile_ranks

EPISODE_WINDOW = 8  # months either side of an outbreak start


def trailing_mean(values: np.ndarray) -> np.ndarray:
    """3-month trailing mean; the first two months average the months so far.

    Each window is summed from 0.0 in month order, as ``np.mean`` sums it, so
    every value equals ``np.mean`` of its window bit for bit, -0.0 included.
    """
    v = np.asarray(values, dtype=float)
    return np.concatenate([0.0 + v[:1], (0.0 + v[:1] + v[1:2]) / 2,
                           (0.0 + v[:-2] + v[1:-1] + v[2:]) / 3])


def _severity_band(severity: float) -> str:
    return "phase45" if severity >= 4.0 else "phase3"


def build_report(ctx) -> None:
    cfg = ctx.cfg
    panel = ctx.panel_dataset()

    # Cross-validated RMSE per model and country.
    with open(ctx.read("cv_reports.json"), "r", encoding="utf-8") as fh:
        cv = json.load(fh)
    write_csv(ctx.write("report/rmse_by_country.csv"), ["model", "country", "rmse"], (
        [model, country, rmse] for model in sorted(cv)
        for country, rmse in [("ALL", cv[model]["mean_rmse"]),
                              *sorted(cv[model]["country_rmse"].items())]))

    # Observed vs predicted outbreak counts by severity band.
    actual_events, predicted_by_model = ctx.events()
    hits_by_model = {  # (district, start) of each actual outbreak a model's events match
        model: {(d, a) for d, _, a in
                outbreak_mod.match_events(events, actual_events, cfg.match_window)}
        for model, events in predicted_by_model.items()
    }
    counts = []
    for band in ("all", "phase3", "phase45"):
        in_band = [e for e in actual_events
                   if band == "all" or _severity_band(e.severity) == band]
        counts.append(["observed", band, len(in_band), len(in_band)])
        for model in sorted(predicted_by_model):
            n = sum(1 for e in in_band if (e.district, e.start) in hits_by_model[model])
            counts.append([model, band, len(in_band), n])
    write_csv(ctx.write("report/outbreak_counts.csv"),
              ["model", "band", "observed", "predicted"], counts)

    # Episode extracts: phase, predictions, and
    # cluster-aggregated factors (mean of member factors) around each outbreak.
    clusters = ctx.clusters()
    factors = ctx.factors()
    start = factors.start
    row = {w: f for f, w in enumerate(factors.features)}
    preds = {m: grid for m, grid in ctx.predictions().items() if m in MODEL_KINDS}
    g0 = panel.grid_start
    episodes = []
    for event in actual_events:
        d, month = event.district, panel.publication_months[event.start]
        t0 = month - EPISODE_WINDOW
        t1 = month + EPISODE_WINDOW
        if d not in panel.districts:
            continue
        # Series as (months, values): the window's months with a phase, and the models'
        # predictions among them.
        r, j0 = panel.rows[d], max(t0 - g0, 0)
        cols = j0 + np.flatnonzero(np.isfinite(panel.ipc[r, j0 : t1 - g0 + 1]))
        rows = {"ipc": (g0 + cols, panel.ipc[r, cols])}
        for model, grid in preds.items():
            have = cols[np.isfinite(grid[r, cols])]
            if have.size:
                rows[f"pred_{model}"] = (g0 + have, grid[r, have])
        span = np.arange(max(t0 - start, 0), min(t1 - start + 1, factors.values.shape[2]))
        for cluster in clusters:
            members = factors.values[[row[w] for w in cluster.members], r]
            pct = percentile_ranks(members.mean(axis=0))
            rows[f"cluster_{cluster.cluster_id}_pct"] = (start + span, pct[span])
        for name in sorted(rows):
            months, vals = rows[name]
            smooth = trailing_mean(vals)
            episodes.extend([d, format_month(month), format_month(t), name, vals[i],
                             smooth[i]] for i, t in enumerate(months))
    write_csv(ctx.write("report/episodes.csv"),
              ["district", "event_start", "month", "series", "value", "value_sm3"], episodes)

    # Correlations within vs across clusters, on the
    # cross-district mean factor series.
    districts = [i for i, level in enumerate(factors.levels) if level == "district"]
    correlation = []
    if clusters:
        mean_factor = {w: factors.values[row[w], districts].mean(axis=0)
                       for w in panel.feature_order}
        correlation.append(semantics_mod.cluster_validation(clusters, mean_factor))
    write_csv(ctx.write("report/cluster_correlation.csv"),
              ["intra_cluster_corr", "inter_cluster_corr"], correlation)

    # News coverage split by outbreak prediction success of
    # the combined model.
    combined_hits = hits_by_model.get("combined", set())
    with open(ctx.read("retained_coverage.json"), "r", encoding="utf-8") as fh:
        articles = json.load(fh)  # the select stage's count, per gazetteer province
    coverage = []
    for prov in sorted({d.province_id for d in panel.districts.values()}):
        events = [e for e in actual_events if panel.province_of(e.district) == prov]
        all_predicted = bool(events) and all(
            (e.district, e.start) in combined_hits for e in events
        )
        coverage.append([prov, articles[prov], len(events), int(all_predicted)])
    write_csv(ctx.write("report/coverage.csv"),
              ["province", "articles_with_features", "n_outbreaks", "all_predicted"], coverage)

    # Feature-similarity edge list for external layout.
    retained = list(panel.feature_order)
    edges = semantics_mod.similarity_edges(retained, ctx.embeddings()) if retained else []
    write_csv(ctx.write("report/feature_edges.csv"), ["feature_a", "feature_b", "distance"],
              edges)

    # Percentile-transformed country-level factor series.
    percentiles = []
    for w in retained:
        for i, loc in enumerate(factors.locations):
            if factors.levels[i] != "country":
                continue
            values = factors.values[row[w], i]
            pct = percentile_ranks(values)
            smooth = trailing_mean(pct)
            percentiles.extend([w, loc, format_month(start + t), v, pct[t], smooth[t]]
                               for t, v in enumerate(values))
    write_csv(ctx.write("report/factor_percentiles.csv"),
              ["feature", "location_id", "month", "value", "percentile", "percentile_sm3"],
              percentiles)
