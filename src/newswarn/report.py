"""Report bundle: the CSV tables a run emits for analysis and plotting.

Per-country model errors, outbreak counts by severity, per-episode series
extracts, cluster correlation, coverage splits, ablation deltas, and the
feature-similarity edge list. Series values are emitted raw and
percentile-transformed (rank/(N-1) within each series); smoothed columns
carry a 3-month trailing mean and are labeled as such.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict

import numpy as np

from . import corpus as corpus_mod
from . import outbreak as outbreak_mod
from . import semantics as semantics_mod
from .months import format_month, parse_month
from .panel import MODEL_KINDS, percentile_ranks
from .series import Series

EPISODE_WINDOW = 8  # months either side of an outbreak start


def trailing_mean(values: np.ndarray, width: int = 3) -> np.ndarray:
    out = np.empty(values.size)
    for i in range(values.size):
        out[i] = float(np.mean(values[max(0, i - width + 1) : i + 1]))
    return out


def _read_events(path):
    actual = []
    predicted = defaultdict(list)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            event = outbreak_mod.OutbreakEvent(
                district=row["district_id"],
                start=parse_month(row["period"]),
                severity=float(row["severity"]),
            )
            if row["kind"] == "actual":
                actual.append(event)
            else:
                predicted[row["model"]].append(event)
    return actual, predicted


def _open_table(ctx, name: str):
    """Open report table ``name`` for writing, as an output of the report stage."""
    return open(ctx.write(f"report/{name}"), "w", encoding="utf-8", newline="")


def _severity_band(severity: float) -> str:
    return "phase45" if severity >= 4.0 else "phase3"


def build_report(ctx) -> None:
    cfg = ctx.cfg
    panel = ctx.panel_dataset()
    periods = list(panel.publication_months)

    # Cross-validated RMSE per model and country.
    with open(ctx.read("cv_reports.json"), "r", encoding="utf-8") as fh:
        cv = json.load(fh)
    with _open_table(ctx, "rmse_by_country.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "country", "rmse"])
        for model in sorted(cv):
            writer.writerow([model, "ALL", repr(cv[model]["mean_rmse"])])
            for country in sorted(cv[model]["country_rmse"]):
                writer.writerow([model, country, repr(cv[model]["country_rmse"][country])])

    # Observed vs predicted outbreak counts by severity band.
    actual_events, predicted_by_model = _read_events(ctx.read("events.csv"))
    matched_by_model = {
        model: set(outbreak_mod.match_events(events, actual_events, cfg.match_window,
                                             grid=periods))
        for model, events in predicted_by_model.items()
    }
    with _open_table(ctx, "outbreak_counts.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "band", "observed", "predicted"])
        bands = ("all", "phase3", "phase45")
        for band in bands:
            in_band = [e for e in actual_events
                       if band == "all" or _severity_band(e.severity) == band]
            writer.writerow(["observed", band, len(in_band), len(in_band)])
            for model in sorted(predicted_by_model):
                hits = {(d, a) for d, _, a in matched_by_model[model]}
                n = sum(1 for e in in_band if (e.district, e.start) in hits)
                writer.writerow([model, band, len(in_band), n])

    # Episode extracts: phase, predictions, and
    # cluster-aggregated factors (mean of member factors) around each outbreak.
    clusters = semantics_mod.load_clusters(ctx.read("clusters.json"))
    preds = {m: table for m, table in ctx.predictions().items() if m in MODEL_KINDS}
    with _open_table(ctx, "episodes.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["district", "event_start", "month", "series", "value",
                         "value_sm3"])
        for event in actual_events:
            d = event.district
            t0 = event.start - EPISODE_WINDOW
            t1 = event.start + EPISODE_WINDOW
            ipc = panel.ipc.get(d)
            if ipc is None:
                continue
            window = [t for t in range(t0, t1 + 1) if ipc.covers(t)]
            rows: dict[str, dict[int, float]] = {"ipc": {t: ipc.at(t) for t in window}}
            for model, table in preds.items():
                got = {t: table[(d, t)] for t in window if (d, t) in table}
                if got:
                    rows[f"pred_{model}"] = got
            for cluster in clusters:
                member_series = []
                for w in cluster.members:
                    s = panel.factors_raw.get(w, {}).get("district", {}).get(d)
                    if s is not None:
                        member_series.append(s)
                if not member_series:
                    continue
                lo = max(s.start for s in member_series)
                hi = min(s.end for s in member_series)
                if hi < lo:
                    continue
                mean_vals = np.stack([s.window(lo, hi) for s in member_series]).mean(axis=0)
                pct = percentile_ranks(mean_vals)
                rows[f"cluster_{cluster.cluster_id}_pct"] = {
                    lo + i: float(pct[i]) for i in range(pct.size) if t0 <= lo + i <= t1
                }
            for name in sorted(rows):
                months = sorted(rows[name])
                vals = np.array([rows[name][t] for t in months])
                smooth = trailing_mean(vals)
                for i, t in enumerate(months):
                    writer.writerow([d, format_month(event.start), format_month(t),
                                     name, repr(float(vals[i])), repr(float(smooth[i]))])

    # Correlations within vs across clusters, on the
    # cross-district mean factor series.
    mean_factor: dict[str, Series] = {}
    for w in panel.feature_order:
        per = panel.factors_raw.get(w, {}).get("district", {})
        if not per:
            continue
        lo = max(s.start for s in per.values())
        hi = min(s.end for s in per.values())
        if hi < lo:
            continue
        mean_factor[w] = Series(lo, np.stack(
            [s.window(lo, hi) for s in per.values()]).mean(axis=0))
    with _open_table(ctx, "cluster_correlation.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["intra_cluster_corr", "inter_cluster_corr"])
        if clusters and mean_factor:
            usable = [
                semantics_mod.FeatureCluster(
                    c.cluster_id, c.label,
                    tuple(m for m in c.members if m in mean_factor),
                )
                for c in clusters
            ]
            usable = [c for c in usable if c.members]
            intra, inter = semantics_mod.cluster_validation(usable, mean_factor)
            writer.writerow([repr(intra), repr(inter)])

    # News coverage split by outbreak prediction success of
    # the combined model.
    with open(ctx.read("retained.json"), "r", encoding="utf-8") as fh:
        retained = sorted(json.load(fh))
    combined_hits = {(d, a) for d, _, a in matched_by_model.get("combined", set())}
    provinces = sorted({d.province_id for d in panel.districts.values()})
    articles = corpus_mod.feature_coverage(ctx.corpus(), retained, ctx.gazetteer(), provinces)
    with _open_table(ctx, "coverage.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["province", "articles_with_features", "n_outbreaks",
                         "all_predicted"])
        for prov, n_articles in zip(provinces, articles):
            events = [e for e in actual_events
                      if panel.province_of(e.district) == prov]
            all_predicted = bool(events) and all(
                (e.district, e.start) in combined_hits for e in events
            )
            writer.writerow([prov, n_articles, len(events), int(all_predicted)])

    # Per-cluster ablation deltas.
    with open(ctx.read("ablation.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with _open_table(ctx, "ablation_deltas.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "label", "district_id", "rmse_delta"])
        for row in rows:
            writer.writerow([row["cluster_id"], row["label"], row["district_id"],
                             row["rmse_delta"]])

    # Feature-similarity edge list for external layout.
    edges = semantics_mod.similarity_edges(retained, ctx.embeddings()) if retained else []
    with _open_table(ctx, "feature_edges.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_a", "feature_b", "distance"])
        for a, b, dist in edges:
            writer.writerow([a, b, repr(dist)])

    # Percentile-transformed country-level factor series.
    with _open_table(ctx, "factor_percentiles.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "location_id", "month", "value", "percentile",
                         "percentile_sm3"])
        for w in retained:
            by_country = panel.factors_raw.get(w, {}).get("country", {})
            for loc in sorted(by_country):
                s = by_country[loc]
                pct = percentile_ranks(s.values)
                smooth = trailing_mean(pct)
                for i, (t, v) in enumerate(s.items()):
                    writer.writerow([w, loc, format_month(t), repr(v),
                                     repr(float(pct[i])), repr(float(smooth[i]))])
