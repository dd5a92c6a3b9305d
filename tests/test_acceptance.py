"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Run with -s to see the per-criterion lines.
"""

import csv
import json
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from newswarn.config import load_config
from newswarn.months import parse_month, publication_months
from newswarn.outbreak import (OutbreakEvent, ParetoPoint, classify, detect_outbreaks,
                               score, sweep_pareto, threshold_grid)
from newswarn.panel import (ModelSpec, audit_no_lookahead, build_design,
                            cross_validate_design, fit_design, min_train_rows, validate_factors)
from newswarn.pipeline import RunContext, run_pipeline
from newswarn.semantics import wmd
from newswarn.synth import SyntheticSpec, generate_synthetic
from newswarn.tsstats import adf_test, panel_granger

from conftest import (difference_until_stationary, embedding_table, lasso_kkt_residual, lasso_r,
                      make_panel, make_panel_and_factors, plant_adl_response,
                      planted_coefficients)
from test_panel import assert_fits_equal_dummy_fits
from test_semantics import brute_force_wmd
from test_outbreak import brute_force_front

ACCEPTANCE_SEED = 7


def announce(criterion: int, ok: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Criterion 7's synthetic run: 40 districts, 120 months, 5 planted features."""
    out = tmp_path_factory.mktemp("acceptance")
    bundle = generate_synthetic(SyntheticSpec(), seed=ACCEPTANCE_SEED, out_dir=out)
    cfg = load_config(bundle["config"])
    started = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(cfg)
    elapsed = time.time() - started
    ctx = RunContext(cfg=cfg, out=Path(cfg.output))
    return bundle, cfg, ctx, elapsed


def test_criterion_1_wmd_oracle_and_metric_axioms():
    started = time.time()
    rng = np.random.default_rng(101)
    vocab = {f"w{i:02d}": rng.normal(0.0, 2.0, 8) for i in range(30)}
    table = embedding_table(**vocab)
    words = sorted(vocab)

    worst = 0.0
    for _ in range(200):
        a = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
        b = list(rng.choice(words, size=rng.integers(1, 4), replace=False))
        worst = max(worst, abs(wmd(a, b, table) - brute_force_wmd(a, b, table)))

    axiom_violations = 0
    for _ in range(1000):
        phrases = [list(rng.choice(words, size=rng.integers(1, 4), replace=False))
                   for _ in range(3)]
        dab = wmd(phrases[0], phrases[1], table)
        dba = wmd(phrases[1], phrases[0], table)
        dbc = wmd(phrases[1], phrases[2], table)
        dac = wmd(phrases[0], phrases[2], table)
        daa = wmd(phrases[0], phrases[0], table)
        ok = (
            abs(dab - dba) <= 1e-9
            and dab >= 0.0
            and daa <= 1e-12
            and dac <= dab + dbc + 1e-9
            and ((set(phrases[0]) == set(phrases[1])) == (dab <= 1e-9))
        )
        axiom_violations += not ok
    elapsed = time.time() - started
    announce(
        1,
        worst <= 1e-6 and axiom_violations == 0 and elapsed < 10.0,
        f"oracle gap {worst:.2e} (<=1e-6), axiom violations {axiom_violations}/1000, "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_2_granger_power_and_size():
    started = time.time()
    rng = np.random.default_rng(202)

    def run_procedure(y, x, n_max=4):
        xs, _ = difference_until_stationary(x, max_d=2, max_lag=6)
        xv = np.asarray(xs)
        yv = np.asarray(y)[-xv.size:]
        return panel_granger({0: yv}, {0: xv}, n_max=n_max, level=0.01)

    detected = 0
    power_reps = 200
    for _ in range(power_reps):
        T = 300
        x = rng.normal(0, 1, T)
        y = np.zeros(T)
        for t in range(2, T):
            y[t] = 0.5 * y[t - 1] + 0.8 * x[t - 2] + rng.normal(0, 1)
        detected += run_procedure(y, x).decision
    power = detected / power_reps

    rejected = 0
    null_reps = 500
    for _ in range(null_reps):
        T = 300
        x = np.zeros(T)
        y = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.3 * x[t - 1] + rng.normal(0, 1)
            y[t] = 0.5 * y[t - 1] + rng.normal(0, 1)
        rejected += run_procedure(y, x).decision
    size = rejected / null_reps
    elapsed = time.time() - started
    announce(
        2,
        power >= 0.95 and size <= 0.03 and elapsed < 60.0,
        f"power {power:.3f} (>=0.95), null rejection {size:.3f} (<=0.03), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_3_adf_calibration():
    started = time.time()
    rng = np.random.default_rng(303)
    walk_flagged = 0
    noise_flagged = 0
    reps = 500
    for _ in range(reps):
        walk = np.cumsum(rng.normal(0, 1, 200))
        noise = rng.normal(0, 1, 200)
        walk_flagged += not adf_test(walk, max_lag=6).stationary
        noise_flagged += adf_test(noise, max_lag=6).stationary
    elapsed = time.time() - started
    announce(
        3,
        walk_flagged / reps >= 0.90 and noise_flagged / reps >= 0.90 and elapsed < 30.0,
        f"random walks non-stationary {walk_flagged / reps:.3f} (>=0.90), "
        f"white noise stationary {noise_flagged / reps:.3f} (>=0.90), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_4_ols_lasso_correctness():
    rng = np.random.default_rng(404)
    panel = make_panel(n_districts=6, months=120, features=("alpha", "beta"))
    spec = ModelSpec(kind="combined")
    coef = planted_coefficients(panel, spec, rng)
    plant_adl_response(panel, spec, coef)
    result = fit_design(build_design(panel, spec), spec)
    fitted = result.coefficients()
    recovery_gap = max(abs(fitted[name] - value) for name, value in coef.items())

    X = rng.normal(0, 1, (20, 5))
    y = X @ np.array([2.0, -1.0, 0.0, 0.0, 0.5]) + rng.normal(0, 0.1, 20)
    penalized = np.ones(5, dtype=bool)
    kkt_worst = 0.0
    for lam in (0.01, 0.1, 0.5):
        beta, _ = lasso_r(X, y, lam)
        kkt_worst = max(kkt_worst, lasso_kkt_residual(X, y, beta, lam, penalized))
    beta0, _ = lasso_r(X, y, 0.0)
    ols_gap = float(np.max(np.abs(beta0 - np.linalg.lstsq(X, y, rcond=None)[0])))
    announce(
        4,
        recovery_gap <= 1e-6 and kkt_worst <= 1e-5 and ols_gap <= 1e-6,
        f"noise-free recovery {recovery_gap:.2e} (<=1e-6), lasso KKT {kkt_worst:.2e} "
        f"(<=1e-5), lasso(0) vs OLS {ols_gap:.2e} (<=1e-6)",
    )


def test_criterion_5_pareto_oracle_equality():
    rng = np.random.default_rng(505)
    grid = threshold_grid()
    mismatches = 0
    panels = 0
    while panels < 20:
        preds = {}
        actual = []
        for d in range(10):
            name = f"d{d}"
            phases = rng.choice([1, 2, 2, 3, 3, 4], size=16).astype(float)
            actual.extend(detect_outbreaks(phases, district=name))
            noisy = np.clip(phases + rng.normal(0, 0.6, 16), 1, 5)
            preds[name] = noisy
        if not actual:
            continue
        panels += 1
        points = []
        for l in grid:
            for u in grid:
                if l >= u:
                    continue
                predicted = []
                for name, vals in sorted(preds.items()):
                    predicted.extend(classify(vals, l, u, name))
                s = score(predicted, actual)
                if s.precision is None or s.recall is None:
                    continue
                points.append(ParetoPoint(l, u, s.precision, s.recall))
        oracle = brute_force_front(points)
        front = sweep_pareto(preds, actual, grid=grid)
        mismatches += front != oracle
    announce(5, mismatches == 0, f"front == exhaustive dominance filter on "
                                 f"{panels}/20 seeded panels (mismatches {mismatches})")


def test_criterion_6_outbreak_definition_fixtures():
    checks = []
    events = detect_outbreaks([2, 2, 3, 3, 2])
    checks.append([(e.start, e.severity) for e in events] == [(2, 3.0)])
    checks.append(detect_outbreaks([2, 3, 2, 3, 2]) == [])
    events = detect_outbreaks([1, 2, 3, 4, 5])
    checks.append([(e.start, e.severity) for e in events] == [(2, 5.0)])
    events = classify([2.0, 3.2, 3.3], l=2.2, u=3.1)
    checks.append([e.start for e in events] == [1])
    checks.append(classify([2.5, 3.5, 3.5], l=2.2, u=3.1) == [])
    checks.append(classify([2.0, 3.2, 3.3], l=2.2, u=5.0) == [])
    multi = detect_outbreaks([2, 3, 3, 2, 2, 3, 4, 3, 1])
    checks.append([(e.start, e.severity) for e in multi] == [(1, 3.0), (5, 4.0)])
    severities = [e.severity for e in (
        detect_outbreaks([2, 3, 3, 2, 2, 2]) + detect_outbreaks([1, 4, 5, 2, 2, 2])
        + detect_outbreaks([2, 2, 3, 4, 2, 2]))]
    checks.append(sorted(severities) == [3.0, 4.0, 5.0])
    announce(6, all(checks),
             f"{sum(checks)}/{len(checks)} hand-built phase fixtures exact")


def test_criterion_7_end_to_end_planted_recovery(planted_run):
    bundle, cfg, ctx, elapsed = planted_run
    truth = bundle["truth"]
    out = Path(cfg.output)
    retained = set(json.loads((out / "retained.json").read_text()))
    planted = {p["ngram"] for p in truth["planted"]}
    decoys = set(truth["decoys"])
    n_planted = len(planted & retained)
    n_decoy_fp = len(decoys & retained)

    cv = json.loads((out / "cv_reports.json").read_text())
    reduction = 1.0 - cv["combined"]["mean_rmse"] / cv["baseline"]["mean_rmse"]

    points = json.loads((out / "operating_points.json").read_text())
    combined_recall = points["combined"].get("recall", 0.0)
    baseline_recall = points["baseline"].get("recall", 0.0)
    gap = combined_recall - baseline_recall

    ok = (
        n_planted >= 4
        and n_decoy_fp <= 0.05 * len(decoys)
        and reduction >= 0.20
        and gap >= 0.15
        and elapsed < 300.0
    )
    announce(
        7,
        ok,
        f"(a) planted retained {n_planted}/5, decoy FPs {n_decoy_fp}/{len(decoys)} "
        f"(<=5%); (b) RMSE reduction {reduction:.1%} (>=20%); (c) recall at 80% "
        f"precision: combined {combined_recall:.3f} vs baseline {baseline_recall:.3f}, "
        f"gap {gap:.3f} (>=0.15); runtime {elapsed:.0f}s (<300s)",
    )


def test_criterion_8_ablation_consistency(planted_run):
    bundle, cfg, ctx, _ = planted_run
    out = Path(cfg.output)
    panel = ctx.panel_dataset()
    spec = ModelSpec(kind="combined", y_lags=cfg.y_lags, factor_lags=cfg.factor_lags,
                     delay=cfg.publication_delay)
    design = build_design(panel, spec)
    bar = min_train_rows([design], panel, cfg.folds)
    # The run's baseline model, built apart from ``design``: its columns of the
    # run's one design, whose matrix equals ``design``'s cell for cell.
    base_spec = ModelSpec(kind="baseline", y_lags=cfg.y_lags,
                          factor_lags=cfg.factor_lags, delay=cfg.publication_delay)
    base_design = ctx.model_designs()[0]["baseline"]
    keep = [k for k, c in enumerate(design.columns) if c.feature is None]
    stripped_design = replace(design, columns=tuple(design.columns[k] for k in keep),
                              cols=tuple(design.cols[k] for k in keep))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stripped = cross_validate_design(stripped_design, spec, panel,
                                         cfg.folds, min_train_rows=bar)
        baseline = cross_validate_design(base_design, base_spec,
                                         panel, cfg.folds, min_train_rows=bar)
    exact = (stripped_design.columns == build_design(panel, base_spec).columns
             and stripped.fold_rmse == baseline.fold_rmse
             and stripped.mean_rmse == baseline.mean_rmse)

    clusters = {c["cluster_id"]: c["members"]
                for c in json.loads((out / "clusters.json").read_text())}
    drivers = {p["ngram"] for p in bundle["truth"]["planted"] if p["effect"] >= 2.0}
    deltas = {}
    with open(out / "ablation.csv") as fh:
        for row in csv.DictReader(fh):
            if row["district_id"] == "ALL":
                deltas[int(row["cluster_id"])] = float(row["rmse_delta"])
    driver_deltas = {
        cid: deltas[cid]
        for cid, members in clusters.items()
        if set(members) <= drivers and cid in deltas
    }
    positive = bool(driver_deltas) and all(v > 0.0 for v in driver_deltas.values())
    announce(
        8,
        exact and positive,
        f"all-clusters-removed == baseline exactly: {exact}; planted-cluster deltas "
        + ", ".join(f"{clusters[c][0]}={v:+.4f}" for c, v in sorted(driver_deltas.items()))
        + " (all > 0)",
    )


def test_the_fits_absorb_the_district_intercepts_exactly(planted_run):
    # Frisch-Waugh-Lovell on the acceptance designs, with the spatial and lasso
    # variants on: each CV window's fit, and the fit on every row, equals the
    # fit with one 0/1 column per district intercept.
    _, cfg, _, _ = planted_run
    ctx = RunContext(cfg=replace(cfg, spatial=True, lasso_compare=True), out=Path(cfg.output))
    designs, _ = ctx.model_designs()
    specs = ctx.model_specs()
    assert len(specs) == 9
    for name, spec in sorted(specs.items()):
        assert assert_fits_equal_dummy_fits(designs[name], spec, ctx.panel_dataset(),
                                            cfg.folds) >= 5, name


def test_criterion_9_no_lookahead_audit(planted_run):
    bundle, cfg, ctx, _ = planted_run
    out = Path(cfg.output)
    audits = json.loads((out / "audit.json").read_text())
    stage_clean = all(a["violations"] == [] for a in audits.values())
    panel = ctx.panel_dataset()
    total_rows = 0
    worst_margin = None
    clean = True
    for kind in ("baseline", "news", "combined"):
        spec = ModelSpec(kind=kind, y_lags=cfg.y_lags, factor_lags=cfg.factor_lags,
                         delay=cfg.publication_delay)
        design = build_design(panel, spec)
        clean = clean and not audit_no_lookahead(design)
        total_rows += len(design.rows)
        # every row's newest regressor sits the design's smallest dated offset before it
        margin = min(c.offset for c in design.columns)
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    announce(
        9,
        stage_clean and clean,
        f"0 violations across {total_rows} design rows (all models); newest regressor "
        f"sits {worst_margin} months before its prediction (>=3)",
    )


def test_criterion_10_spearman_association_replica():
    panel, factors = make_panel_and_factors(n_districts=50, features=("conflictish", "other"),
                                            seed=1010)
    rng = np.random.default_rng(1011)
    months = panel.end - panel.start + 1
    for d in sorted(panel.districts):
        level = rng.uniform(0.5, 5.0)
        vals = np.abs(rng.normal(0, 0.2, months))
        vals[rng.integers(0, months)] = level
        panel.traditional["conflict_fatalities"][panel.rows[d]] = vals
        news_peak = (level ** 1.3) / 10.0 + rng.normal(0, 0.02)
        fvals = np.abs(rng.normal(0, 0.002, months))
        fvals[rng.integers(0, months)] = float(np.clip(news_peak, 0.001, 1.0))
        factors.values[factors.features.index("conflictish"), factors.locations.index(d)] = fvals
    rows, _ = validate_factors(panel, factors)
    row = next(r for r in rows if r.indicator == "conflict_fatalities")
    announce(
        10,
        row.feature == "conflictish" and row.spearman_r >= 0.89,
        f"selected {row.feature!r} with r_S={row.spearman_r:.3f} (>=0.89) "
        f"across {row.n_districts} districts",
    )
