import csv
import ctypes
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newswarn
from newswarn import corpus as corpus_mod
from newswarn import panel as panel_mod
from newswarn import pipeline
from newswarn.artifacts import read_csv, write_csv
from newswarn.cli import main as cli_main
from newswarn.config import _PATH_KEYS, PipelineConfig, load_config, save_config
from newswarn.errors import ConfigError, DataError
from newswarn.months import format_month, parse_month
from newswarn.pipeline import STAGE_ORDER, RunContext, run_pipeline
from newswarn.report import trailing_mean
from newswarn.synth import PlantedFeature, SyntheticSpec, generate_synthetic

from conftest import (TINY, assert_exact_shares, assert_same_bytes, average_ranks_loop,
                      dummy_columns, lasso_kkt_residual, lasso_objective, lasso_rows)

SMALL = dict(districts=10, months=60, decoys=6, articles_per_country_month=60,
             countries=2)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quiet_run(cfg, stages=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(cfg, stages)


def manifests(out):
    return {s: json.loads((Path(out) / "manifests" / f"{s}.json").read_text())
            for s in STAGE_ORDER}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    bundle = generate_synthetic(SyntheticSpec(**SMALL), seed=3, out_dir=out)
    cfg = load_config(bundle["config"])
    summary = quiet_run(cfg)
    return bundle, cfg, summary


class TestFullRun:
    def test_all_stages_ran_with_manifests(self, run_dir):
        bundle, cfg, summary = run_dir
        assert summary == {s: "run" for s in STAGE_ORDER}
        for stage in STAGE_ORDER:
            assert (Path(cfg.output) / "manifests" / f"{stage}.json").exists()

    def test_expected_artifacts(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        for name in ("seeds.json", "expanded.json", "features.json", "factors.npy",
                     "factors.json",
                     "screening.csv", "retained.json", "retained_coverage.json", "clusters.json",
                     "cv_reports.json", "predictions.csv", "models.json",
                     "audit.json", "ablation.csv", "fronts.csv", "events.csv",
                     "operating_points.json", "associations.csv"):
            assert (out / name).exists(), name
        report = out / "report"
        for name in ("rmse_by_country.csv", "outbreak_counts.csv", "episodes.csv",
                     "cluster_correlation.csv", "coverage.csv", "feature_edges.csv",
                     "factor_percentiles.csv"):
            assert (report / name).exists(), name

    def test_csv_headers(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        headers = {
            "screening.csv": "feature,F,p,lag_n,differencing_d,decision,reason",
            "predictions.csv": "district_id,month,y_true,y_pred,model",
            "ablation.csv": "cluster_id,label,district_id,rmse_delta",
            "fronts.csv": "l,u,precision,recall,model",
            "events.csv": "district_id,period,kind,model,severity",
            "associations.csv": "traditional_factor,news_factor,spearman_r,n_districts",
            "report/rmse_by_country.csv": "model,country,rmse",
            "report/outbreak_counts.csv": "model,band,observed,predicted",
            "report/episodes.csv": "district,event_start,month,series,value,value_sm3",
            "report/cluster_correlation.csv": "intra_cluster_corr,inter_cluster_corr",
            "report/coverage.csv": "province,articles_with_features,n_outbreaks,all_predicted",
            "report/feature_edges.csv": "feature_a,feature_b,distance",
            "report/factor_percentiles.csv":
                "feature,location_id,month,value,percentile,percentile_sm3",
        }
        assert {p.relative_to(out).as_posix() for p in out.rglob("*.csv")} == set(headers)
        for name, header in headers.items():
            assert (out / name).read_text(encoding="utf-8").splitlines()[0] == header, name

    def test_factor_array_layout(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        values = np.load(out / "factors.npy", allow_pickle=False)
        labels = json.loads((out / "factors.json").read_text())
        features = sorted({r["ngram"] for r in json.loads((out / "features.json").read_text())})
        absent = [r["ngram"] for r in json.loads((out / "factors_skipped.json").read_text())]
        assert labels["features"] == [w for w in features if w not in absent]
        assert labels["start"] == cfg.window_start
        months = parse_month(cfg.window_end) - parse_month(cfg.window_start) + 1
        assert values.dtype.kind == "u"
        assert values.shape == (len(labels["features"]), len(labels["locations"]), months)
        assert len(labels["levels"]) == len(labels["locations"])
        assert np.array(labels["denominators"]).shape == (len(labels["locations"]), months)
        assert "zero_denominator" not in labels

    def test_audit_reports_no_lookahead_violations(self, run_dir):
        _, cfg, _ = run_dir
        audits = json.loads((Path(cfg.output) / "audit.json").read_text())
        assert audits and all(a["violations"] == [] for a in audits.values())

    def test_rerun_is_cached_and_byte_identical(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        files = sorted(p for p in out.rglob("*")
                       if p.is_file() and "manifests" not in p.parts)
        before = {str(p): digest(p) for p in files}
        summary = quiet_run(cfg)
        assert all(status == "cached" for status in summary.values())
        after = {str(p): digest(p) for p in files}
        assert before == after

    def test_stage_isolation_resume(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        target = out / "clusters.json"
        before = digest(target)
        target.unlink()
        summary = quiet_run(cfg)
        # ablate writes the clusters again byte for byte, so report, their reader, stays cached
        assert summary == {s: "run" if s == "ablate" else "cached" for s in STAGE_ORDER}
        assert digest(target) == before

    def test_operating_points_structure(self, run_dir):
        _, cfg, _ = run_dir
        points = json.loads((Path(cfg.output) / "operating_points.json").read_text())
        assert {"baseline", "news", "combined"} <= set(points)
        for model in ("baseline", "news", "combined"):
            entry = points[model]
            assert "per_country" in entry
            assert ("recall" in entry) or ("error" in entry)
        assert "expert" in points  # projections were provided

    def test_report_coverage_lists_all_provinces(self, run_dir):
        bundle, cfg, _ = run_dir
        from newswarn.corpus import load_gazetteer
        gaz = load_gazetteer(bundle["paths"]["gazetteer.csv"])
        with open(Path(cfg.output) / "report" / "coverage.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["province"] for r in rows} == set(gaz.provinces)

    def test_report_coverage_counts_the_retained_features_in_a_fresh_parse(self, run_dir):
        _, cfg, _ = run_dir
        out = Path(cfg.output)
        retained = sorted(json.loads((out / "retained.json").read_text()))
        with open(out / "report" / "coverage.csv") as fh:
            rows = list(csv.DictReader(fh))
        want = corpus_mod.feature_coverage(
            corpus_mod.read_corpus(cfg.corpus, RunContext(cfg=cfg, out=out).window),
            retained, corpus_mod.load_gazetteer(cfg.gazetteer), [r["province"] for r in rows])
        assert retained and any(want)
        assert [int(r["articles_with_features"]) for r in rows] == want

    def test_embedding_edit_reruns_report(self, run_dir):
        _, cfg, _ = run_dir
        edges = Path(cfg.output) / "report" / "feature_edges.csv"
        original = Path(cfg.embeddings).read_bytes()
        before = list(csv.DictReader(edges.read_text().splitlines()))
        header, *lines = original.decode().splitlines()
        scaled = [header] + [
            " ".join([w] + [repr(2.0 * float(x)) for x in rest])
            for w, *rest in (line.split() for line in lines)
        ]
        try:
            Path(cfg.embeddings).write_text("\n".join(scaled) + "\n")
            assert quiet_run(cfg, ["report"]) == {"report": "run"}
            after = list(csv.DictReader(edges.read_text().splitlines()))
        finally:
            Path(cfg.embeddings).write_bytes(original)
            quiet_run(cfg, ["report"])
        assert before
        assert [(r["feature_a"], r["feature_b"]) for r in after] == \
            [(r["feature_a"], r["feature_b"]) for r in before]
        for old, new in zip(before, after):
            assert float(new["distance"]) == pytest.approx(2.0 * float(old["distance"]))

    def test_cluster_label_edit_reruns_only_ablate_and_report(self, run_dir):
        _, cfg, _ = run_dir
        clusters = Path(cfg.output) / "clusters.json"
        relabeled = dataclasses.replace(cfg, cluster_labels=("drought-and-prices",))
        try:
            assert quiet_run(relabeled) == {
                s: "run" if s in ("ablate", "report") else "cached" for s in STAGE_ORDER}
            assert json.loads(clusters.read_text())[0]["label"] == "drought-and-prices"
            ablation = read_csv(Path(cfg.output) / "ablation.csv", "ablation")
            assert ablation.columns["label"][0] == "drought-and-prices"
        finally:
            quiet_run(cfg)

    def test_gazetteer_edit_keeps_expand_cached(self, run_dir):
        # expand reads the corpus without the gazetteer; factors matches locations
        _, cfg, _ = run_dir
        original = Path(cfg.gazetteer).read_bytes()
        gaz = corpus_mod.load_gazetteer(cfg.gazetteer)
        first, *rest = gaz.districts.values()
        aliased = dataclasses.replace(first, aliases=first.aliases + ("unheardof",))
        try:
            write_csv(cfg.gazetteer, corpus_mod.GAZETTEER_COLUMNS, (
                [d.district_id, d.name, "|".join(d.aliases), d.province_id, d.country,
                 d.lat, d.lon] for d in [aliased, *rest]))
            summary = quiet_run(cfg)
        finally:
            Path(cfg.gazetteer).write_bytes(original)
            quiet_run(cfg)
        assert summary == {s: "cached" if s in ("extract", "expand") else "run"
                           for s in STAGE_ORDER}

    def test_models_json_names_columns(self, run_dir):
        _, cfg, _ = run_dir
        models = json.loads((Path(cfg.output) / "models.json").read_text())
        combined = models["combined"]["coefficients"]
        assert any(k.startswith("news[") for k in combined)
        # the intercepts are absorbed in the fit, not columns, and still one per district
        districts = RunContext(cfg=cfg, out=Path(cfg.output)).panel_dataset().districts
        assert [k for k in combined if k.startswith("intercept[")] == [
            f"intercept[{d}]" for d in sorted(districts)]

    def test_no_design_column_or_model_entry_is_a_district_static(self, run_dir):
        # A time-invariant district column lies in the span of the district
        # intercepts, so every OLS fit would drop it; no design has one.
        _, cfg, _ = run_dir
        panel = RunContext(cfg=cfg, out=Path(cfg.output)).panel_dataset()
        names = [c.name for sp in (False, True) for kind in panel_mod.MODEL_KINDS
                 for c in panel_mod.build_design(panel, panel_mod.ModelSpec(
                     kind=kind, spatial=sp, y_lags=cfg.y_lags, factor_lags=cfg.factor_lags,
                     delay=cfg.publication_delay)).columns]
        assert names and not [n for n in names if "static[" in n or "intercept[" in n]
        models = json.loads((Path(cfg.output) / "models.json").read_text())
        entries = [n for m in models.values() for n in [*m["coefficients"], *m["dropped"]]]
        assert entries and not [n for n in entries if "static[" in n]


class TestSkippedDistrictMonths:
    def test_a_district_without_an_indicator_has_no_baseline_rows(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(**SMALL), seed=3, out_dir=tmp_path / "bundle")
        cfg = load_config(bundle["config"])
        header, *lines = Path(cfg.panel).read_text(encoding="utf-8").splitlines()
        columns = header.split(",")
        d, k = columns.index("district_id"), columns.index("rain_mean")
        cells = [line.split(",") for line in lines]
        gone = cells[0][d]
        for row in cells:
            if row[d] == gone:
                row[k] = ""
        Path(cfg.panel).write_text("\n".join([header, *map(",".join, cells)]) + "\n",
                                   encoding="utf-8")
        # min_train_rows caps its bar at the widest design's last training window, which the
        # baseline, a district short, does not reach; shallow lags keep the bar below it
        cfg.y_lags, cfg.factor_lags = 3, 2
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit"])
        ctx = RunContext(cfg, Path(cfg.output))
        panel = ctx.panel_dataset()
        designs, _ = ctx.model_designs()
        assert gone in panel.districts
        assert gone not in {d for d, _ in designs["baseline"].rows}
        assert gone in {d for d, _ in designs["news"].rows}
        # each panel district-month is a design row or a skipped one
        months = panel.end - panel.start + 1
        audits = json.loads((Path(cfg.output) / "audit.json").read_text())
        assert set(audits) == set(designs)
        for name, audit in audits.items():
            assert audit["rows"] == len(designs[name].rows)
            assert audit["skipped"] == len(panel.districts) * months - audit["rows"], name


class TestDerivedManifests:
    @pytest.fixture
    def tiny(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3, out_dir=tmp_path / "bundle")
        cfg = load_config(bundle["config"])
        assert quiet_run(cfg) == {s: "run" for s in STAGE_ORDER}
        return cfg

    def test_an_input_edit_reruns_exactly_the_stages_that_read_it(self, tiny):
        listed = {s: set(m["inputs"]) for s, m in manifests(tiny.output).items()}
        keys = sorted(set().union(*listed.values()) & set(_PATH_KEYS))
        assert keys == ["corpus", "embeddings", "frames_news", "frames_study", "gazetteer",
                        "panel", "projections"]
        # ablate reads the designs fit built, and the embeddings it clusters their features by
        assert listed["ablate"] == listed["fit"] | {"embeddings"}
        for key in keys:
            # A blank last line changes the file's hash but nothing its readers parse,
            # so a stage that reruns rewrites the same outputs and later stages stay cached.
            with open(getattr(tiny, key), "a", encoding="utf-8") as fh:
                fh.write("\n")
            expected = {s: "run" if key in listed[s] else "cached" for s in STAGE_ORDER}
            assert quiet_run(tiny) == expected, key

    def test_select_screens_without_the_clustering_inputs(self, tiny):
        # ablate clusters the retained features, so neither an embeddings edit nor a
        # cluster key edit reruns the screen
        recorded = manifests(tiny.output)
        assert "embeddings" not in recorded["select"]["inputs"]
        assert not {"clusters", "cluster_labels"} & set(recorded["select"]["params"])
        assert {"clusters", "cluster_labels"} <= set(recorded["ablate"]["params"])
        assert "embeddings" in recorded["ablate"]["inputs"]
        assert [Path(p).name for p in recorded["ablate"]["outputs"]] == \
            ["ablation.csv", "clusters.json"]
        with open(tiny.embeddings, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert quiet_run(tiny) == {s: "run" if s in ("expand", "ablate", "report") else "cached"
                                   for s in STAGE_ORDER}

    def test_each_run_file_read_was_written_by_an_earlier_stage(self, tiny):
        recorded = manifests(tiny.output)
        written = set()
        for stage, manifest in recorded.items():
            read = {str(Path(tiny.output) / name) for name in manifest["inputs"]
                    if name not in _PATH_KEYS}
            assert read <= written, stage
            written |= set(manifest["outputs"])
        assert [s for s, m in recorded.items() if "clusters.json" in m["inputs"]] == ["report"]
        assert not {"fronts.csv", "operating_points.json"} & set(recorded["report"]["inputs"])

    def test_every_run_file_is_an_output_of_exactly_one_manifest(self, tiny):
        # A stage rerun is checked by comparing its manifest, which covers only what it lists.
        run = Path(tiny.output)
        listed = [p for m in manifests(tiny.output).values() for p in m["outputs"]]
        files = [str(p) for p in run.rglob("*")
                 if p.is_file() and p.relative_to(run).parts[0] != "manifests"]
        assert sorted(listed) == sorted(files)

    def test_a_byte_identical_corpus_elsewhere_keeps_its_readers_cached(self, tiny, tmp_path):
        copy = tmp_path / "elsewhere" / "corpus.jsonl"
        copy.parent.mkdir()
        shutil.copyfile(tiny.corpus, copy)
        moved = dataclasses.replace(tiny, corpus=str(copy))
        assert quiet_run(moved) == {s: "cached" for s in STAGE_ORDER}
        with open(copy, "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert quiet_run(moved) == {s: "run" if s in ("expand", "factors", "select")
                                    else "cached" for s in STAGE_ORDER}

    def test_a_precision_edit_reruns_classify_and_report_without_parsing_the_corpus(
            self, tiny, monkeypatch):
        corpus_reads = []
        real_read_corpus = corpus_mod.read_corpus

        def count_read_corpus(*args, **kwargs):
            corpus_reads.append(args)
            return real_read_corpus(*args, **kwargs)

        monkeypatch.setattr(corpus_mod, "read_corpus", count_read_corpus)
        edited = dataclasses.replace(tiny, precision_target=0.75)
        assert quiet_run(edited) == {s: "run" if s in ("classify", "report") else "cached"
                                     for s in STAGE_ORDER}
        assert corpus_reads == []
        assert "corpus" not in manifests(tiny.output)["report"]["inputs"]

    def test_unsetting_or_setting_an_optional_input_reruns_its_reader(self, tiny):
        # report reads events.csv, which the projections do not change
        no_projections = dataclasses.replace(tiny, projections="")
        assert quiet_run(no_projections) == {s: "run" if s == "classify" else "cached"
                                             for s in STAGE_ORDER}
        assert manifests(tiny.output)["classify"]["inputs"]["projections"] is None
        assert quiet_run(no_projections, ["classify"]) == {"classify": "cached"}
        assert quiet_run(tiny, ["classify"]) == {"classify": "run"}

        no_study = dataclasses.replace(tiny, frames_study="")
        assert quiet_run(no_study, ["extract"]) == {"extract": "run"}
        assert manifests(tiny.output)["extract"]["inputs"]["frames_study"] is None
        assert quiet_run(no_study, ["extract"]) == {"extract": "cached"}
        assert quiet_run(tiny, ["extract"]) == {"extract": "run"}

    def test_a_copied_run_directory_reruns(self, tiny, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(tiny.output, copy)
        copied = dataclasses.replace(tiny, output=str(copy))
        assert quiet_run(copied) == {s: "run" for s in STAGE_ORDER}
        for manifest in manifests(copy).values():
            assert all(Path(p).is_relative_to(copy) for p in manifest["outputs"])
        assert quiet_run(copied) == {s: "cached" for s in STAGE_ORDER}


class TestDigestMemo:
    """Each run hashes a file once, and never serves a digest its bytes no longer have."""

    @pytest.fixture
    def bundle(self, tmp_path):
        return load_config(generate_synthetic(SyntheticSpec(**TINY), seed=3,
                                              out_dir=tmp_path / "bundle")["config"])

    def test_a_panel_cell_edit_reruns_the_panel_readers_as_a_fresh_run(self, bundle, tmp_path):
        assert quiet_run(bundle) == {s: "run" for s in STAGE_ORDER}
        lines = Path(bundle.panel).read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        cells = lines[1].rstrip("\n").split(",")
        k = header.index("rain_mean")
        cells[k] = repr(float(cells[k]) + 0.5)
        lines[1] = ",".join(cells) + "\n"
        Path(bundle.panel).write_text("".join(lines), encoding="utf-8")
        readers = {s for s, m in manifests(bundle.output).items() if "panel" in m["inputs"]}
        assert {"select", "fit", "ablate", "classify", "validate", "report"} <= readers
        assert quiet_run(bundle) == {s: "run" if s in readers else "cached" for s in STAGE_ORDER}
        fresh = dataclasses.replace(bundle, output=str(tmp_path / "fresh"))
        assert quiet_run(fresh) == {s: "run" for s in STAGE_ORDER}
        run = sorted(p.relative_to(bundle.output) for p in Path(bundle.output).rglob("*")
                     if p.is_file() and p.parent.name != "manifests")
        assert run == sorted(p.relative_to(fresh.output) for p in Path(fresh.output).rglob("*")
                             if p.is_file() and p.parent.name != "manifests")
        for rel in run:
            assert digest(Path(bundle.output) / rel) == digest(Path(fresh.output) / rel), rel
        assert quiet_run(bundle) == {s: "cached" for s in STAGE_ORDER}

    def test_a_same_size_rewrite_with_the_old_mtime_records_the_new_digest(
            self, bundle, monkeypatch):
        def body(ctx):
            path = ctx.write("probe.txt")
            path.write_text("first", encoding="utf-8")
            ctx.read("probe.txt")  # the run now holds the first bytes' digest
            before = path.stat()
            path.write_text("later", encoding="utf-8")
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert path.stat().st_size == before.st_size

        monkeypatch.setitem(pipeline._STAGES, "validate", body)
        assert quiet_run(bundle, ["validate"]) == {"validate": "run"}
        path = Path(bundle.output) / "probe.txt"
        manifest = json.loads((Path(bundle.output) / "manifests" / "validate.json").read_text())
        assert manifest["outputs"] == {str(path): digest(path)}

    def test_write_drops_the_digest_of_the_path_it_hands_out(self, bundle):
        ctx = RunContext(cfg=bundle, out=Path(bundle.output))
        path = ctx.write("probe.txt")
        path.write_text("first", encoding="utf-8")
        first = ctx._digest(path)
        before = path.stat()
        ctx.write("probe.txt").write_text("later", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert ctx._digest(path) == digest(path) != first

    def test_a_cold_run_and_a_resumed_edit_hash_each_file_once(self, bundle, monkeypatch):
        hashed = []
        real = pipeline.file_sha256
        monkeypatch.setattr(pipeline, "file_sha256", lambda p: hashed.append(str(p)) or real(p))
        assert quiet_run(bundle) == {s: "run" for s in STAGE_ORDER}
        assert hashed and len(hashed) == len(set(hashed))
        hashed.clear()
        edited = dataclasses.replace(bundle, precision_target=0.75)
        assert quiet_run(edited) == {s: "run" if s in ("classify", "report") else "cached"
                                     for s in STAGE_ORDER}
        assert sorted(hashed) == sorted(set(hashed))
        assert str(Path(bundle.corpus)) in hashed


FIELDS = tuple(f.name for f in dataclasses.fields(PipelineConfig))
AS_JSON = {tuple: list, frozenset: sorted}


def params_of(cfg, keys):
    """The params a manifest records for ``keys``."""
    return {k: AS_JSON.get(type(v), lambda v: v)(v) for k in keys for v in [getattr(cfg, k)]}


def params_hash(params):
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


class _RecordingConfig(PipelineConfig):
    """A config that adds the name of each field read to ``log`` while ``log`` is a set."""

    log = None

    def __getattribute__(self, name):
        log = object.__getattribute__(self, "log")
        if log is not None and name in FIELDS:
            log.add(name)
        return object.__getattribute__(self, name)


@pytest.fixture(scope="module")
def stage_reads(tmp_path_factory):
    """A finished run, and the config keys other than paths that each stage's body reads.

    Each stage reruns alone in a fresh context, so the corpus, designs and CV it
    uses are built inside it. Spatial, lasso and target exclusion are on and the
    optional inputs are set, so every branch that reads a key runs. Paths are
    left out: ``RunContext.read`` hashes their files.
    """
    bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3,
                                out_dir=tmp_path_factory.mktemp("reads"))
    cfg = dataclasses.replace(load_config(bundle["config"]), spatial=True,
                              lasso_compare=True, exclude_target_articles=True)
    assert cfg.frames_study and cfg.projections
    quiet_run(cfg)
    recording = _RecordingConfig(**dataclasses.asdict(cfg))
    reads = {}
    for stage, body in pipeline._STAGES.items():
        reads[stage] = set()

        def recorded(ctx, body=body, log=reads[stage]):
            recording.log = log  # not while the params are hashed
            try:
                body(ctx)
            finally:
                recording.log = None

        (Path(cfg.output) / "manifests" / f"{stage}.json").unlink()
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setitem(pipeline._STAGES, stage, recorded)
            ctx = RunContext(cfg=recording, out=Path(cfg.output))
            assert pipeline._STAGE_FUNCS[stage](ctx) == "run"
        reads[stage] -= set(_PATH_KEYS)
    return cfg, reads


class TestRecordedKeys:
    """A manifest's params are the config keys its stage read, recorded as it read them."""

    def test_each_manifest_lists_exactly_the_keys_its_body_read(self, stage_reads):
        cfg, reads = stage_reads
        for stage, manifest in manifests(cfg.output).items():
            params = params_of(cfg, reads[stage])
            assert manifest["params"] == params, stage
            assert manifest["params_hash"] == params_hash(params), stage

    def test_every_key_but_the_paths_is_recorded_by_some_stage(self, stage_reads):
        cfg, _ = stage_reads
        recorded = {key for m in manifests(cfg.output).values() for key in m["params"]}
        assert recorded == set(FIELDS) - set(_PATH_KEYS)

    @pytest.fixture
    def tiny(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3, out_dir=tmp_path / "bundle")
        cfg = load_config(bundle["config"])
        assert not cfg.lasso_compare
        assert quiet_run(cfg) == {s: "run" for s in STAGE_ORDER}
        return cfg

    def test_a_lasso_lambda_edit_reruns_the_fits_only_when_lasso_is_on(self, tiny):
        edited = dataclasses.replace(tiny, lasso_lambda=2 * tiny.lasso_lambda)
        assert quiet_run(edited) == {s: "cached" for s in STAGE_ORDER}
        assert "lasso_lambda" not in manifests(tiny.output)["fit"]["params"]
        lasso = dataclasses.replace(tiny, lasso_compare=True)
        quiet_run(lasso)
        summary = quiet_run(dataclasses.replace(lasso, lasso_lambda=2 * tiny.lasso_lambda))
        # classify and report read predictions.csv, which holds the lasso models' predictions
        assert summary == {s: "run" if s in ("fit", "ablate", "classify", "report")
                           else "cached" for s in STAGE_ORDER}

    def test_an_older_manifest_listing_an_unread_key_stays_cached(self, tiny):
        path = Path(tiny.output) / "manifests" / "fit.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["lasso_lambda"] = tiny.lasso_lambda
        manifest["params_hash"] = params_hash(manifest["params"])
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        assert quiet_run(tiny) == {s: "cached" for s in STAGE_ORDER}
        edited = dataclasses.replace(tiny, lasso_lambda=2 * tiny.lasso_lambda)
        assert quiet_run(edited) == {s: "run" if s == "fit" else "cached" for s in STAGE_ORDER}
        assert "lasso_lambda" not in manifests(tiny.output)["fit"]["params"]
        assert quiet_run(edited) == {s: "cached" for s in STAGE_ORDER}

    def test_a_listed_key_the_config_no_longer_has_reruns_the_stage(self, tiny):
        path = Path(tiny.output) / "manifests" / "classify.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["retired_key"] = 1
        manifest["params_hash"] = params_hash(manifest["params"])
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        assert quiet_run(tiny) == {s: "run" if s == "classify" else "cached"
                                   for s in STAGE_ORDER}
        assert "retired_key" not in manifests(tiny.output)["classify"]["params"]

    def test_a_loader_built_before_the_stage_still_adds_its_keys(self, tiny):
        listed = manifests(tiny.output)["select"]["params"]
        assert {"window_start", "window_end", "strict"} <= set(listed)
        ctx = RunContext(cfg=tiny, out=Path(tiny.output))
        ctx.corpus()
        (Path(tiny.output) / "manifests" / "select.json").unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert pipeline._STAGE_FUNCS["select"](ctx) == "run"
        assert manifests(tiny.output)["select"]["params"] == listed


class TestFailureModes:
    def test_missing_embeddings_fails_expand_with_config_error(self, tmp_path):
        bundle = generate_synthetic(
            SyntheticSpec(districts=10, months=60, decoys=4,
                          articles_per_country_month=40),
            seed=5, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        Path(cfg.embeddings).unlink()
        quiet_run(cfg, stages=["extract"])
        with pytest.raises(ConfigError, match="embeddings"):
            quiet_run(cfg, stages=["expand"])
        error_manifest = Path(cfg.output) / "manifests" / "expand.error.json"
        assert not error_manifest.exists()  # failed before compute started

    def test_unknown_stage_rejected(self, tmp_path):
        cfg = PipelineConfig(output=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="unknown stages"):
            run_pipeline(cfg, stages=["transmogrify"])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(folds=1).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(granger_level=2.0).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(grid_min=0.5).validate()
        with pytest.raises(ConfigError, match="month out of range"):
            PipelineConfig(window_start="2012-13").validate()
        with pytest.raises(ConfigError, match="after window_end"):
            PipelineConfig(window_start="2013-02", window_end="2013-01").validate()

    def test_a_design_that_looks_ahead_fails_fit_before_any_cv(self, tmp_path, monkeypatch):
        # With no publication delay the newest regressors are 1 month old, under
        # the 3-month horizon of audit_no_lookahead.
        bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3, out_dir=tmp_path)
        cfg = dataclasses.replace(load_config(bundle["config"]), publication_delay=0)
        quiet_run(cfg, stages=["extract", "expand", "factors", "select"])
        cv_calls = []
        monkeypatch.setattr(panel_mod, "cross_validate_design",
                            lambda *args, **kwargs: cv_calls.append(args))
        with pytest.raises(DataError, match=r"^baseline: the design looks ahead with "
                           r"publication_delay = 0: trad\[\w+,n=1\], "):
            quiet_run(cfg, stages=["fit"])
        assert cv_calls == []
        assert not (Path(cfg.output) / "cv_reports.json").exists()

    @pytest.mark.parametrize("start, end", [("2012-13", "2014-12"), ("2014-02", "2014-01")])
    def test_a_bad_corpus_window_fails_before_any_stage(self, tmp_path, start, end):
        bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        save_config(bundle["config"], dataclasses.replace(cfg, window_start=start,
                                                          window_end=end))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(bundle["config"])])
        assert result.exit_code == 1  # a config error, not a data error from expand
        assert not (Path(cfg.output) / "manifests").exists()


class TestFactorArtifact:
    def test_a_zero_denominator_survives_the_artifact(self, tmp_path):
        bundle = generate_synthetic(SyntheticSpec(**TINY), seed=3, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        empty = format_month(parse_month(cfg.window_start) + 5)
        lines = Path(cfg.corpus).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(cfg.corpus).write_text(
            "".join(line for line in lines if not json.loads(line)["date"].startswith(empty)),
            encoding="utf-8")
        quiet_run(cfg, stages=["extract", "expand", "factors"])
        ctx = RunContext(cfg=cfg, out=Path(cfg.output))
        features = sorted({r["ngram"] for r in json.loads(ctx.read("features.json").read_text())})
        want, _ = corpus_mod.news_factors(corpus_mod.read_corpus(cfg.corpus, ctx.window),
                                          features, ctx.gazetteer())
        got = ctx.factors()
        assert (want.denominators[:, 5] == 0).all() and (want.denominators[:, 4] > 0).all()
        assert np.array_equal(got.denominators, want.denominators)
        assert np.array_equal(got.counts, want.counts)
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("denominator", corpus_mod.DENOMINATORS)
    def test_loaded_shares_are_the_exact_quotients(self, run_dir, tmp_path, denominator):
        _, cfg, _ = run_dir
        ctx = RunContext(cfg=cfg, out=Path(cfg.output))
        features = sorted({r["ngram"] for r in json.loads(ctx.read("features.json").read_text())})
        factors, _ = corpus_mod.news_factors(corpus_mod.read_corpus(cfg.corpus, ctx.window),
                                             features, ctx.gazetteer(), denominator=denominator)
        assert factors.counts.any()
        corpus_mod.save_factors(tmp_path / "a.npy", tmp_path / "a.json", factors)
        back = corpus_mod.load_factors(tmp_path / "a.npy", tmp_path / "a.json")
        assert_exact_shares(back, factors)
        corpus_mod.save_factors(tmp_path / "b.npy", tmp_path / "b.json", back)
        assert_same_bytes(tmp_path, "a", "b")


def _mean_of(series):
    return np.stack(list(series)).mean(axis=0)


def _at_level(factors, feature, level):
    """{location: monthly values} of ``feature`` at each location of ``level``, walked one by one."""
    f = factors.features.index(feature)
    out = {}
    for i, loc in enumerate(factors.locations):
        if factors.levels[i] == level:
            out[loc] = np.array([float(v) for v in factors.values[f, i]])
    return out


def _pct(values):
    v = np.asarray(values, dtype=float)
    return (average_ranks_loop(v) - 1.0) / (v.size - 1)


def _sm3(v):
    return np.array([np.mean(v[max(0, i - 2) : i + 1]) for i in range(v.size)])


def _cells(*values):
    return [repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in values]


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """A finished run with outbreak events and clusters of several members.

    The default ``clusters = 12`` and the ``run_dir`` bundle have neither.
    """
    spec = SyntheticSpec(districts=12, months=84, decoys=6, articles_per_country_month=50,
                         countries=2, episode_start_prob=0.03)
    bundle = generate_synthetic(spec, seed=3, out_dir=tmp_path_factory.mktemp("cube"))
    cfg = dataclasses.replace(load_config(bundle["config"]), clusters=3)
    quiet_run(cfg)
    return RunContext(cfg=cfg, out=Path(cfg.output))


class TestEventsFile:
    def test_events_round_trip_through_grid_positions(self, ctx):
        months = ctx.panel_dataset().publication_months
        actual, predicted = ctx.events()
        columns = read_csv(ctx.out / "events.csv", "events").columns
        assert actual and predicted
        assert len(columns["model"]) == len(actual) + sum(map(len, predicted.values()))
        in_row_order = {"": iter(actual), **{m: iter(e) for m, e in predicted.items()}}
        for model, district, period, severity in zip(
                columns["model"], columns["district_id"], columns["period"],
                columns["severity"]):
            event = next(in_row_order[model])
            assert (event.district, format_month(months[event.start]), event.severity) == (
                district, period, float(severity))

    @pytest.mark.parametrize("bad", ["off-grid", "2011-13"])
    def test_a_bad_period_raises_naming_the_file_and_line(self, ctx, tmp_path, bad):
        run = tmp_path / "run"
        shutil.copytree(ctx.out, run)
        months = ctx.panel_dataset().publication_months
        if bad == "off-grid":
            bad = format_month(next(t for t in range(months[0], months[-1]) if t not in months))
        lines = (run / "events.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[3].split(",")
        lines[3] = ",".join([cells[0], bad, *cells[2:]])
        (run / "events.csv").write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{run / 'events.csv'}:4: ") + ".*" + bad):
            RunContext(cfg=ctx.cfg, out=run).events()

    def test_a_missing_model_column_raises_naming_the_file_and_line(self, ctx, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(ctx.out, run)
        table = read_csv(run / "events.csv", "events")
        kept = [c for c in table.header if c != "model"]
        write_csv(run / "events.csv", kept, zip(*map(table.columns.get, kept)))
        with pytest.raises(DataError, match=re.escape(
                f"{run / 'events.csv'}:2: bad events row: 'model'")) as raised:
            RunContext(cfg=ctx.cfg, out=run).events()
        assert raised.value.exit_code == 2
        write_csv(run / "events.csv", kept, [])
        assert RunContext(cfg=ctx.cfg, out=run).events() == ([], {})


class TestTrailingMean:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.1, math.nan, math.inf, -math.inf, 5e-324])
                    | st.floats(allow_nan=False), max_size=12))
    @example([-0.0] * 8 + [math.inf, -math.inf, math.nan])
    def test_equals_the_window_loop_bit_for_bit(self, values):
        # The sampled values force -0.0 sums, NaN, infinities and underflow. A NaN's
        # sign bit depends on how it arose and prints as nan either way, so each NaN is
        # compared as one canonical NaN: positions still match, and every other value
        # bit for bit.
        v = np.array(values, dtype=float)
        with np.errstate(all="ignore"):
            got, want = trailing_mean(v), _sm3(v)
        canonical = [np.where(np.isnan(a), np.nan, a).tobytes() for a in (got, want)]
        assert canonical[0] == canonical[1]


class TestFactorSummariesOracle:
    """The factor summaries of report and validate, recomputed from per-location rows.

    Each table is rebuilt by stacking per-location rows copied value by value out of
    the factor cube, with loop-walked ranks, and must match the written file cell for
    cell, so every float bit for bit.
    """

    @staticmethod
    def table(ctx, name):
        with open(Path(ctx.cfg.output) / name, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))[1:]

    def test_cluster_rows_of_episodes(self, ctx):
        from newswarn.report import EPISODE_WINDOW

        factors, panel, clusters = ctx.factors(), ctx.panel_dataset(), ctx.clusters()
        want = []
        for event in ctx.events()[0]:
            d, start = event.district, panel.publication_months[event.start]
            if d not in panel.districts:
                continue
            for c in sorted(clusters, key=lambda c: f"cluster_{c.cluster_id}_pct"):
                pct = _pct(_mean_of(_at_level(factors, w, "district")[d] for w in c.members))
                months = [t for t in range(start - EPISODE_WINDOW, start + EPISODE_WINDOW + 1)
                          if 0 <= t - factors.start < pct.size]
                vals = np.array([pct[t - factors.start] for t in months])
                smooth = _sm3(vals)
                want.extend(_cells(d, format_month(start), format_month(t),
                                   f"cluster_{c.cluster_id}_pct", vals[i], smooth[i])
                            for i, t in enumerate(months))
        got = [r for r in self.table(ctx, "report/episodes.csv") if r[3].startswith("cluster_")]
        assert want and got == want

    def test_cluster_correlation(self, ctx):
        factors, panel, clusters = ctx.factors(), ctx.panel_dataset(), ctx.clusters()
        mean = {w: _mean_of(_at_level(factors, w, "district").values())
                for w in panel.feature_order}
        cluster_of = {w: c.cluster_id for c in clusters for w in c.members}
        feats = [w for w in sorted(cluster_of) if np.ptp(mean[w]) > 0.0]
        intra, inter = [], []
        for i, a in enumerate(feats):
            for b in feats[i + 1 :]:
                r = float(np.corrcoef(mean[a], mean[b])[0, 1])
                (intra if cluster_of[a] == cluster_of[b] else inter).append(r)
        assert intra and inter
        assert self.table(ctx, "report/cluster_correlation.csv") == [
            _cells(float(np.mean(intra)), float(np.mean(inter)))]

    def test_factor_percentiles(self, ctx):
        factors, panel = ctx.factors(), ctx.panel_dataset()
        want = []
        for w in panel.feature_order:
            for loc, s in sorted(_at_level(factors, w, "country").items()):
                pct = _pct(s)
                smooth = _sm3(pct)
                want.extend(_cells(w, loc, format_month(factors.start + i), v, pct[i], smooth[i])
                            for i, v in enumerate(s))
        assert want and self.table(ctx, "report/factor_percentiles.csv") == want

    def test_associations(self, ctx):
        factors, panel = ctx.factors(), ctx.panel_dataset()
        ds = sorted(panel.districts)
        news = {w: {d: float(np.max(_at_level(factors, w, "district")[d])) for d in ds}
                for w in panel.feature_order}
        want = []
        for k in panel_mod.TRADITIONAL_INDICATORS:
            per = {d: [v for v in panel.traditional[k][panel.rows[d]] if np.isfinite(v)]
                   for d in ds}
            summary = {d: float(np.max(v)) for d, v in per.items() if v}
            if len(summary) < 3 or np.ptp(list(summary.values())) == 0.0:
                continue
            best = None
            for w in sorted(news):
                common = sorted(set(summary) & set(news[w]))
                b = [news[w][d] for d in common]
                if len(common) < 3 or np.ptp(b) == 0.0:
                    continue
                r = float(np.corrcoef(average_ranks_loop([summary[d] for d in common]),
                                      average_ranks_loop(b))[0, 1])
                if best is None or r > best[0] + 1e-12:
                    best = (r, w, len(common))
            if best is not None:
                want.append(_cells(k, best[1], best[0], best[2]))
        assert want and self.table(ctx, "associations.csv") == want


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig(match_window=2, wmd_radius=4.5, folds=7,
                             target_keywords=("famine", "food crisis"))
        path = tmp_path / "cfg.ini"
        save_config(path, cfg)
        back = load_config(path)
        assert back.match_window == 2
        assert back.wmd_radius == 4.5
        assert back.folds == 7
        assert back.target_keywords == ("famine", "food crisis")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[thresholds]\nwarp_factor = 9\n")
        with pytest.raises(ConfigError, match="warp_factor"):
            load_config(path)

    def test_every_field_round_trips(self, tmp_path):
        # Every field at a value of its type other than its default.
        changed = {bool: lambda v: not v, int: lambda v: v + 3, float: lambda v: v / 2 + 0.01,
                   tuple: lambda v: ("drought", "50% price rise"),
                   frozenset: lambda v: frozenset({"of", "zebra"})}
        defaults = dataclasses.asdict(PipelineConfig())
        values = {k: str(tmp_path / "in" / k) if k in _PATH_KEYS else changed[type(v)](v)
                  for k, v in defaults.items() if k in _PATH_KEYS or not isinstance(v, str)}
        cfg = PipelineConfig(**{**values, "adf_level": 0.01, "grid_min": 1.5},
                             window_start="2010-01", window_end="2019-12",
                             screening_mode="per-district", factor_denominator="corpus")
        assert not [k for k, v in defaults.items() if getattr(cfg.validate(), k) == v]
        save_config(tmp_path / "cfg.ini", cfg)
        assert load_config(tmp_path / "cfg.ini") == cfg

    @pytest.mark.parametrize("text", ["[settings]\nfolds = 5\n\n[thresholds]\nfolds = 7\n",
                                      "[DEFAULT]\nfolds = 5\n\n[settings]\nfolds = 7\n",
                                      "[settings]\nfolds = 5\nfolds = 7\n"])
    def test_a_key_given_twice_is_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="'folds'"):
            load_config(path)

    def test_a_default_section_is_read_once_like_any_other(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[DEFAULT]\nfolds = 5\n\n[a]\nclusters = 3\n\n[b]\ny_lags = 4\n")
        cfg = load_config(path)
        assert (cfg.folds, cfg.clusters, cfg.y_lags) == (5, 3, 4)


class TestMovedBundle:
    def test_bundle_runs_after_its_directory_moves(self, tmp_path):
        made, moved = tmp_path / "made", tmp_path / "moved"
        generate_synthetic(SyntheticSpec(**SMALL), seed=3, out_dir=made)
        made.rename(moved)
        cfg = load_config(moved / "config.ini")
        assert quiet_run(cfg) == {s: "run" for s in STAGE_ORDER}
        assert Path(cfg.output) == (moved / "run").resolve()


RUN_SCRIPT = """
import dataclasses, sys, warnings
from newswarn.config import load_config
from newswarn.pipeline import run_pipeline
from newswarn.synth import SyntheticSpec, generate_synthetic
bundle = generate_synthetic(SyntheticSpec(**{spec}), seed=3, out_dir=sys.argv[1])
cfg = dataclasses.replace(load_config(bundle["config"]), exclude_target_articles=True)
warnings.simplefilter("ignore")
run_pipeline(cfg)
"""


def bundle_files_per_env(bundle, spec, envs):
    """Every file of a seed-3 bundle and its run, made in a fresh interpreter per env.

    Each run uses the same directory, so even the manifests must match.
    """
    src = str(Path(newswarn.__file__).resolve().parent.parent)
    outputs = []
    for overrides in envs:
        env = dict(os.environ, **overrides,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", RUN_SCRIPT.format(spec=spec), str(bundle)],
                       env=env, check=True, timeout=300)
        outputs.append({p.relative_to(bundle).as_posix(): p.read_bytes()
                        for p in sorted(bundle.rglob("*")) if p.is_file()})
        shutil.rmtree(bundle)
    return outputs


class TestHashSeed:
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        first, second = bundle_files_per_env(
            tmp_path / "bundle", SMALL, [{"PYTHONHASHSEED": "1"}, {"PYTHONHASHSEED": "2"}])
        assert "run/report/coverage.csv" in first
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []


class TestBlasThreads:
    # A resume-sized bundle (8 districts x 60 months) ran byte-identical under 1 and 2
    # threads even without the pin, so this one is news_volume-sized.
    NEWS_VOLUME = dict(districts=16, countries=1, province_size=4, months=72,
                       articles_per_country_month=250, embedding_dim=16)

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        first, second = bundle_files_per_env(tmp_path / "bundle", self.NEWS_VOLUME, [
            {var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
            for threads in ("1", "2")])
        assert "run/models.json" in first
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []

    def test_this_process_runs_blas_on_one_thread(self):
        # conftest imports newswarn before numpy, so the pin reaches in-process tests.
        # On one core OpenBLAS starts one thread anyway, so there this cannot tell.
        libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
        if not libs:
            pytest.skip("numpy carries no bundled OpenBLAS")
        get_threads = getattr(ctypes.CDLL(str(libs[0])),
                              "scipy_openblas_get_num_threads64_", None)
        if get_threads is None:
            pytest.skip("the bundled OpenBLAS does not report its thread count")
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        assert get_threads() == 1


class TestNullSimulation:
    def test_no_planted_signal_means_no_news_advantage(self, tmp_path):
        planted = tuple(PlantedFeature(p.ngram, p.lead, 0.0)
                        for p in SyntheticSpec().planted)
        bundle = generate_synthetic(
            SyntheticSpec(districts=10, months=60, decoys=4,
                          articles_per_country_month=60, planted=planted),
            seed=6, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit"])
        retained = json.loads((Path(cfg.output) / "retained.json").read_text())
        planted_names = {p.ngram for p in planted}
        assert len(planted_names & set(retained)) <= 1  # null: ~1% level
        cv = json.loads((Path(cfg.output) / "cv_reports.json").read_text())
        base, news = cv["baseline"]["mean_rmse"], cv["news"]["mean_rmse"]
        assert news >= base - max(0.05, 0.1 * base)  # no improvement beyond tolerance


class TestSpatialAndLassoVariants:
    @pytest.fixture(scope="class")
    def variants(self, tmp_path_factory):
        bundle = generate_synthetic(
            SyntheticSpec(districts=10, months=60, decoys=4,
                          articles_per_country_month=60, countries=2),
            seed=9, out_dir=tmp_path_factory.mktemp("variants"))
        cfg = load_config(bundle["config"])
        cfg.spatial = True
        cfg.lasso_compare = True
        # shallow lag structure keeps the spatial design estimable at this size
        cfg.y_lags = 3
        cfg.factor_lags = 3
        cfg.folds = 5
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit"])
        return cfg

    def test_fit_stage_reports_all_variants(self, variants):
        cfg = variants
        cv = json.loads((Path(cfg.output) / "cv_reports.json").read_text())
        expected = {f"{kind}{suffix}" for kind in ("baseline", "news", "combined")
                    for suffix in ("", "_spatial", "_lasso")}
        assert set(cv) == expected
        for name, report in cv.items():
            scored = [r for r in report["fold_rmse"] if r is not None]
            assert scored, name
        audits = json.loads((Path(cfg.output) / "audit.json").read_text())
        assert set(audits) == expected
        assert all(a["violations"] == [] for a in audits.values())

    def test_every_cv_fold_of_a_lasso_spec_is_optimal(self, variants):
        # Every training window, also those below the CV bar. The news model's
        # later windows have 75 penalized columns of rank 51, which the path
        # must solve without a singular active set.
        ctx = RunContext(variants, Path(variants.output))
        designs, _ = ctx.model_designs()
        panel = ctx.panel_dataset()
        blocks = panel_mod.month_folds(panel.start, panel.end, variants.folds)
        for name, spec in sorted(ctx.model_specs().items()):
            if spec.lasso is None:
                continue
            design = designs[name]
            months = np.array([t for _, t in design.rows])
            for block in blocks[1:]:
                train = np.flatnonzero(panel_mod.fold_rows(months, block)[0])
                X, y, names, penalized = dummy_columns(design, train)
                fit = panel_mod._fit(design, spec, block[0], train).coefficients()
                beta = np.array([fit[n] for n in names])
                assert lasso_kkt_residual(X, y, beta, spec.lasso, penalized) <= 1e-9, name
                expected = lasso_rows(X, y, spec.lasso, penalized)[0]
                assert lasso_objective(X, y, beta, spec.lasso, penalized) <= (
                    lasso_objective(X, y, expected, spec.lasso, penalized) * (1 + 1e-12)), name


class TestAblationBar:
    def test_ablate_measures_against_the_reported_combined_cv(self, tmp_path, monkeypatch):
        # At this size the spatial designs are wider than the combined one, and
        # the bar they set excludes a fold that the combined design alone would keep.
        bundle = generate_synthetic(
            SyntheticSpec(districts=10, months=72, decoys=4,
                          articles_per_country_month=60, countries=2),
            seed=9, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        cfg.spatial = True
        cfg.y_lags = 3
        cfg.factor_lags = 3
        cfg.folds = 8
        combined_inside_ablate = []
        real_ablate = panel_mod.ablate

        def spy(*args, **kwargs):
            bound = inspect.signature(real_ablate).bind(*args, **kwargs)
            combined_inside_ablate.append(bound.arguments["combined"])
            return real_ablate(*args, **kwargs)

        monkeypatch.setattr(panel_mod, "ablate", spy)
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit", "ablate"])
        cv = json.loads((Path(cfg.output) / "cv_reports.json").read_text())
        [combined] = combined_inside_ablate
        assert list(combined.fold_rmse) == cv["combined"]["fold_rmse"]


class TestWorkDoneOnce:
    @pytest.fixture(scope="class")
    def counted_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("once")
        bundle = generate_synthetic(SyntheticSpec(**SMALL), seed=5, out_dir=out)
        cfg = load_config(bundle["config"])
        parses, cv_calls, corpus_reads, builds = [], [], [], []
        real_read = corpus_mod.load_factors
        real_read_corpus = corpus_mod.read_corpus
        real_cv = panel_mod.cross_validate_design
        real_build = panel_mod.build_design

        def count_read(*args, **kwargs):
            parses.append(args)
            return real_read(*args, **kwargs)

        def count_read_corpus(*args, **kwargs):
            corpus_reads.append(args)
            return real_read_corpus(*args, **kwargs)

        def count_cv(design, spec, *args, **kwargs):
            cv_calls.append((spec, len(design.columns)))
            return real_cv(design, spec, *args, **kwargs)

        def count_build(panel, *specs):
            builds.append(specs)
            return real_build(panel, *specs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_mod, "load_factors", count_read)
            mp.setattr(corpus_mod, "read_corpus", count_read_corpus)
            mp.setattr(panel_mod, "cross_validate_design", count_cv)
            mp.setattr(panel_mod, "build_design", count_build)
            summary = quiet_run(cfg)
        assert summary == {s: "run" for s in STAGE_ORDER}
        return parses, cv_calls, corpus_reads, builds

    def test_cold_run_parses_factors_once(self, counted_run):
        parses, _, _, _ = counted_run
        assert len(parses) == 1

    def test_cold_run_parses_the_corpus_once(self, counted_run):
        # expand, factors and select share one parse
        _, _, corpus_reads, _ = counted_run
        assert len(corpus_reads) == 1

    def test_cold_run_builds_one_design(self, counted_run):
        # every model spec covers the same rows here, so all are columns of one design
        _, _, _, builds = counted_run
        assert len(builds) == 1
        assert sorted(s.kind for s in builds[0]) == sorted(panel_mod.MODEL_KINDS)

    def test_ablate_reuses_the_combined_cv_of_fit(self, counted_run):
        # ablation designs drop a cluster's columns, so they are narrower than their spec's
        _, cv_calls, _, _ = counted_run
        widest = {}
        for spec, width in cv_calls:
            widest[spec] = max(widest.get(spec, 0), width)
        full = [spec for spec, width in cv_calls if width == widest[spec]]
        assert sorted(s.kind for s in full) == sorted(panel_mod.MODEL_KINDS)
        assert any(width < widest[spec] for spec, width in cv_calls)

    def test_lasso_variants_share_their_ols_twins_designs(self, tmp_path, monkeypatch):
        bundle = generate_synthetic(
            SyntheticSpec(districts=10, months=60, decoys=4,
                          articles_per_country_month=60, countries=2),
            seed=9, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        cfg.spatial = True
        cfg.lasso_compare = True
        cfg.y_lags = 3
        cfg.factor_lags = 3
        cfg.folds = 5
        quiet_run(cfg, stages=["extract", "expand", "factors", "select"])
        built = []
        real_build = panel_mod.build_design

        def count_build(panel, *specs):
            built.append(sorted((s.kind, s.spatial, s.lasso) for s in specs))
            return real_build(panel, *specs)

        monkeypatch.setattr(panel_mod, "build_design", count_build)
        assert quiet_run(cfg, stages=["fit"]) == {"fit": "run"}
        # one design, built once for the six OLS specs, serves all nine models
        assert built == [sorted((k, sp, None) for k in panel_mod.MODEL_KINDS
                                for sp in (False, True))]
        ctx = RunContext(cfg=cfg, out=Path(cfg.output))
        designs, _ = ctx.model_designs()
        for kind in panel_mod.MODEL_KINDS:
            assert designs[f"{kind}_lasso"] is designs[kind]
        assert len({id(d.X) for d in designs.values()}) == 1


class TestFoldsScored:
    def test_a_resume_sized_panel_scores_one_fold(self, tmp_path):
        # 8 districts over 60 months: the bar of 4 rows per column of the
        # widest design leaves only the last of the 9 folds to score
        bundle = generate_synthetic(
            SyntheticSpec(districts=8, countries=1, province_size=4, months=60,
                          articles_per_country_month=150, embedding_dim=16),
            seed=7, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit"])
        cv = json.loads((Path(cfg.output) / "cv_reports.json").read_text())
        assert set(cv) == set(panel_mod.MODEL_KINDS)
        for report in cv.values():
            assert report["folds_scored"] == sum(r is not None for r in report["fold_rmse"])
            assert report["folds_scored"] == 1


class TestZeroNoiseConstruction:
    def test_single_lag3_feature_recall_one_at_high_precision(self, tmp_path):
        spec = SyntheticSpec(
            districts=10, months=84, countries=2, decoys=0, extra_seeds=(),
            planted=(PlantedFeature("drought", 3, 2.0),),
            articles_per_country_month=100, mention_base=0.0, mention_boost=1.0,
            phase_noise=0.0, projection_flip=0.0,
        )
        bundle = generate_synthetic(spec, seed=12, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        quiet_run(cfg, stages=["extract", "expand", "factors", "select", "fit",
                               "classify"])
        out = Path(cfg.output)
        retained = json.loads((out / "retained.json").read_text())
        assert "drought" in retained
        points = json.loads((out / "operating_points.json").read_text())
        combined = points["combined"]
        assert combined.get("recall") == pytest.approx(1.0)
        assert combined.get("precision") >= 0.8


class TestUndercoverage:
    def test_starved_province_lands_in_missed_bucket(self, tmp_path):
        bundle = generate_synthetic(
            SyntheticSpec(districts=12, months=60, decoys=6,
                          articles_per_country_month=60, countries=2,
                          province_size=3, undercover_province="AA-P00",
                          undercover_weight=0.05),
            seed=8, out_dir=tmp_path)
        cfg = load_config(bundle["config"])
        quiet_run(cfg)
        with open(Path(cfg.output) / "report" / "coverage.csv") as fh:
            rows = {r["province"]: r for r in csv.DictReader(fh)}
        starved = rows["AA-P00"]
        others = [r for p, r in rows.items() if p != "AA-P00"]
        assert int(starved["articles_with_features"]) < min(
            int(r["articles_with_features"]) for r in others)
        if int(starved["n_outbreaks"]) > 0:
            assert starved["all_predicted"] == "0"


class TestCli:
    def test_error_exit_codes(self):
        from newswarn.errors import ConfigError, DataError, NumericalError
        assert ConfigError("x").exit_code == 1
        assert DataError("x").exit_code == 2
        assert NumericalError("x").exit_code == 3

    def test_synth_and_single_stage(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "syn"
        result = runner.invoke(cli_main, ["synth", "--out", str(out), "--seed", "2",
                                          "--districts", "10", "--months", "60",
                                          "--decoys", "4"])
        assert result.exit_code == 0, result.output
        result = runner.invoke(cli_main, ["run", "--config", str(out / "config.ini"),
                                          "--stage", "extract"])
        assert result.exit_code == 0, result.output
        assert result.output == "extract: run\n"
        assert (out / "run" / "seeds.json").exists()
        result = runner.invoke(cli_main, ["run", "--config", str(out / "config.ini"),
                                          "--stage", "expand"])
        assert result.exit_code == 0, result.output

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[thresholds]\nfolds = 1\n")
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", str(bad)])
        assert result.exit_code == 1

    def test_malformed_panel_cell_exits_2_naming_the_line(self, tmp_path):
        out = tmp_path / "syn"
        generate_synthetic(SyntheticSpec(**TINY), seed=2, out_dir=out)
        lines = (out / "panel.csv").read_text().splitlines()
        cells = lines[4].split(",")
        lines[4] = ",".join(cells[:2] + ["x3"] + cells[3:])
        (out / "panel.csv").write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(cli_main, ["run", "--config", str(out / "config.ini"),
                                               "--stage", "select"])
        assert result.exit_code == 2
        assert "panel.csv:5: bad panel row: could not convert string to float: 'x3'" \
            in result.output

    def test_data_error_exit_code(self, tmp_path):
        out = tmp_path / "syn"
        generate_synthetic(SyntheticSpec(districts=10, months=60, decoys=4,
                                         articles_per_country_month=40),
                           seed=2, out_dir=out)
        # corrupt the corpus and demand strict parsing
        with open(out / "corpus.jsonl", "a") as fh:
            fh.write("this is not json\n")
        runner = CliRunner()
        expand = ["run", "--config", str(out / "config.ini"), "--stage", "expand", "--strict"]
        result = runner.invoke(cli_main, expand)
        assert result.exit_code == 1  # extract outputs missing -> config error
        runner.invoke(cli_main, ["run", "--config", str(out / "config.ini"),
                                 "--stage", "extract"])
        result = runner.invoke(cli_main, expand)
        assert result.exit_code == 2
        failure = json.loads((out / "run" / "manifests" / "expand.error.json").read_text())
        assert failure["stage"] == "expand" and "error" in failure
        assert sorted(failure["inputs"]) == ["corpus", "embeddings", "seeds.json"]
