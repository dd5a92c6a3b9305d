"""Self-tests of the benchmark harness on a tiny spec that runs in seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path

import pytest

import gate
import run
import spans
from workloads import ROOT, STAGES, Workload, use_checkout_source

use_checkout_source()

from newswarn import pipeline  # noqa: E402
from newswarn.config import load_config  # noqa: E402
from newswarn.synth import SyntheticSpec, generate_synthetic  # noqa: E402

TINY = dict(districts=8, countries=1, province_size=4, months=48, decoys=4,
            articles_per_country_month=40, embedding_dim=16)


def run_tiny(out_dir, seed=3):
    bundle = generate_synthetic(SyntheticSpec(**TINY), seed, out_dir)
    cfg = load_config(bundle["config"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pipeline.run_pipeline(cfg)
    return Path(cfg.output)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    return run_tiny(tmp_path_factory.mktemp("tiny") / "bundle")


def test_self_time_subtracts_nested_children():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("outbreak.classify", lambda: None)
    middle = tracer.wrap("outbreak.sweep_pareto", lambda: [leaf(), leaf()])
    root = tracer.wrap("pipeline.run_pipeline", lambda: middle())
    root()
    # clock reads: root 0..7, middle 1..6, leaves 2..3 and 4..5
    assert [s[0] for s in tracer.spans] == [
        "pipeline.run_pipeline", "outbreak.sweep_pareto",
        "outbreak.classify", "outbreak.classify"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["pipeline.self_s"] == 2.0
    assert metrics["outbreak.self_s"] == 5.0
    assert metrics["outbreak.sweep_s"] == 5.0
    assert metrics["outbreak.classify_calls"] == 2
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == 7.0


def test_tracer_patches_intra_module_calls_and_restores():
    from newswarn import outbreak, tsstats, panel

    originals = (outbreak.classify, tsstats.ols, panel.ols)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert panel.ols is tsstats.ols and panel.ols is not originals[2]
        outbreak.sweep_pareto({"d": ([1, 2, 3, 4], [1.0, 3.5, 3.5, 1.0])}, [],
                              grid=[1.0, 3.0])
    finally:
        tracer.uninstall()
    assert (outbreak.classify, tsstats.ols, panel.ols) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("outbreak.sweep_pareto") == 1
    assert names.count("outbreak.classify") == 1  # only (l, u) = (1.0, 3.0) has l < u


def test_digest_is_unchanged_when_the_bundle_directory_moves(tmp_path, tiny_run):
    moved = run_tiny(tmp_path / "elsewhere" / "deeper")
    assert gate.output_digest(moved) == gate.output_digest(tiny_run)
    manifest = "manifests/factors.json"
    assert (moved / manifest).read_text() != (tiny_run / manifest).read_text()


def test_gate_flags_a_tampered_output(tmp_path):
    run_dir = run_tiny(tmp_path / "bundle")
    assert gate.verify_outputs(run_dir)[0] == []
    before = gate.output_digest(run_dir)
    with open(run_dir / "report" / "coverage.csv", "a", encoding="utf-8") as fh:
        fh.write("tampered\n")
    problems, _ = gate.verify_outputs(run_dir)
    assert problems == ["output report/coverage.csv does not match its manifest hash"]
    assert gate.output_digest(run_dir) == before  # only the hash check sees it
    (run_dir / "fronts.csv").unlink()
    assert "output fronts.csv is missing" in gate.verify_outputs(run_dir)[0]


def test_status_gate():
    cold = gate.expected_statuses(STAGES, None)
    resume = gate.expected_statuses(STAGES, ("classify", "report"))
    assert set(cold.values()) == {"run"}
    assert [s for s, v in resume.items() if v == "run"] == ["classify", "report"]
    assert gate.status_problems(dict(resume), resume) == []
    assert gate.status_problems(cold, resume)


def test_workload_overrides_reach_the_bundle(tmp_path):
    workload = Workload("tiny_cold", "cold", TINY, "self-test", planted_effect=2.0,
                        config=dict(granger_level=0.001))
    spec = workload.synthetic_spec()
    assert [p.effect for p in spec.planted] == [2.0] * 5
    bundle = generate_synthetic(spec, 3, tmp_path / "bundle")
    workload.write_config(bundle["config"])
    cfg = load_config(bundle["config"])
    assert cfg.granger_level == 0.001 and cfg.output == str(tmp_path / "bundle" / "run")


def test_resume_bench_on_tiny_spec(tmp_path):
    workload = Workload("tiny_resume", "resume", TINY, "self-test")
    bench = run.Bench(workload, seed=3, seconds=0.0, trace=True, work=tmp_path / "w")
    bench.run()
    assert bench.problems == [] and bench.failed == 0
    assert bench.attempted == 3 + 4  # three primings, two untraced and two traced ops
    layers = bench.per_layer()
    assert layers["pipeline.stages_run"] == 2 and layers["pipeline.stages_cached"] == 7
    assert layers["corpus.ingest_calls"] == 1  # the report stage re-ingests the corpus
    assert layers["trace.coverage"] > 0.9
    assert (tmp_path / "digests.json").exists()


def test_benchmark_json_lists_what_the_harness_prints(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = run_tiny(tmp_path / "bundle")
    import op

    layers = op.run_op(str(run_dir.parent / "config.ini"), spans_path=tmp_path / "s.tsv")
    printed = set(layers["layers"]) | {"synth.generate_s", "trace.run_s",
                                       "trace.overhead_s", "trace.coverage"}
    assert {m["name"] for m in declared["per_layer"]} == printed
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    for m in declared["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"].endswith(run.WORKLOADS[w["name"]].why)
