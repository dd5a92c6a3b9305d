"""Per-layer tracing for the benchmark's traced run.

The tracer wraps, from outside the program, the public functions of each
newswarn layer module, the stage functions that ``run_pipeline`` dispatches
to, and ``pipeline.file_sha256``. It patches every module attribute that
refers to a wrapped function, so intra-module calls (``sweep_pareto`` ->
``classify``, ``adf_test`` -> ``ols``) and names imported into another module
(``panel.ols``) are traced too. Each call becomes one span (name, start, end,
parent) kept in memory; self times and counts are derived from the spans
after the run, and the spans can be written out then.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter

from workloads import STAGES

LAYERS = ("synth", "pipeline", "corpus", "frames", "stemmer", "semantics",
          "tsstats", "panel", "outbreak", "report")

# metric -> traced function whose inclusive time (summed over calls) it reports
TIMED = {
    "corpus.ingest_s": "corpus.ingest_corpus",
    "corpus.factor_s": "corpus.compute_news_factor",
    "corpus.factors_write_s": "corpus.write_factors_csv",
    "corpus.factors_read_s": "corpus.read_factors_csv",
    "semantics.candidates_s": "semantics.enumerate_candidates",
    "semantics.expand_s": "semantics.expand_seeds",
    "semantics.cluster_s": "semantics.cluster_features",
    "tsstats.select_s": "tsstats.select_features",
    "panel.assemble_s": "panel.assemble_panel",
    "panel.design_s": "panel.build_design",
    "panel.cv_s": "panel.cross_validate_design",
    "panel.ablate_s": "panel.ablate",
    "panel.validate_s": "panel.validate_factors",
    "outbreak.sweep_s": "outbreak.sweep_pareto",
    "report.build_s": "report.build_report",
    "frames.extract_s": "frames.run_extraction",
}

# metric -> traced functions whose calls it counts
CALLED = {
    "corpus.ingest_calls": ("corpus.ingest_corpus",),
    "corpus.factor_calls": ("corpus.compute_news_factor",),
    "corpus.factors_read_calls": ("corpus.read_factors_csv",),
    "semantics.wmd_calls": ("semantics.wmd",),
    "tsstats.adf_calls": ("tsstats.adf_test",),
    "tsstats.granger_calls": ("tsstats.panel_granger", "tsstats.granger_test"),
    "tsstats.ols_calls": ("tsstats.ols",),
    "panel.design_calls": ("panel.build_design",),
    "panel.cv_calls": ("panel.cross_validate_design",),
    "panel.fit_calls": ("panel.fit_design",),
    "outbreak.sweep_calls": ("outbreak.sweep_pareto",),
    "outbreak.classify_calls": ("outbreak.classify",),
    "outbreak.score_calls": ("outbreak.score",),
    "pipeline.hash_calls": ("pipeline.file_sha256",),
    "stemmer.stem_calls": ("stemmer.porter_stem",),
}


def _count_index(counts, args, kwargs, index):
    counts["corpus.articles"] += len(index)
    counts["corpus.ngrams"] += len(index.ngram_postings)


def _count_selection(counts, args, kwargs, result):
    retained, report = result
    counts["tsstats.screened"] += len(report)
    counts["tsstats.retained"] += len(retained)


def _count_folds(counts, args, kwargs, report):
    counts["panel.folds_attempted"] += len(report.fold_rmse)
    counts["panel.folds_scored"] += sum(r is not None for r in report.fold_rmse)


def _count_statuses(counts, args, kwargs, summary):
    statuses = list(summary.values())
    counts["pipeline.stages_run"] += statuses.count("run")
    counts["pipeline.stages_cached"] += statuses.count("cached")


def _count_hashed(counts, args, kwargs, digest):
    counts["pipeline.hash_mb"] += os.path.getsize(args[0]) / 2**20


# traced function -> hook(counts, args, kwargs, result) adding result-derived counts
HOOKS = {
    "corpus.ingest_corpus": _count_index,
    "semantics.enumerate_candidates":
        lambda c, a, k, r: c.update({"semantics.candidates": len(r)}),
    "semantics.expand_seeds": lambda c, a, k, r: c.update({"semantics.expanded": len(r)}),
    "tsstats.select_features": _count_selection,
    "panel.cross_validate_design": _count_folds,
    "outbreak.sweep_pareto": lambda c, a, k, r: c.update({"outbreak.front_points": len(r)}),
    "frames.run_extraction": lambda c, a, k, r: c.update({"frames.seeds": len(r.features)}),
    "pipeline.file_sha256": _count_hashed,
    "pipeline.run_pipeline": _count_statuses,
}
HOOK_COUNTS = ("corpus.articles", "corpus.ngrams", "semantics.candidates",
               "semantics.expanded", "tsstats.screened", "tsstats.retained",
               "panel.folds_attempted", "panel.folds_scored", "outbreak.front_points",
               "frames.seeds", "pipeline.hash_mb", "pipeline.stages_run",
               "pipeline.stages_cached")


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and patch all references to them."""
        layer_modules = {layer: importlib.import_module(f"newswarn.{layer}")
                         for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "newswarn" or n.startswith("newswarn.")) and m is not None]
        wrapped = {}
        for layer, mod in layer_modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, HOOKS.get(name))
        stage_funcs = layer_modules["pipeline"]._STAGE_FUNCS
        for stage, fn in stage_funcs.items():
            wrapped[fn] = self.wrap(f"pipeline.stage.{stage}", fn)
        for mod in modules:
            self._patch_namespace(vars(mod), wrapped)
        self._patch_namespace(stage_funcs, wrapped)

    def _patch_namespace(self, namespace: dict, wrapped: dict) -> None:
        for key, obj in list(namespace.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                self._patched.append((namespace, key, obj))
                namespace[key] = wrapped[obj]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def write(self, path) -> None:
        """Write the spans as TSV: index, parent, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer self times, per-function totals and counts from one traced run."""
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    own_by_layer: Counter = Counter()
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls[name] += 1
        inclusive[name] += end - start
        own_by_layer[name.split(".", 1)[0]] += own
    # synth runs only during set-up; run.py reports it as synth.generate_s
    metrics = {f"{layer}.self_s": own_by_layer[layer] for layer in LAYERS if layer != "synth"}
    metrics.update({metric: inclusive[fn] for metric, fn in TIMED.items()})
    metrics.update({metric: sum(calls[fn] for fn in fns) for metric, fns in CALLED.items()})
    metrics.update({metric: counts[metric] for metric in HOOK_COUNTS})
    metrics.update({f"pipeline.stage_s.{stage}": inclusive[f"pipeline.stage.{stage}"]
                    for stage in STAGES})
    return metrics
