"""Command-line entry points.

Exit codes: 0 success, 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import sys

import click

from .config import load_config
from .errors import PipelineError
from .pipeline import STAGE_ORDER, run_pipeline
from .synth import SyntheticSpec, generate_synthetic


def _run(cfg_path, stages, strict=None, exclude_target_articles=None):
    cfg = load_config(cfg_path)
    if strict:
        cfg.strict = True
    if exclude_target_articles:
        cfg.exclude_target_articles = True
    summary = run_pipeline(cfg, stages)
    for name, status in summary.items():
        click.echo(f"{name}: {status}")


def _guarded(fn):
    try:
        fn()
    except PipelineError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)


@click.group()
def main():
    """News-based food-crisis early warning pipeline."""


_shared_options = [
    click.option("--config", "cfg_path", required=True, type=click.Path(exists=True)),
    click.option("--strict", is_flag=True, help="Fail on malformed corpus lines."),
    click.option("--exclude-target-articles", is_flag=True,
                 help="Drop articles containing a target keyword from the factors."),
]


def _with_shared(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@main.command()
@_with_shared
@click.option("--stage", "stage", type=click.Choice(STAGE_ORDER), default=None,
              help="Run a single stage instead of the full pipeline.")
def run(cfg_path, strict, exclude_target_articles, stage):
    """Run the pipeline (all stages, or one with --stage)."""
    stages = [stage] if stage else None
    _guarded(lambda: _run(cfg_path, stages, strict, exclude_target_articles))


def _stage_command(name: str, help_text: str):
    @main.command(name=name, help=help_text)
    @_with_shared
    def _cmd(cfg_path, strict, exclude_target_articles):
        _guarded(lambda: _run(cfg_path, [name], strict, exclude_target_articles))

    return _cmd


_stage_command("extract", "Filter semantic frames and extract seed features.")
_stage_command("expand", "Expand seeds with semantically close corpus n-grams.")
_stage_command("factors", "Compute monthly news-factor series.")
_stage_command("select", "Granger-screen factors and cluster the survivors.")
_stage_command("fit", "Cross-validate the baseline, news, and combined models.")
_stage_command("ablate", "Refit the combined model with each cluster removed.")
_stage_command("classify", "Sweep outbreak classifiers and pick operating points.")
_stage_command("validate", "Associate news factors with traditional indicators.")
_stage_command("report", "Emit the CSV report bundle.")


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=0)
@click.option("--districts", type=int, default=40)
@click.option("--months", type=int, default=120)
@click.option("--decoys", type=int, default=40)
@click.option("--undercover-province", default=None,
              help="Province id whose news coverage is starved.")
def synth(out_dir, seed, districts, months, decoys, undercover_province):
    """Generate a synthetic corpus/panel bundle with planted causal structure."""

    def go():
        spec = SyntheticSpec(districts=districts, months=months, decoys=decoys,
                             undercover_province=undercover_province)
        result = generate_synthetic(spec, seed, out_dir)
        click.echo(f"wrote {result['dir']} (config: {result['config']})")

    _guarded(go)


if __name__ == "__main__":
    main()
