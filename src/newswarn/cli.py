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


def _guarded(fn):
    try:
        fn()
    except PipelineError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)


@click.group()
def main():
    """News-based food-crisis early warning pipeline."""


@main.command()
@click.option("--config", "cfg_path", required=True, type=click.Path(exists=True))
@click.option("--strict", is_flag=True, help="Fail on malformed corpus lines.")
@click.option("--exclude-target-articles", is_flag=True,
              help="Drop articles containing a target keyword from the factors.")
@click.option("--stage", "stage", type=click.Choice(STAGE_ORDER), default=None,
              help="Run a single stage instead of the full pipeline.")
def run(cfg_path, strict, exclude_target_articles, stage):
    """Run the pipeline (all stages, or one with --stage)."""

    def go():
        cfg = load_config(cfg_path)
        if strict:
            cfg.strict = True
        if exclude_target_articles:
            cfg.exclude_target_articles = True
        for name, status in run_pipeline(cfg, [stage] if stage else None).items():
            click.echo(f"{name}: {status}")

    _guarded(go)


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
