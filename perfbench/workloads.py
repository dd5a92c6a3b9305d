"""Benchmark workloads and the location of the program under test.

The benchmark measures the newswarn pipeline from the source tree it sits in
(``<checkout>/src``), never from an installed copy, so that two checkouts at
different commits can be compared side by side.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGES = ("extract", "expand", "factors", "select", "fit", "ablate",
          "classify", "validate", "report")
RESUME_RERUN = ("classify", "report")
RESUME_TARGETS = (0.75, 0.80)  # the second restores the generated config's value
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cold": one full run per op; "resume": precision edits on a primed bundle
    spec: dict  # SyntheticSpec keyword arguments; everything else keeps its default
    why: str
    planted_effect: float | None = None  # if set, every planted feature gets this effect
    config: dict = field(default_factory=dict)  # PipelineConfig fields set after generation

    def describe(self) -> str:
        parts = [f"{k}={v}" for k, v in self.spec.items()]
        if self.planted_effect is not None:
            parts.append(f"planted effect={self.planted_effect}")
        parts += [f"{k}={v}" for k, v in self.config.items()]
        return ", ".join(parts)

    def synthetic_spec(self):
        from newswarn.synth import DEFAULT_PLANTED, SyntheticSpec

        spec = dict(self.spec)
        if self.planted_effect is not None:
            spec["planted"] = tuple(dataclasses.replace(p, effect=self.planted_effect)
                                    for p in DEFAULT_PLANTED)
        return SyntheticSpec(**spec)

    def write_config(self, config_path) -> None:
        """Apply ``config`` to the config file that ``generate_synthetic`` wrote."""
        if not self.config:
            return
        from newswarn.config import load_config, save_config

        save_config(config_path, dataclasses.replace(load_config(config_path), **self.config))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "news_volume", "cold",
            dict(districts=16, countries=1, province_size=4, months=72,
                 articles_per_country_month=250, embedding_dim=16),
            "cold run of all 9 stages with the most articles per district-month "
            "the run budget allows",
            # Criterion 7(a) must hold on every seed; see README.md.
            planted_effect=2.0,
            config=dict(granger_level=0.001),
        ),
        Workload(
            "resume", "resume",
            dict(districts=8, countries=1, province_size=4, months=60,
                 articles_per_country_month=150, embedding_dim=16),
            "precision edits on a primed bundle: cache checks and artifact reads; "
            "only classify and report rerun",
        ),
    )
}


def source_present() -> bool:
    return (SRC / "newswarn" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import newswarn from this checkout's ``src`` ahead of anything installed."""
    if not source_present():
        raise SystemExit(f"perfbench: no newswarn source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_id() -> str:
    """Hash of the program's source files, so stored digests follow the code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "newswarn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
