"""newswarn benchmark: time one workload's operation and check its outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Set-up generates the workload's synthetic bundle from the seed with
``newswarn.synth.generate_synthetic`` and applies the workload's config
settings, ``SETUP_REPS`` times (for ``resume`` each set-up also makes the
priming cold run). Then operations run, each in
its own interpreter, until the next unit would take the run past
``--seconds``, with at least ``MIN_UNITS`` units: a unit is one cold run, or
one resume edit pair. In a traced run the first unit is untraced and the
second traced. Every operation is checked (see ``gate.py``). Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything runs inside the checkout, under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
from workloads import (RESUME_RERUN, RESUME_TARGETS, ROOT, SETUP_REPS, STAGES, WORK,
                       WORKLOADS, source_id, source_present, use_checkout_source)

DEADLINE_S = 170.0  # the run must end within 180 s
MIN_UNITS = 2  # two cold runs or two resume pairs; a traced run traces the second
OP_SCRIPT = Path(__file__).resolve().parent / "op.py"
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "output_mb": "MiB"}


def layer_unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_s") or ".stage_s." in metric:
        return "s"
    if metric == "trace.coverage":
        return "ratio"
    return "count"


@dataclass
class Bundle:
    dir: Path
    config: str
    truth: dict

    @property
    def run_dir(self) -> Path:
        return self.dir / "run"


class Bench:
    """One benchmark run: set-ups, timed operations and their checks."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.ops: list[dict] = []
        self.digest_store = work.parent / "digests.json"
        self.digest_prefix = ""
        self.digests: dict[str, str] = {}

    # ------------------------------------------------------------ operations

    def spawn_op(self, bundle: Bundle, precision=None, spans=None) -> dict:
        cmd = [sys.executable, str(OP_SCRIPT), bundle.config]
        if precision is not None:
            cmd += ["--precision", repr(precision)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}

    def checked_op(self, bundle: Bundle, label: str, rerun, precision=None,
                   traced=False, timed=True, extra_check=None) -> dict:
        """Run one operation, apply the gate, and record it."""
        spans = None
        if traced:
            spans = (self.work.parent / "trace"
                     / f"{self.workload.name}-seed{self.seed}-op{len(self.ops)}.tsv")
            spans.parent.mkdir(parents=True, exist_ok=True)
        result = self.spawn_op(bundle, precision, spans)
        problems = [result["error"]] if "error" in result else []
        if not problems:
            problems += gate.status_problems(result["statuses"],
                                             gate.expected_statuses(STAGES, rerun))
            found, total = gate.verify_outputs(bundle.run_dir)
            problems += found
            result["output_mb"] = total / 2**20
            result["digest"] = gate.output_digest(bundle.run_dir)
            problems += self.expect_digest(label, result["digest"])
            if extra_check and not problems:
                problems += extra_check(bundle)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label} on {bundle.dir.name}: {p}" for p in problems]
        result.update(label=label, traced=traced, ok=not problems)
        if timed:
            self.ops.append(result)
        return result

    def expect_digest(self, label: str, digest: str) -> list[str]:
        """Repeats of one (workload, seed, operation) must give identical outputs."""
        known = self.digests.setdefault(label, digest)
        if known == digest:
            return []
        return [f"outputs {digest[:12]} differ from an earlier repeat ({known[:12]})"]

    def _stored_digests(self) -> dict:
        try:
            return json.loads(self.digest_store.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def save_digests(self) -> None:
        stored = self._stored_digests()
        stored.update({self.digest_prefix + k: v for k, v in self.digests.items()})
        self.digest_store.parent.mkdir(parents=True, exist_ok=True)
        self.digest_store.write_text(json.dumps(stored, indent=1, sort_keys=True),
                                     encoding="utf-8")

    # ------------------------------------------------------------- workflow

    def setup(self) -> list[Bundle]:
        from newswarn.synth import generate_synthetic

        bundles = []
        for i in range(SETUP_REPS):
            start = time.perf_counter()
            info = generate_synthetic(self.workload.synthetic_spec(), self.seed,
                                      self.work / f"bundle{i}")
            self.generate_s.append(time.perf_counter() - start)
            self.workload.write_config(info["config"])
            self.setup_s.append(time.perf_counter() - start)
            bundles.append(Bundle(Path(info["dir"]), info["config"], info["truth"]))
        inputs = sorted({gate.bundle_digest(b.dir) for b in bundles})
        if len(inputs) != 1:
            self.problems.append(f"{len(inputs)} different bundles from one seed")
        # Stored digests are keyed by program source and input bundle, so a
        # repeat in a later run is compared only against the same code and inputs.
        self.digest_prefix = f"{source_id()}/{inputs[0][:16]}/"
        self.digests = {k[len(self.digest_prefix):]: v
                        for k, v in self._stored_digests().items()
                        if k.startswith(self.digest_prefix)}
        if self.workload.kind == "resume":
            for i, bundle in enumerate(bundles):
                primed = self.checked_op(bundle, f"resume@{RESUME_TARGETS[-1]}", None,
                                         timed=False)
                self.setup_s[i] += primed.get("run_s", 0.0)
        return bundles

    def run_unit(self, bundle: Bundle, traced: bool) -> None:
        if self.workload.kind == "cold":
            shutil.rmtree(bundle.run_dir, ignore_errors=True)
            self.checked_op(bundle, "cold", None, traced=traced,
                            extra_check=lambda b: gate.criterion_7a(b.run_dir, b.truth))
        else:
            for target in RESUME_TARGETS:
                self.checked_op(bundle, f"resume@{target}", RESUME_RERUN, target,
                                traced=traced)

    def run(self) -> None:
        use_checkout_source()
        bundles = self.setup()
        units, measured = 0, 0.0
        while True:
            start = time.monotonic()
            self.run_unit(bundles[units % len(bundles)], self.trace and units % 2 == 1)
            last = time.monotonic() - start
            measured += last
            units += 1
            if units >= MIN_UNITS and (measured + last > self.seconds
                                       or time.monotonic() + 1.25 * last > self.deadline):
                break
        self.save_digests()

    # -------------------------------------------------------------- results

    def completed(self, traced: bool) -> list[dict]:
        return [op for op in self.ops if op["traced"] == traced and "run_s" in op]

    def end_to_end(self) -> dict[str, float]:
        plain = self.completed(traced=False)
        return {
            "run_s": statistics.median(op["run_s"] for op in plain),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
            "output_mb": statistics.median(op["output_mb"] for op in plain),
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.completed(traced=True)
        metrics = {name: statistics.fmean(op["layers"][name] for op in traced)
                   for name in traced[0]["layers"]}
        metrics["synth.generate_s"] = statistics.median(self.generate_s)
        traced_run = statistics.median(op["run_s"] for op in traced)
        metrics["trace.run_s"] = traced_run
        metrics["trace.overhead_s"] = traced_run - statistics.median(
            op["run_s"] for op in self.completed(traced=False))
        metrics["trace.coverage"] = statistics.fmean(
            sum(v for k, v in op["layers"].items() if k.endswith(".self_s")) / op["run_s"]
            for op in traced)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="newswarn benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"perfbench: no newswarn source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so a running operation is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name} (seed {args.seed}, {workload.kind}): "
          f"{workload.describe()}")
    for op in bench.ops:
        print(f"  op {op['label']:<13} traced={int(op['traced'])} ok={int(op['ok'])} "
              f"run_s={op.get('run_s', float('nan')):.3f} "
              f"warnings={op.get('warnings', '-')} digest={op.get('digest', '-')[:16]}")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    if not bench.completed(traced=False) or (args.trace and not bench.completed(traced=True)):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    units = {m: END_TO_END[m] if m in END_TO_END else layer_unit(m) for m in metrics}
    if not args.trace:
        print(f"  error_rate {bench.failed / bench.attempted:.4f} "
              f"({bench.failed} of {bench.attempted} operations failed)")
    for name in sorted(metrics):
        print(f"  {name} {metrics[name]:.6g} {units[name]}")
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
