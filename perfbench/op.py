"""Run one timed ``run_pipeline`` operation and print its measurements as JSON.

Every operation the benchmark times runs in a fresh interpreter, so the peak
RSS it reports (``ru_maxrss`` only ever rises within a process) belongs to
that operation alone. Warnings are recorded and counted, not silenced.

    python3 perfbench/op.py CONFIG [--precision P] [--spans PATH]

With ``--spans`` the layers are traced and the spans are written to PATH
after the operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings

from workloads import use_checkout_source


def run_op(config_path, precision=None, spans_path=None) -> dict:
    use_checkout_source()
    from newswarn import pipeline
    from newswarn.config import load_config
    from spans import Tracer, layer_metrics

    cfg = load_config(config_path)
    if precision is not None:
        cfg.precision_target = precision
    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            statuses = pipeline.run_pipeline(cfg)
            run_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "statuses": statuses,
        "warnings": len(caught),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        result["layers"]["pipeline.warnings"] = len(caught)
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--precision", type=float)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    try:
        result = run_op(args.config, args.precision, args.spans)
    except Exception as exc:  # reported to the harness, which counts the op as failed
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
