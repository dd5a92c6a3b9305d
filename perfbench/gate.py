"""Correctness checks the benchmark applies to every operation it times.

An operation fails when it raises, when its stage statuses are not the
expected ones, when an output listed in a manifest is missing or no longer
matches its recorded hash, when a cold bundle misses criterion 7(a), or when
repeating it gives different outputs. Outputs are compared through a digest
of the hashes the manifests already record, keyed by paths relative to the
run directory (the manifests hold absolute paths), so the digest is the same
wherever the bundle lives and can be compared across commits.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

# Criterion 7(a) of the acceptance suite.
MIN_PLANTED_RETAINED = 4
MAX_DECOY_SHARE = 0.05


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_outputs(run_dir) -> dict[str, tuple[str, str]]:
    """Every output any manifest lists: relative path -> (absolute path, hash)."""
    run_dir = Path(run_dir).resolve()
    outputs = {}
    for manifest in sorted((run_dir / "manifests").glob("*.json")):
        if manifest.name.endswith(".error.json"):
            continue
        recorded = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        for path, digest in recorded.items():
            rel = Path(os.path.relpath(Path(path).resolve(), run_dir)).as_posix()
            outputs[rel] = (path, digest)
    return outputs


def output_digest(run_dir) -> str:
    """Digest of the recorded output hashes, keyed by run-relative path."""
    outputs = manifest_outputs(run_dir)
    keyed = {rel: digest for rel, (_, digest) in sorted(outputs.items())}
    return hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()


def verify_outputs(run_dir) -> tuple[list[str], int]:
    """(problems, total bytes) for the outputs the manifests list."""
    outputs = manifest_outputs(run_dir)
    problems = []
    total = 0
    if not outputs:
        problems.append("no manifest lists any output")
    for rel, (path, digest) in sorted(outputs.items()):
        if not os.path.isfile(path):
            problems.append(f"output {rel} is missing")
            continue
        total += os.path.getsize(path)
        if _sha256(path) != digest:
            problems.append(f"output {rel} does not match its manifest hash")
    return problems, total


def expected_statuses(stages, rerun) -> dict[str, str]:
    """All stages ``run`` on a cold run; on a resume only ``rerun`` reruns."""
    return {s: "run" if rerun is None or s in rerun else "cached" for s in stages}


def status_problems(statuses: dict, expected: dict) -> list[str]:
    if statuses == expected:
        return []
    wrong = {s: statuses.get(s) for s in expected if statuses.get(s) != expected[s]}
    return [f"stage statuses {wrong}, expected {expected}"]


def criterion_7a(run_dir, truth: dict) -> list[str]:
    """At least 4 of 5 planted features retained and at most 5% decoy false positives."""
    retained = set(json.loads((Path(run_dir) / "retained.json").read_text(encoding="utf-8")))
    planted = {p["ngram"] for p in truth["planted"]}
    decoys = set(truth["decoys"])
    n_planted = len(planted & retained)
    n_decoy = len(decoys & retained)
    if n_planted >= MIN_PLANTED_RETAINED and n_decoy <= MAX_DECOY_SHARE * len(decoys):
        return []
    return [f"criterion 7(a): planted retained {n_planted}/{len(planted)}, "
            f"decoy false positives {n_decoy}/{len(decoys)}"]


def bundle_digest(bundle_dir) -> str:
    """Digest of a generated input bundle, by file name.

    ``config.ini`` is left out because it records the bundle's absolute paths.
    """
    files = sorted(p for p in Path(bundle_dir).iterdir()
                   if p.is_file() and p.name != "config.ini")
    keyed = {p.name: _sha256(p) for p in files}
    return hashlib.sha256(json.dumps(keyed, sort_keys=True).encode()).hexdigest()
