#!/usr/bin/env bash
# Usage: rerun_stages.sh CONFIG STAGE...  Reruns each stage of CONFIG's run in turn and requires
# that it writes its manifest again byte for byte. A manifest holds no timestamp: it records the
# stage's params and the digest of every input it read and every output it wrote.
set -euo pipefail
config=$1; shift
manifests=$(python -c 'import sys, newswarn.config as c; print(c.load_config(sys.argv[1]).output)' "$config")/manifests
saved=$(mktemp)
trap 'rm -f "$saved"' EXIT
for stage in "$@"; do
  mv "$manifests/$stage.json" "$saved"
  newswarn run --config "$config" --stage "$stage" | tee /dev/stderr | grep -x "$stage: run" > /dev/null
  cmp "$saved" "$manifests/$stage.json"
done
