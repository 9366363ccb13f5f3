#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Compares two results.json files of benchmark/run.sh: per workload and
# end-to-end metric, the change from A to B against the bound declared in
# BENCHMARK.json, with a verdict same / worse / better / unresolved.
# Exits non-zero when any metric is worse.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: compare.sh A.json B.json" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/quasar-benchmark" compare "$1" "$2" --bounds "$root/BENCHMARK.json"
