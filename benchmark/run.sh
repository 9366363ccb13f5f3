#!/usr/bin/env bash
# Builds the benchmark and runs it. One process per workload.
#
#   benchmark/run.sh [--seed N] [--repeats R | --seconds S] [--workload NAME]
#                    [--trace [0|1]] [--smoke]
#
# With --workload: runs that workload once and ends with the one-line JSON
# result (end-to-end metrics with --trace 0, per-layer metrics with
# --trace 1). Without: runs every workload end to end (three repeats each
# unless told otherwise, one with --smoke), with --trace also every
# per-layer run, and gathers benchmark/out/results.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

workload=""
seed=1
trace=0
pass=()
timing=0
smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --trace)
            # The driver passes a value; by hand it is a bare flag.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        --repeats|--seconds) timing=1; pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        --smoke) smoke=1; pass+=("$1"); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The driver sets CARGO_TARGET_DIR; by hand, share the repository's target/.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/quasar-benchmark"
mkdir -p "$out"
pass+=(--seed "$seed")

if [ -n "$workload" ]; then
    exec "$bin" run --workload "$workload" --trace "$trace" --out-dir "$out" "${pass[@]}"
fi

if [ "$timing" = 0 ]; then
    if [ "$smoke" = 1 ]; then pass+=(--repeats 1); else pass+=(--repeats 3); fi
fi
status=0
records=()
for w in cloud_mix_under cloud_mix_over recurring_jobs sim_stream; do
    "$bin" run --workload "$w" --trace 0 --out-dir "$out" "${pass[@]}" | grep -v '^{' || status=1
    records+=("$out/$w.end_to_end.json")
    if [ "$trace" = 1 ]; then
        "$bin" run --workload "$w" --trace 1 --out-dir "$out" "${pass[@]}" | grep -v '^{' || status=1
        records+=("$out/$w.per_layer.json")
    fi
done

{
    printf '{"seed": %s, "runs": [\n' "$seed"
    sep=""
    for r in "${records[@]}"; do
        printf '%s' "$sep"
        tr -d '\n' < "$r"
        sep=$',\n'
    done
    printf '\n]}\n'
} > "$out/results.json"
echo "# wrote $out/results.json" >&2
exit "$status"
