#!/usr/bin/env bash
# The hand-off check of every library PR (ROADMAP, "Open items"): the
# benchmark driver's own command from BENCHMARK.json, built in a fresh
# target directory, for every workload untraced and traced. Each run must
# exit 0 and end with the contract line `{"correct": true, … "failed": 0 …}`,
# and nothing under the benchmark's pinned paths may have changed (a
# changed dependency edge rewrites perfbench/Cargo.lock). Not part of
# ci.sh; judges correctness only and reads no wall clock. ~3 min.
set -euo pipefail
cd "$(dirname "$0")"
CARGO_TARGET_DIR="$(mktemp -d)"
export CARGO_TARGET_DIR
trap 'rm -rf "$CARGO_TARGET_DIR"' EXIT
read -ra cmd <<< "$(sed -n 's/^ *"command": *\[\(.*\)\],*$/\1/p' BENCHMARK.json | tr -d '",')"
for workload in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
    for trace in 0 1; do
        last=$("${cmd[@]}" --workload "$workload" --seed 7 --seconds 1 --trace "$trace" | tail -n 1)
        echo "$workload --trace $trace: ${last%%, \"metrics\"*}}"
        [[ $last == '{"correct": true'* && $last == *'"failed": 0'* ]] \
            || { echo "bench-handoff: $workload --trace $trace is not a correct run"; exit 1; }
    done
done
test -z "$(git status --porcelain perfbench/ BENCHMARK.json)" \
    || { echo "bench-handoff: files under the benchmark's paths changed"; exit 1; }
echo "bench-handoff: all runs correct, perfbench/ and BENCHMARK.json untouched"
