#!/usr/bin/env bash
# Every CI gate, in order. .github/workflows/ci.yml runs exactly this
# script; run it before pushing. The clippy step is also the gate for
# the determinism and safety rules (clippy.toml, ROADMAP "Static
# analysis").
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt check =="
cargo fmt --all --check

echo "== clippy (deny warnings; the determinism and safety rules) =="
# Besides clippy's defaults this is the determinism gate: clippy.toml
# disallows the unordered, wall-clock, threading and shared-mutable
# types and methods; the deterministic crates' roots deny unwrap /
# expect / panic and undocumented unsafe; every suppression is an
# `#[expect(…, reason = "…")]` that fails once it suppresses nothing.
cargo clippy --workspace --all-targets -- -D warnings

echo "== API docs (rustdoc lints deny via the workspace's warnings = deny) =="
cargo doc --workspace --no-deps

echo "== hot-file size ratchet =="
# The five files that hold the event semantics and its drives (ROADMAP
# open item 3 wants them at 4.5 k lines). The total only goes down:
# a PR that shrinks them lowers HOT_LOC_MAX to the total it prints.
HOT_LOC_MAX=5503
hot_line="HOT_LOC"
hot_total=0
for f in crates/sim/src/session.rs crates/core/src/dissemination/mod.rs \
    crates/sim/src/queue.rs crates/sim/src/shard.rs crates/sim/src/engine.rs; do
    n=$(wc -l < "$f")
    hot_line="$hot_line ${f#crates/*/src/}=$n"
    hot_total=$((hot_total + n))
done
echo "$hot_line total=$hot_total"
test "$hot_total" -le "$HOT_LOC_MAX" \
    || { echo "hot files grew past the $HOT_LOC_MAX-line ratchet"; exit 1; }

echo "== build (release) =="
cargo build --release

echo "== test =="
cargo test -q
# The overlay APSP at the build-2500r fabric (17 500 nodes), bit for bit
# against per-source heap Dijkstra: too slow for a debug build, so it is
# #[ignore]d there and run here in release (~10 s).
cargo test --release -q -p d3t-net -- --ignored

echo "== benchmark harness (perfbench/: build, tests, bit-identity gate) =="
# perfbench/ is a workspace of its own that mirrors `Prepared::build`
# stage by stage through the crates' public API, so a library change
# that breaks the mirror fails here, not in the benchmark run: its
# tiny-scale harness_smoke runs every workload traced and untraced and
# gates stage_sum_ratio. `golden` re-derives every default-seed output
# (~70 s) and exits 1 unless all equal perfbench/golden.json — the
# standing bit-identity gate for speed-only changes.
# --locked: perfbench/Cargo.lock sits under the benchmark's pinned paths,
# so a library PR that changes a dependency edge must fail here with
# cargo's own message rather than silently rewrite it (PRs 16-18).
cargo build --release --locked --manifest-path perfbench/Cargo.toml
cargo test --release --locked --manifest-path perfbench/Cargo.toml
cargo run --release --locked -q --manifest-path perfbench/Cargo.toml --bin d3t-bench -- golden

echo "== repro smoke =="
cargo run --release -p d3t-experiments --bin repro -- fig4 --tiny > /dev/null
# What the commands below cost is d3t-bench's business (perfbench/README.md,
# "What each metric supersedes"); these are correctness greps only: each
# fails CI if an experiment stops reporting, none reads a wall clock.
# One failure-burst dynamics run (static vs churn loss, arrivals dropped).
cargo run --release -q -p d3t-experiments --bin repro -- dynamics --tiny | grep -o 'DYNAMICS .*'
# The fig8/fig11 filtering smoke: all four dissemination protocols report.
filter_out=$(cargo run --release -q -p d3t-experiments --bin repro -- filter --tiny | grep -o 'FILTER .*')
echo "$filter_out"
test "$(echo "$filter_out" | grep -c '^FILTER protocol=[a-z]* checks=[1-9][0-9]*$')" -eq 4
# The robustness sweep: crash-burst size x loss rate x repair policy, one
# RESILIENCE line per faulted cell (the self-healing-beats-passive
# separation itself is asserted by the experiment's unit tests above).
res_out=$(cargo run --release -q -p d3t-experiments --bin repro -- resilience --tiny)
echo "$res_out"
test "$(echo "$res_out" | grep -c '^RESILIENCE burst=.* loss_pct=.* mttr_ms=.* retransmits=.* reparented=')" -eq 8
# The snapshot/branch what-if: one shared prefix, one snapshot, 8
# divergent branches each driven cold and warm. Every WHATIF line must
# say equal=true (the resumed branch's report hash matches its cold
# twin's, on any machine).
whatif_out=$(cargo run --release -q -p d3t-experiments --bin repro -- \
    whatif --tiny --ticks 2000 --branches 8)
echo "$whatif_out"
test "$(echo "$whatif_out" | grep -c '^WHATIF branch=[a-z0-9-]* loss_pct=[0-9.]* report_hash=0x[0-9a-f]* equal=true$')" -eq 8
test "$(echo "$whatif_out" | grep -c '^SNAPSHOT bytes=[1-9][0-9]* pending_events=[0-9]* digest=0x[0-9a-f]*$')" -eq 1
test "$(echo "$whatif_out" | wc -l)" -eq 9

echo "CI green."
