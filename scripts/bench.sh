#!/usr/bin/env bash
# Regenerates the checked-in benchmark JSON:
#
#   BENCH_PR2.json — thread-scaling sweep (preimage-step + reachability
#                    workloads at --jobs 1/2/4);
#   BENCH_PR3.json — incremental-session sweep (rebuild-per-iteration vs
#                    one persistent solver session across the backward
#                    fixed point, with session-reuse counters);
#   BENCH_PR4.json — budget-polling overhead probe (unlimited enumeration
#                    vs a generous never-tripping budget + cancel token);
#   BENCH_PR5.json — propagation-throughput probe (flat clause arena vs a
#                    faithful replica of the pre-arena Vec-of-Vec store:
#                    BCP sweeps, resident clause bytes, worker-clone cost);
#   BENCH_PR6.json — clause-DB flatness probe (peak clause-DB size vs
#                    solution count, blocking vs chrono enumeration);
#   BENCH_PR7.json — propagation-throughput rerun after the binary-watch
#                    split plus the root-level inprocessing row (live
#                    clause words before/after on the churn workload).
#                    Supersedes BENCH_PR5.json, kept for history.
#   BENCH_PR8.json — cube-balance sweep (static prefix partitioning vs
#                    adaptive cube-and-conquer on the preimage-step
#                    workloads, plus the spawn-gate check on the small
#                    reachability workloads; records cpu_count — on a
#                    single-CPU host the gated rows are the meaningful
#                    ones).
#   BENCH_PR10.json — cube-store scaling sweep (occurrence-indexed CubeSet
#                    vs the retained naive two-scan store on seeded insert
#                    streams: sparse growth regime at 1k–10k inserts, a
#                    dense absorption regime and a full-support minterm
#                    regime, with the index work counters).
#   BENCH_R14.json — session-inprocessing sweep (deep backward fixed points
#                    with inprocessing on, scheduled on clause-DB growth,
#                    and off: wall-clock, inprocess rounds, arena peak and
#                    step time by depth quarter).
#
# All binaries assert result equality between the compared configurations
# before timing anything, so a successful run is also a determinism check.
#
#   scripts/bench.sh              # 5 samples per case (default)
#   PRESAT_BENCH_SAMPLES=11 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p presat-bench
./target/release/thread_scaling BENCH_PR2.json
./target/release/reach_incremental BENCH_PR3.json
./target/release/budget_overhead BENCH_PR4.json
./target/release/propagation_throughput BENCH_PR7.json
./target/release/chrono_db_flatness BENCH_PR6.json
./target/release/cube_balance BENCH_PR8.json
./target/release/cubeset_scaling BENCH_PR10.json
./target/release/reach_inprocess BENCH_R14.json

# Show how the checked-in numbers moved (informational; timings drift with
# hardware, the structure should not).
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  git --no-pager diff --stat -- BENCH_PR2.json BENCH_PR3.json BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR8.json BENCH_PR10.json BENCH_R14.json || true
fi
echo "bench: OK"
