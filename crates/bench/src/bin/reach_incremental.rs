//! Incremental-session sweep (table R6 of `EXPERIMENTS.md`): wall-clock of
//! the backward-reachability fixed point with the per-iteration rebuild
//! path versus one persistent [`PreimageSession`], written as
//! `BENCH_PR3.json` (hand-rolled JSON, no dependencies). Run via
//! `scripts/bench.sh` or directly:
//!
//! ```text
//! cargo run --release -p presat-bench --bin reach_incremental [out.json]
//! ```
//!
//! Every timed case first asserts that the two paths produce structurally
//! identical reports (same reached cube set, same iteration rows) at both
//! 1 and 4 worker threads — the speedup is only meaningful if the work is
//! the same. Besides timings the JSON records the session-reuse counters
//! (`encodings_reused`, `learnts_carried`, `activation_lits`) and the
//! fixed-point depth, so the table can show *why* the session path wins:
//! the transition relation is encoded once instead of once per iteration
//! and learnt clauses survive across iterations.
//!
//! [`PreimageSession`]: presat_preimage::PreimageSession

#![forbid(unsafe_code)]

use presat_bench::harness::{fmt_duration, measure};
use presat_bench::workloads::{assert_identical_reach, reach_workloads, Workload};
use presat_obs::json::{self, JsonObject};
use presat_preimage::{backward_reach, ReachOptions, ReachReport, SatPreimage, StateSet};

fn samples() -> usize {
    std::env::var("PRESAT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn run(w: &Workload, jobs: usize, incremental: bool) -> ReachReport {
    backward_reach(
        &SatPreimage::success_driven().with_jobs(jobs),
        &w.circuit,
        &w.target,
        ReachOptions {
            incremental,
            ..ReachOptions::default()
        },
    )
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR3.json".to_string());
    let samples = samples();
    let cpus = presat_allsat::effective_jobs(0);
    println!(
        "# incremental reachability sweep ({samples} samples per case, {cpus} CPU(s) available)"
    );

    // The F3 reachability family plus one deep fixed point: a 7-bit counter
    // reaching 0 runs 2^7 - 1 preimage iterations, the regime where
    // per-iteration re-encoding dominates the rebuild path.
    let mut workloads = reach_workloads();
    workloads.push(Workload {
        label: "cnt7".into(),
        circuit: presat_circuit::generators::counter(7, false),
        target: StateSet::from_state_bits(0, 7),
    });

    // Determinism gate: the session path must be bit-identical to the
    // rebuild path on every workload, sequential and parallel, before any
    // timing is trusted.
    for w in &workloads {
        for jobs in [1usize, 4] {
            let rebuild = run(w, jobs, false);
            let session = run(w, jobs, true);
            assert_identical_reach(&format!("{} jobs={jobs}", w.label), &rebuild, &session);
        }
    }

    let mut o = JsonObject::new();
    o.field_str("bench", "reach_incremental")
        .field_u64("cpu_count", cpus as u64)
        .field_u64("samples", samples as u64);

    o.begin_object("reachability");
    for w in &workloads {
        let rebuild = measure(samples, || run(w, 1, false).reached_states as u64);
        let session = measure(samples, || run(w, 1, true).reached_states as u64);
        let speedup = if session.median.as_nanos() == 0 {
            0.0
        } else {
            rebuild.median.as_nanos() as f64 / session.median.as_nanos() as f64
        };
        // One extra run to snapshot the session-reuse counters (they are
        // deterministic per workload, so any run is representative).
        let report = run(w, 1, true);
        println!(
            "{:<10} rebuild {:>10}  incremental {:>10}  speedup {:.3}x  \
             (iters {}, reused {}, learnts {})",
            w.label,
            fmt_duration(rebuild.median),
            fmt_duration(session.median),
            speedup,
            report.stats.iterations,
            report.stats.encodings_reused,
            report.stats.learnts_carried,
        );
        o.begin_object(&w.label);
        o.field_u64("rebuild_ns", rebuild.median.as_nanos() as u64)
            .field_u64("incremental_ns", session.median.as_nanos() as u64)
            .field_f64("speedup", (speedup * 1000.0).round() / 1000.0)
            .field_u64("iterations", report.stats.iterations)
            .field_u64("encodings_reused", report.stats.encodings_reused)
            .field_u64("learnts_carried", report.stats.learnts_carried)
            .field_u64("activation_lits", report.stats.activation_lits)
            .field_u64("solver_calls", report.stats.solver_calls)
            .field_u64("reached_states", report.reached_states as u64);
        o.end_object();
    }
    o.end_object();

    let text = o.finish();
    json::validate(&text).expect("emitted JSON must be well-formed");
    std::fs::write(&out_path, format!("{text}\n")).expect("cannot write output file");
    println!("wrote {out_path}");
}
