//! Session-inprocessing sweep (table R14 of `EXPERIMENTS.md`): the
//! backward fixed point on deep counters with the persistent session's
//! root-level inprocessing on and off, written as `BENCH_R14.json`
//! (hand-rolled JSON, no dependencies). Run via `scripts/bench.sh` or
//! directly:
//!
//! ```text
//! cargo run --release -p presat-bench --bin reach_inprocess [out.json]
//! ```
//!
//! Every case first asserts that both modes produce structurally identical
//! reports (same reached cube set, same iteration rows): inprocessing is
//! equivalence-preserving, so only time and work counters may move. Per
//! mode the JSON records the median wall-clock of the whole fixed point,
//! the `inprocess_rounds` counter, the arena high-water gauge, and the mean
//! preimage step time in each quarter of the fixed point's depth — a pass
//! whose cost grows with the clause DB shows up as steps that slow down
//! with depth.

#![forbid(unsafe_code)]

use std::time::Duration;

use presat_bench::harness::fmt_duration;
use presat_bench::workloads::{assert_identical_reach, deep_reach_workloads, Workload};
use presat_obs::json::{self, JsonObject};
use presat_preimage::{backward_reach, ReachOptions, ReachReport, SatPreimage};

fn samples() -> usize {
    std::env::var("PRESAT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn run(w: &Workload, inprocess: bool) -> ReachReport {
    backward_reach(
        &SatPreimage::success_driven(),
        &w.circuit,
        &w.target,
        ReachOptions::default().with_inprocess(inprocess),
    )
}

/// Median wall-clock over `samples` runs (after one warm-up) and the mean
/// step time of each depth quarter over all of them, plus the last report.
fn measure(
    w: &Workload,
    inprocess: bool,
    samples: usize,
) -> (Duration, [Duration; 4], ReachReport) {
    let mut report = run(w, inprocess);
    let mut totals = Vec::with_capacity(samples);
    let mut quarter_sum = [Duration::ZERO; 4];
    let mut quarter_steps = [0u32; 4];
    for _ in 0..samples.max(1) {
        let t0 = std::time::Instant::now();
        report = run(w, inprocess);
        totals.push(t0.elapsed());
        let depth = report.iterations.len();
        for (i, it) in report.iterations.iter().enumerate() {
            let q = i * 4 / depth;
            quarter_sum[q] += it.elapsed;
            quarter_steps[q] += 1;
        }
    }
    totals.sort_unstable();
    let quarters = std::array::from_fn(|q| quarter_sum[q] / quarter_steps[q].max(1));
    (totals[totals.len() / 2], quarters, report)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_R14.json".to_string());
    let samples = samples();
    println!("# session-inprocessing sweep ({samples} samples per case)");

    let mut o = JsonObject::new();
    o.field_str("bench", "reach_inprocess")
        .field_u64("samples", samples as u64);
    o.begin_object("reachability");
    for w in &deep_reach_workloads() {
        let label = &w.label;
        let on = run(w, true);
        let off = run(w, false);
        assert_identical_reach(label, &on, &off);

        o.begin_object(label);
        o.field_u64("iterations", on.iterations.len() as u64);
        for (mode, inprocess) in [("inprocess", true), ("off", false)] {
            let (total, quarters, report) = measure(w, inprocess, samples);
            let sat = report.stats.allsat.sat;
            println!(
                "{label:<6} {mode:<9} {:>10}  rounds {:>4}  arena peak {:>7} B  \
                 step by depth quarter {} / {} / {} / {}",
                fmt_duration(total),
                sat.inprocess_rounds,
                sat.arena_bytes,
                fmt_duration(quarters[0]),
                fmt_duration(quarters[1]),
                fmt_duration(quarters[2]),
                fmt_duration(quarters[3]),
            );
            o.begin_object(mode);
            o.field_u64("total_ns", total.as_nanos() as u64)
                .field_u64("inprocess_rounds", sat.inprocess_rounds)
                .field_u64("arena_bytes_peak", sat.arena_bytes)
                .field_u64("propagations", sat.propagations);
            for (q, d) in quarters.iter().enumerate() {
                o.field_u64(&format!("step_ns_q{}", q + 1), d.as_nanos() as u64);
            }
            o.end_object();
        }
        o.end_object();
    }
    o.end_object();

    let text = o.finish();
    json::validate(&text).expect("emitted JSON must be well-formed");
    std::fs::write(&out_path, format!("{text}\n")).expect("cannot write output file");
    println!("wrote {out_path}");
}
