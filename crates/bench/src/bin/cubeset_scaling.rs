//! Cube-store scaling sweep (table R12 of `EXPERIMENTS.md`): the
//! occurrence-indexed [`CubeSet`] vs the retained naive two-scan store
//! ([`NaiveCubeSet`]) on identical seeded insert streams, written as
//! `BENCH_PR10.json`. Run via `scripts/bench.sh` or directly:
//!
//! ```text
//! cargo run --release -p presat-bench --bin cubeset_scaling [out.json]
//! ```
//!
//! Three regimes:
//!
//! * `sparse` — wide cubes over 64 variables (width 3–10), so almost every
//!   insert survives and the store grows linearly with the stream. This is
//!   the regime where the naive insert's two full scans go quadratic and
//!   the watch/occurrence index pays off; the sweep over stream lengths
//!   shows the gap widening (the PR gate is ≥5× at 10 000 inserts).
//! * `dense` — narrow cubes over 12 variables (width 1–3), where constant
//!   absorption keeps both stores small. The index cannot win much here
//!   (there is nothing to skip); the record documents that it does not
//!   *lose* either.
//! * `minterm` — all 4096 minterms over 12 variables in seeded order, the
//!   shape blocking all-SAT emits. Every cube mentions every variable, so
//!   only the phase tells two cubes apart: the regime that checks the
//!   signatures are literal-keyed (`sig_rejects` must equal
//!   `subsumption_checks`; `scripts/verify.sh` gates the ratio).
//!
//! Before timing anything, every stream is run through both stores once
//! and the resulting cube sequences asserted identical — the bit-identity
//! contract `tests/cubeset_index.rs` pins is re-checked on the exact
//! streams being timed. Each record carries the index's work counters
//! (`subsumption_checks`, `sig_rejects`, `index_candidates`) next to the
//! naive store's pair-scan bound, so the speedup can be read off the work
//! actually avoided, not just wall clock.

use presat_bench::harness::fmt_duration;
use presat_logic::rng::SplitMix64;
use presat_logic::{Cube, CubeSet, Lit, NaiveCubeSet, Var};
use presat_obs::json::{self, JsonObject};

const SIZES: [usize; 4] = [1_000, 2_500, 5_000, 10_000];

fn samples() -> usize {
    std::env::var("PRESAT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// A reproducible insert stream: `inserts` random cubes of width
/// `min_width..=max_width` over `num_vars` variables. Contradictory draws
/// are retried, so the stream depends only on the seed and parameters.
fn stream(
    seed: u64,
    inserts: usize,
    num_vars: usize,
    min_width: usize,
    max_width: usize,
) -> Vec<Cube> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::with_capacity(inserts);
    while out.len() < inserts {
        let width = rng.gen_range(min_width..max_width + 1);
        let lits: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
            .collect();
        if let Ok(c) = Cube::from_lits(lits) {
            out.push(c);
        }
    }
    out
}

/// Every minterm over `num_vars` variables, shuffled by `seed`.
fn minterms(seed: u64, num_vars: usize) -> Vec<Cube> {
    let vars: Vec<Var> = Var::range(num_vars).collect();
    let mut out = Cube::top().expand_minterms(&vars);
    SplitMix64::seed_from_u64(seed).shuffle(&mut out);
    out
}

fn build_naive(cubes: &[Cube]) -> NaiveCubeSet {
    let mut s = NaiveCubeSet::new();
    for c in cubes {
        s.insert(c.clone());
    }
    s
}

fn build_indexed(cubes: &[Cube]) -> CubeSet {
    let mut s = CubeSet::new();
    for c in cubes {
        s.insert(c.clone());
    }
    s
}

/// Times one stream through both stores (interleaved round-robin, round 0
/// as warm-up) and appends a `{label: {...}}` record with medians, the
/// speedup, and the index's work counters. Returns the speedup.
fn case(out: &mut JsonObject, label: &str, cubes: &[Cube], samples: usize) -> f64 {
    // Bit-identity gate on the exact stream about to be timed.
    let naive = build_naive(cubes);
    let indexed = build_indexed(cubes);
    assert_eq!(
        naive.cubes(),
        indexed.cubes(),
        "{label}: indexed store diverged from the naive reference"
    );
    let final_cubes = indexed.len() as u64;
    let stats = indexed.index_stats();

    let mut times: [Vec<u64>; 2] = [Vec::with_capacity(samples), Vec::with_capacity(samples)];
    for round in 0..=samples {
        for (slot, bucket) in times.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            if slot == 0 {
                std::hint::black_box(build_naive(cubes).len());
            } else {
                std::hint::black_box(build_indexed(cubes).len());
            }
            let ns = t0.elapsed().as_nanos() as u64;
            if round > 0 {
                bucket.push(ns);
            }
        }
    }
    let mut medians = [0u64; 2];
    for (slot, name) in ["naive", "indexed"].into_iter().enumerate() {
        times[slot].sort_unstable();
        medians[slot] = times[slot][times[slot].len() / 2];
        println!(
            "{:<16} {:<8} median {:>10}  (min {}, max {})",
            label,
            name,
            fmt_duration(std::time::Duration::from_nanos(medians[slot])),
            fmt_duration(std::time::Duration::from_nanos(times[slot][0])),
            fmt_duration(std::time::Duration::from_nanos(
                times[slot][times[slot].len() - 1]
            )),
        );
    }
    let speedup = if medians[1] == 0 {
        0.0
    } else {
        medians[0] as f64 / medians[1] as f64
    };
    println!(
        "{label:<16} speedup {speedup:.2}x  checks {}  sig_rejects {}  candidates {}",
        stats.subsumption_checks, stats.sig_rejects, stats.index_candidates
    );

    out.begin_object(label);
    out.field_u64("inserts", cubes.len() as u64)
        .field_u64("final_cubes", final_cubes)
        .field_u64("naive_ns", medians[0])
        .field_u64("indexed_ns", medians[1])
        .field_f64("speedup", round3(speedup))
        .field_u64("subsumption_checks", stats.subsumption_checks)
        .field_u64("sig_rejects", stats.sig_rejects)
        .field_u64("index_candidates", stats.index_candidates);
    out.end_object();
    speedup
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".to_string());
    let samples = samples();
    println!("# cube-store scaling sweep ({samples} samples per case)");

    let mut o = JsonObject::new();
    o.field_str("bench", "cubeset_scaling")
        .field_u64("samples", samples as u64);

    o.begin_object("sparse");
    let mut speedup_at_max = 0.0;
    for &n in &SIZES {
        let cubes = stream(0x5105_u64 + n as u64, n, 64, 3, 10);
        let speedup = case(&mut o, &format!("sparse_{n}"), &cubes, samples);
        if n == *SIZES.last().expect("sizes nonempty") {
            speedup_at_max = speedup;
        }
    }
    o.end_object();

    o.begin_object("dense");
    let dense = stream(0xDE45, 10_000, 12, 1, 3);
    case(&mut o, "dense_10000", &dense, samples);
    o.end_object();

    o.begin_object("minterm");
    let minterm = minterms(0x3141, 12);
    case(&mut o, "minterm_4096", &minterm, samples);
    o.end_object();

    o.field_f64("speedup_at_10000", round3(speedup_at_max));

    let text = o.finish();
    json::validate(&text).expect("emitted JSON must be well-formed");
    std::fs::write(&out_path, format!("{text}\n")).expect("cannot write output file");
    println!("wrote {out_path}");
    println!("sparse 10k speedup: {speedup_at_max:.1}x (PR gate: >= 5x)");
}
