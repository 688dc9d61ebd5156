//! Seeded end-to-end and per-layer benchmark for presat.
//!
//! ```text
//! perfbench --workload <search|enum|reach|daemon> --seed <n> --seconds <s>
//!           --trace <0|1> --presatd <path-to-presatd> [--capacity]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! seed's ops again with every layer call timed from here and reports the
//! per-layer metrics. `--capacity` (daemon only) measures the closed-loop
//! small-request capacity the open loop's rate is set from. Human-readable
//! lines (with sample counts) go first; the last stdout line is one JSON
//! object. See README.md.

mod daemon;
mod gen;
mod ops;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use presat_logic::rng::SplitMix64;
use presat_obs::JsonObject;

use crate::gen::Instance;
use crate::ops::{Spans, Work};

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 5;
/// Set-ups repeat until they have taken this long in all, so that cheap
/// set-ups get a median over many samples.
const SETUP_TOTAL: Duration = Duration::from_secs(2);
/// Minimum completed ops per end-to-end run, so that at least ten samples
/// lie beyond p90.
const MIN_OPS: usize = 100;
/// Untraced/traced pass pairs in a trace run.
const TRACE_ROUNDS: usize = 3;
/// A run stops after this much wall time even short of `MIN_OPS`.
const WALL_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Measure the daemon's closed-loop small-request capacity instead.
    capacity: bool,
    presatd: String,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace,
        capacity: args.iter().any(|a| a == "--capacity"),
        presatd: get("--presatd").unwrap_or("").to_string(),
    })
}

/// One memory field (`VmHWM:`, `VmRSS:`) of a `/proc/<pid>/status` file,
/// in MiB.
pub fn status_mb(status_path: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns the memory set-up has freed to the kernel, resets this
/// process's `VmHWM` to its current RSS, and returns that RSS in MiB: the
/// floor under the measured ops' peak.
fn reset_peak_rss() -> f64 {
    // SAFETY: `malloc_trim` only releases free memory; no Rust allocation
    // is touched.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("/proc/self/status", "VmRSS:").unwrap_or(0.0)
}

/// Linear-interpolated quantile `q` of `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Each sample replaced by the mean of all samples of its input
/// (`inputs[k]` is sample `k`'s pool index). The host's speed shifts for
/// seconds at a time, and a quantile of raw samples flips between its fast
/// and slow readings; an input's mean moves smoothly (see README.md).
fn input_means(inputs: &[usize], samples: &[f64]) -> Vec<f64> {
    let len = inputs.iter().max().map_or(0, |&i| i + 1);
    let mut sum = vec![0.0; len];
    let mut count = vec![0usize; len];
    for (&i, &x) in inputs.iter().zip(samples) {
        sum[i] += x;
        count[i] += 1;
    }
    inputs.iter().map(|&i| sum[i] / count[i] as f64).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The run's outcome: metrics in print order, with units and sample counts.
#[derive(Default)]
struct Report {
    attempted: u64,
    /// Wrong, errored, refused or unanswered ops.
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Printed for people, kept out of the JSON line.
    notes: Vec<(&'static str, f64, &'static str, usize)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push((name, value, unit, samples));
    }

    fn print(&self, workload: &str) {
        for (name, value, unit, n) in self.metrics.iter().chain(&self.notes) {
            println!("{workload:>7} {name:<30} {value:>14.4} {unit:<6} n={n}");
        }
        let error_rate = ratio(self.failed, self.attempted);
        println!(
            "{workload:>7} {:<30} {error_rate:>14.4} {:<6} n={}",
            "error_rate", "ratio", self.attempted
        );
        let mut metrics = JsonObject::new();
        for (name, value, unit, _) in &self.metrics {
            metrics
                .begin_object(name)
                .field_f64("value", *value)
                .field_str("unit", unit)
                .end_object();
        }
        let mut o = JsonObject::new();
        o.field_bool("correct", self.failed == 0)
            .field_u64("attempted", self.attempted)
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        println!("{}", o.finish());
    }
}

/// One set-up: the seeded pool(s) with reference answers, and for the
/// daemon a spawned, warmed-up `presatd`.
struct Setup {
    pool: Vec<Instance>,
    heavy: Vec<Instance>,
    daemon: Option<daemon::Daemon>,
}

fn setup(args: &Args, rng: &mut SplitMix64) -> Result<Setup, String> {
    let pool = gen::pool(&args.workload, rng)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if args.workload != "daemon" {
        return Ok(Setup {
            pool,
            heavy: Vec::new(),
            daemon: None,
        });
    }
    let heavy = gen::heavy_pool(rng);
    if args.presatd.is_empty() {
        return Err("the daemon workload needs --presatd".into());
    }
    let mut d = daemon::Daemon::spawn(&args.presatd)?;
    d.warm_up(&pool[0])?;
    Ok(Setup {
        pool,
        heavy,
        daemon: Some(d),
    })
}

/// Runs set-ups from the same seed (`SETUPS` or more, for `SETUP_TOTAL`)
/// and keeps the last; returns it with the median set-up time and the
/// number of set-ups.
fn timed_setups(args: &Args) -> Result<(Setup, f64, usize), String> {
    let mut times = Vec::new();
    let mut kept = None;
    let all = Instant::now();
    while times.len() < SETUPS || all.elapsed() < SETUP_TOTAL {
        let mut rng = SplitMix64::seed_from_u64(args.seed);
        let t = Instant::now();
        let s = setup(args, &mut rng)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(s) {
            if let Some(d) = old.daemon {
                d.shutdown()?;
            }
        }
    }
    let s = kept.ok_or("no set-up ran")?;
    Ok((s, quantile(&times, 0.5), times.len()))
}

/// The op order: the pool in a fresh seeded shuffle per cycle.
struct Schedule {
    rng: SplitMix64,
    cycle: Vec<usize>,
    len: usize,
}

impl Schedule {
    fn new(seed: u64, len: usize) -> Self {
        Schedule {
            rng: SplitMix64::seed_from_u64(seed ^ 0x5eed_0f0b),
            cycle: Vec::new(),
            len,
        }
    }

    fn next(&mut self) -> usize {
        if self.cycle.is_empty() {
            self.cycle = (0..self.len).collect();
            self.rng.shuffle(&mut self.cycle);
        }
        self.cycle.pop().expect("refilled above")
    }
}

fn check(inst: &mut Instance, answer: &[presat_logic::Cube], report: &mut Report) {
    report.attempted += 1;
    if !inst.checker.check(answer) {
        report.failed += 1;
        eprintln!("wrong answer on {} ({:?})", inst.label, inst.kind);
    }
}

/// End-to-end run of an in-process workload: one closed-loop client.
fn end_to_end_inprocess(args: &Args, mut s: Setup, setup_s: f64, setups: usize) -> Report {
    let mut report = Report::default();
    // One untimed pass first does every answer's BDD check; the timed ops
    // then match the accepted answers by fingerprint, so the checkers' BDD
    // managers are freed before the peak-RSS reset.
    for inst in s.pool.iter_mut() {
        let answer = ops::run(inst);
        check(inst, &answer, &mut report);
        inst.checker.release();
    }
    let floor = reset_peak_rss();
    let mut sched = Schedule::new(args.seed, s.pool.len());
    let mut inputs = Vec::new();
    let mut samples = Vec::new();
    let mut cubes = Vec::new();
    let mut busy = 0.0;
    let wall = Instant::now();
    while (busy < args.seconds || samples.len() < MIN_OPS) && wall.elapsed() < WALL_CAP {
        let i = sched.next();
        let inst = &mut s.pool[i];
        let t = Instant::now();
        let answer = ops::run(inst);
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        inputs.push(i);
        samples.push(dt * 1e3);
        cubes.push(answer.len() as f64);
        check(inst, &answer, &mut report);
    }
    let rss = status_mb("/proc/self/status", "VmHWM:").unwrap_or(0.0);
    let lat = input_means(&inputs, &samples);
    let n = lat.len();
    report.metric("setup_s", setup_s, "s", setups);
    report.metric("ops_per_s", n as f64 / busy, "1/s", n);
    report.metric("latency_ms_p50", quantile(&lat, 0.5), "ms", n);
    report.metric("latency_ms_p90", quantile(&lat, 0.9), "ms", n);
    report.metric("peak_rss_mb", rss, "MiB", 1);
    report.metric("answer_cubes", mean(&cubes), "count", n);
    report.note("rss_floor_mb", floor, "MiB", 1);
    report
}

/// End-to-end run of the daemon workload.
fn end_to_end_daemon(
    args: &Args,
    mut s: Setup,
    setup_s: f64,
    setups: usize,
) -> Result<Report, String> {
    let mut d = s.daemon.take().ok_or("daemon not started")?;
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x10ad);
    let load = daemon::run_load(
        &mut d,
        &mut s.pool,
        &mut s.heavy,
        args.seconds,
        daemon::Arrivals::Open,
        &mut rng,
    )?;
    let rss = d.peak_rss_mb().unwrap_or(0.0);
    d.shutdown()?;
    let mut report = Report {
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    let lat = input_means(&load.latency_input, &load.latency_ms);
    let n = lat.len();
    let done = n + load.heavy_s.len();
    report.metric("setup_s", setup_s, "s", setups);
    report.metric("ops_per_s", done as f64 / load.elapsed_s, "1/s", done);
    report.metric("latency_ms_p50", quantile(&lat, 0.5), "ms", n);
    report.metric("latency_ms_p90", quantile(&lat, 0.9), "ms", n);
    report.metric("peak_rss_mb", rss, "MiB", 1);
    report.metric("answer_cubes", mean(&load.answer_cubes), "count", n);
    let h = load.heavy_s.len();
    report.note("heavy_job_s", quantile(&load.heavy_s, 0.5), "s", h);
    Ok(report)
}

/// What the traced passes over a pool collected.
#[derive(Default)]
struct Traced {
    spans: Vec<Spans>,
    /// Work of each traced pass, summed over its ops.
    pass_work: Vec<Work>,
    untraced_s: f64,
    traced_s: f64,
}

/// `TRACE_ROUNDS` pairs of one untraced and one traced pass over the pool.
fn trace_passes(pool: &mut [Instance], report: &mut Report) -> Traced {
    let mut t = Traced::default();
    for _ in 0..TRACE_ROUNDS {
        for inst in pool.iter_mut() {
            let start = Instant::now();
            let answer = ops::run(inst);
            t.untraced_s += start.elapsed().as_secs_f64();
            check(inst, &answer, report);
        }
        let mut work = Work::default();
        for inst in pool.iter_mut() {
            let (answer, spans, w) = ops::run_traced(inst);
            t.traced_s += spans.op.as_secs_f64();
            check(inst, &answer, report);
            work.add(&w);
            t.spans.push(spans);
        }
        t.pass_work.push(work);
    }
    t
}

/// Picks one layer call's time out of an op's spans, if the op made it.
type SpanPick<'a> = &'a dyn Fn(&Spans) -> Option<Duration>;

/// Per-layer metrics from the traced passes: counts are means per op over
/// one pass, ratios are over that pass's sums, times are means over every
/// traced op that made the call.
fn layer_metrics(t: &Traced, report: &mut Report) {
    let w = t.pass_work[0];
    let ops = t.spans.len() / TRACE_ROUNDS;
    for (name, total) in [
        ("sat.propagations", w.propagations),
        ("sat.conflicts", w.conflicts),
        ("sat.decisions", w.decisions),
        ("allsat.solver_calls", w.solver_calls),
        ("graph.nodes", w.graph_nodes),
        ("cube_store.subsumption_checks", w.subsumption_checks),
        ("allsat.blocking_clauses", w.blocking_clauses),
        ("allsat.db_clauses_peak", w.db_clauses_peak),
        ("reach.iterations", w.reach_iterations),
        ("reach.learnts_carried", w.learnts_carried),
        ("sat.inprocess_rounds", w.inprocess_rounds),
        ("sat.db_compactions", w.db_compactions),
        ("encoding.clauses", w.encoding_clauses),
        ("encoding.cones_skipped", w.cones_skipped),
    ] {
        report.metric(name, ratio(total, ops as u64), "count", ops);
    }
    report.metric(
        "sat.arena_bytes_peak",
        w.arena_bytes_peak as f64,
        "bytes",
        ops,
    );
    for (name, num, den) in [
        ("sat.binary_skip_ratio", w.binary_skips, w.propagations),
        (
            "allsat.cache_hit_ratio",
            w.cache_hits,
            w.cache_hits + w.cache_misses,
        ),
        (
            "allsat.lift_ratio",
            w.literals_after_lift,
            w.literals_before_lift,
        ),
        (
            "cube_store.sig_reject_ratio",
            w.sig_rejects,
            w.index_candidates,
        ),
    ] {
        report.metric(name, ratio(num, den), "ratio", ops);
    }

    let nonzero = |d: Duration| (!d.is_zero()).then_some(d);
    let timings: [(&str, SpanPick); 8] = [
        ("allsat.enumerate_ms", &|s| nonzero(s.enumerate)),
        ("allsat.first_solution_ms", &|s| s.first_solution),
        ("cube_store.replay_ms", &|s| Some(s.replay)),
        ("graph.to_cubes_ms", &|s| s.to_cubes),
        // Only preimage ops fold (they are the ones that encode).
        ("preimage.fold_ms", &|s| nonzero(s.encode).map(|_| s.fold)),
        ("reach.driver_new_ms", &|s| nonzero(s.driver_new)),
        ("circuit.parse_ms", &|s| Some(s.parse)),
        ("encoding.build_ms", &|s| nonzero(s.encode)),
    ];
    for (name, f) in timings {
        let xs: Vec<f64> = t.spans.iter().filter_map(|s| f(s).map(ms)).collect();
        report.metric(name, mean(&xs), "ms", xs.len());
    }
    let steps: Vec<f64> = t
        .spans
        .iter()
        .flat_map(|s| s.steps.iter().map(|&d| ms(d)))
        .collect();
    let sn = steps.len();
    report.metric("reach.step_ms_p50", quantile(&steps, 0.5), "ms", sn);
    report.metric("reach.step_ms_p90", quantile(&steps, 0.9), "ms", sn);

    let n = t.spans.len();
    let overhead = (t.traced_s - t.untraced_s) / t.untraced_s * 100.0;
    report.metric("trace.overhead_pct", overhead, "%", n);
    let covered: f64 = t.spans.iter().map(|s| s.covered().as_secs_f64()).sum();
    let op_total: f64 = t.spans.iter().map(|s| s.op.as_secs_f64()).sum();
    report.metric("trace.coverage", covered / op_total, "ratio", n);

    // Determinism self-check: every traced pass must do identical work.
    let mut mismatches = 0u64;
    for (k, other) in t.pass_work.iter().enumerate().skip(1) {
        for ((name, a), (_, b)) in w.fields().iter().zip(other.fields()) {
            if *a != b {
                mismatches += 1;
                eprintln!(
                    "determinism: {name} is {a} in traced pass 1 but {b} in pass {}",
                    k + 1
                );
            }
        }
    }
    let passes = t.pass_work.len();
    report.metric(
        "trace.counter_mismatches",
        mismatches as f64,
        "count",
        passes,
    );
}

/// The traced run: per-layer metrics for the same seed.
fn traced_run(args: &Args, mut s: Setup) -> Result<Report, String> {
    let mut report = Report::default();
    let t = trace_passes(&mut s.pool, &mut report);
    layer_metrics(&t, &mut report);
    let load = match s.daemon.take() {
        Some(mut d) => {
            let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x10ad);
            let load = daemon::run_load(
                &mut d,
                &mut s.pool,
                &mut s.heavy,
                args.seconds,
                daemon::Arrivals::Open,
                &mut rng,
            );
            d.shutdown()?;
            let load = load?;
            report.attempted += load.attempted;
            report.failed += load.failed;
            load
        }
        None => daemon::LoadResult::default(),
    };
    let late_max = load.late_ms.iter().copied().fold(0.0, f64::max);
    for (name, xs, q, unit) in [
        ("presatd.accept_ms_p50", &load.accept_ms, 0.5, "ms"),
        ("presatd.queue_ms_p50", &load.queue_ms, 0.5, "ms"),
        ("presatd.queue_ms_p90", &load.queue_ms, 0.9, "ms"),
        ("presatd.run_ms_p50", &load.run_ms, 0.5, "ms"),
        ("presatd.heavy_job_s", &load.heavy_s, 0.5, "s"),
    ] {
        report.metric(name, quantile(xs, q), unit, xs.len());
    }
    report.metric("loadgen.late_ms_max", late_max, "ms", load.late_ms.len());
    Ok(report)
}

/// The daemon's small-request capacity: the closed-loop completion rate of
/// the four small tenants with the two heavy tenants running.
fn capacity_run(args: &Args) -> Result<Report, String> {
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut s = setup(args, &mut rng)?;
    let mut d = s
        .daemon
        .take()
        .ok_or("--capacity needs --workload daemon")?;
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x10ad);
    let load = daemon::run_load(
        &mut d,
        &mut s.pool,
        &mut s.heavy,
        args.seconds,
        daemon::Arrivals::Closed,
        &mut rng,
    );
    d.shutdown()?;
    let load = load?;
    let n = load.latency_ms.len();
    let mut report = Report {
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    report.metric("small_capacity_per_s", n as f64 / load.elapsed_s, "1/s", n);
    report.metric(
        "utilisation",
        daemon::SMALL_RATE * load.elapsed_s / n as f64,
        "ratio",
        n,
    );
    let lat = input_means(&load.latency_input, &load.latency_ms);
    report.metric("latency_ms_p50", quantile(&lat, 0.5), "ms", n);
    let h = load.heavy_s.len();
    report.metric("heavy_job_s", quantile(&load.heavy_s, 0.5), "s", h);
    Ok(report)
}

fn run(args: &Args) -> Result<Report, String> {
    if args.capacity {
        capacity_run(args)
    } else if args.trace {
        let mut rng = SplitMix64::seed_from_u64(args.seed);
        let s = setup(args, &mut rng)?;
        traced_run(args, s)
    } else {
        let (s, setup_s, setups) = timed_setups(args)?;
        if args.workload == "daemon" {
            end_to_end_daemon(args, s, setup_s, setups)
        } else {
            Ok(end_to_end_inprocess(args, s, setup_s, setups))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(&args.workload);
            if report.failed > 0 {
                eprintln!("perfbench: {} failed ops", report.failed);
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
