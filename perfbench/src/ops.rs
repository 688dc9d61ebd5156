//! In-process ops: the untraced calls the end-to-end run times, and the
//! traced variants that time the public call into each layer.
//!
//! A traced preimage op calls the same public sequence that
//! `SatPreimage::preimage_limited` uses (`StepEncoding::build_with_env`,
//! `AllSatProblem::new`, the engine's `enumerate_limited`,
//! `StateSet::from_cubes`), each timed from here. A traced reach op times
//! `ReachDriver::new` and every `ReachDriver::step`.

use std::time::{Duration, Instant};

use presat_allsat::{
    AllSatEngine, AllSatProblem, BlockingAllSat, ChronoAllSat, EnumLimits, MinimizedBlockingAllSat,
    SignatureMode, SuccessDrivenAllSat,
};
use presat_circuit::{bench, Circuit};
use presat_logic::{dimacs, Cube, CubeSet, Var};
use presat_obs::{Event, ObsSink, PreimageCounters};
use presat_preimage::{
    backward_reach, PreimageEngine, ReachDriver, ReachOptions, ReachStep, SatPreimage, StateSet,
    StepEncoding,
};
use presat_sat::Budget;

use crate::gen::{Engine, Instance, OpKind};

fn parse_netlist(inst: &Instance) -> Circuit {
    bench::parse(&inst.netlist).expect("generated netlists parse")
}

fn sat_preimage(engine: Engine) -> SatPreimage {
    match engine {
        Engine::SuccessDriven => SatPreimage::success_driven(),
        Engine::Blocking => SatPreimage::blocking(),
        Engine::MinBlocking => SatPreimage::min_blocking(),
        Engine::Chrono => SatPreimage::chrono(),
    }
}

fn allsat_problem(inst: &Instance, project: usize) -> AllSatProblem {
    let cnf = dimacs::parse(&inst.cnf).expect("generated DIMACS parses");
    AllSatProblem::new(cnf, (0..project).map(Var::new).collect())
}

/// One untraced op, as a user would make it: the program gets the netlist
/// (or formula) text and the target. Returns the answer's cubes.
pub fn run(inst: &Instance) -> Vec<Cube> {
    match inst.kind {
        OpKind::Preimage(engine) => {
            let c = parse_netlist(inst);
            let pre = sat_preimage(engine).preimage(&c, &inst.target);
            pre.states.cubes().cubes().to_vec()
        }
        OpKind::Reach => {
            let c = parse_netlist(inst);
            let report = backward_reach(
                &SatPreimage::success_driven(),
                &c,
                &inst.target,
                ReachOptions::default(),
            );
            report.reached.cubes().cubes().to_vec()
        }
        OpKind::AllSat { project } => {
            let problem = allsat_problem(inst, project);
            let r = SuccessDrivenAllSat::new().enumerate(&problem);
            r.cubes.cubes().to_vec()
        }
    }
}

/// Integer work counters of one traced op, summed over ops; these must
/// repeat exactly across runs at one seed.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Work {
    pub propagations: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub binary_skips: u64,
    pub solver_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub literals_before_lift: u64,
    pub literals_after_lift: u64,
    pub graph_nodes: u64,
    pub subsumption_checks: u64,
    pub sig_rejects: u64,
    pub index_candidates: u64,
    pub blocking_clauses: u64,
    pub db_clauses_peak: u64,
    pub encoding_clauses: u64,
    pub cones_skipped: u64,
    pub reach_iterations: u64,
    pub learnts_carried: u64,
    pub inprocess_rounds: u64,
    pub db_compactions: u64,
    pub arena_bytes_peak: u64,
    pub answer_cubes: u64,
}

impl Work {
    /// Named fields, for the determinism report.
    pub fn fields(&self) -> [(&'static str, u64); 23] {
        [
            ("sat.propagations", self.propagations),
            ("sat.conflicts", self.conflicts),
            ("sat.decisions", self.decisions),
            ("sat.binary_skips", self.binary_skips),
            ("allsat.solver_calls", self.solver_calls),
            ("allsat.cache_hits", self.cache_hits),
            ("allsat.cache_misses", self.cache_misses),
            ("allsat.literals_before_lift", self.literals_before_lift),
            ("allsat.literals_after_lift", self.literals_after_lift),
            ("graph.nodes", self.graph_nodes),
            ("cube_store.subsumption_checks", self.subsumption_checks),
            ("cube_store.sig_rejects", self.sig_rejects),
            ("cube_store.index_candidates", self.index_candidates),
            ("allsat.blocking_clauses", self.blocking_clauses),
            ("allsat.db_clauses_peak", self.db_clauses_peak),
            ("encoding.clauses", self.encoding_clauses),
            ("encoding.cones_skipped", self.cones_skipped),
            ("reach.iterations", self.reach_iterations),
            ("reach.learnts_carried", self.learnts_carried),
            ("sat.inprocess_rounds", self.inprocess_rounds),
            ("sat.db_compactions", self.db_compactions),
            ("sat.arena_bytes_peak", self.arena_bytes_peak),
            ("answer_cubes", self.answer_cubes),
        ]
    }

    /// Accumulates another op's work (the arena gauge takes the maximum).
    pub fn add(&mut self, o: &Work) {
        self.propagations += o.propagations;
        self.conflicts += o.conflicts;
        self.decisions += o.decisions;
        self.binary_skips += o.binary_skips;
        self.solver_calls += o.solver_calls;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.literals_before_lift += o.literals_before_lift;
        self.literals_after_lift += o.literals_after_lift;
        self.graph_nodes += o.graph_nodes;
        self.subsumption_checks += o.subsumption_checks;
        self.sig_rejects += o.sig_rejects;
        self.index_candidates += o.index_candidates;
        self.blocking_clauses += o.blocking_clauses;
        self.db_clauses_peak += o.db_clauses_peak;
        self.encoding_clauses += o.encoding_clauses;
        self.cones_skipped += o.cones_skipped;
        self.reach_iterations += o.reach_iterations;
        self.learnts_carried += o.learnts_carried;
        self.inprocess_rounds += o.inprocess_rounds;
        self.db_compactions += o.db_compactions;
        self.answer_cubes += o.answer_cubes;
        self.arena_bytes_peak = self.arena_bytes_peak.max(o.arena_bytes_peak);
    }

    fn add_preimage(&mut self, p: &PreimageCounters) {
        let a = &p.allsat;
        self.propagations += a.sat.propagations;
        self.conflicts += a.sat.conflicts;
        self.decisions += a.sat.decisions;
        self.binary_skips += a.sat.binary_skips;
        self.solver_calls += a.solver_calls;
        self.cache_hits += a.cache_hits;
        self.cache_misses += a.cache_misses;
        self.literals_before_lift += a.literals_before_lift;
        self.literals_after_lift += a.literals_after_lift;
        self.graph_nodes += a.graph_nodes;
        self.subsumption_checks += a.subsumption_checks;
        self.sig_rejects += a.sig_rejects;
        self.index_candidates += a.index_candidates;
        self.blocking_clauses += a.blocking_clauses;
        self.db_clauses_peak += a.db_clauses_peak;
        self.cones_skipped += p.cones_skipped;
        self.learnts_carried += p.learnts_carried;
        self.inprocess_rounds += a.sat.inprocess_rounds;
        self.db_compactions += a.sat.db_compactions;
        self.arena_bytes_peak = self.arena_bytes_peak.max(a.sat.arena_bytes);
    }
}

/// Answer cubes replayed into a fresh `CubeSet` per traced op. Inserting a
/// full-support minterm answer costs time quadratic in its length (no
/// signature rejects), so a 32k-cube answer alone would take seconds.
pub const REPLAY_CAP: usize = 4096;

/// Wall times of one traced op's layer calls.
#[derive(Clone, Default, Debug)]
pub struct Spans {
    /// The op's own wall time (the calls below, back to back).
    pub op: Duration,
    pub parse: Duration,
    pub encode: Duration,
    pub enumerate: Duration,
    /// Time from the enumerate call to its first `Solution` event.
    pub first_solution: Option<Duration>,
    pub fold: Duration,
    pub driver_new: Duration,
    pub steps: Vec<Duration>,
    pub report: Duration,
    /// Re-extraction of the engine's solution graph into cubes (timed
    /// outside the op: the engine already extracted once inside
    /// `enumerate`).
    pub to_cubes: Option<Duration>,
    /// The answer's first `REPLAY_CAP` cubes inserted into a fresh
    /// `CubeSet` (outside the op).
    pub replay: Duration,
}

impl Spans {
    /// Sum of the timed layer calls inside the op.
    pub fn covered(&self) -> Duration {
        self.parse
            + self.encode
            + self.enumerate
            + self.fold
            + self.driver_new
            + self.steps.iter().sum::<Duration>()
            + self.report
    }
}

/// Records when the first solution arrives.
struct FirstSolution {
    start: Instant,
    first: Option<Duration>,
}

impl ObsSink for FirstSolution {
    fn record(&mut self, event: &Event) {
        if self.first.is_none() && matches!(event, Event::Solution { .. }) {
            self.first = Some(self.start.elapsed());
        }
    }
}

fn enumerate(
    engine: Engine,
    problem: &AllSatProblem,
    sink: &mut dyn ObsSink,
) -> presat_allsat::AllSatResult {
    let limits = EnumLimits::none();
    match engine {
        // Exactly `SatPreimage::success_driven()` at jobs 1.
        Engine::SuccessDriven => SuccessDrivenAllSat::new()
            .with_signature(SignatureMode::Dynamic)
            .with_model_guidance(true)
            .enumerate_limited(problem, &limits, sink),
        Engine::Blocking => BlockingAllSat::new().enumerate_limited(problem, &limits, sink),
        Engine::MinBlocking => {
            MinimizedBlockingAllSat::new().enumerate_limited(problem, &limits, sink)
        }
        Engine::Chrono => ChronoAllSat::new().enumerate_limited(problem, &limits, sink),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// One traced op: the answer's cubes, its layer spans and work counters.
pub fn run_traced(inst: &Instance) -> (Vec<Cube>, Spans, Work) {
    let mut spans = Spans::default();
    let mut work = Work::default();
    let op_start = Instant::now();
    let answer = match inst.kind {
        OpKind::Preimage(engine) => {
            let (c, parse) = timed(|| parse_netlist(inst));
            spans.parse = parse;
            let ((problem, clauses, cones), encode) = timed(|| {
                let enc = StepEncoding::build_with_env(&c, &inst.target, None);
                let clauses = enc.cnf().num_clauses() as u64;
                let cones = enc.cones_skipped();
                let vars = enc.state_vars();
                (AllSatProblem::new(enc.into_cnf(), vars), clauses, cones)
            });
            spans.encode = encode;
            let mut sink = FirstSolution {
                start: Instant::now(),
                first: None,
            };
            let (result, enumerate_t) = timed(|| enumerate(engine, &problem, &mut sink));
            spans.enumerate = enumerate_t;
            spans.first_solution = sink.first;
            let counters = PreimageCounters {
                cones_skipped: cones,
                allsat: result.stats_with_store(),
                ..PreimageCounters::default()
            };
            work.add_preimage(&counters);
            work.encoding_clauses += clauses;
            let graph = result.graph;
            let (states, fold) = timed(|| StateSet::from_cubes(result.cubes));
            spans.fold = fold;
            spans.op = op_start.elapsed();
            if let Some((g, root)) = graph {
                let vars = problem.important.clone();
                let (_, t) = timed(|| std::hint::black_box(g.to_cube_set(root, &vars)));
                spans.to_cubes = Some(t);
            }
            states.cubes().cubes().to_vec()
        }
        OpKind::Reach => {
            let (c, parse) = timed(|| parse_netlist(inst));
            spans.parse = parse;
            let engine = SatPreimage::success_driven();
            let (mut driver, new_t) =
                timed(|| ReachDriver::new(&engine, &c, &inst.target, ReachOptions::default()));
            spans.driver_new = new_t;
            loop {
                let (step, t) = timed(|| {
                    driver.step(&engine, &c, &Budget::unlimited(), &mut presat_obs::NullSink)
                });
                spans.steps.push(t);
                if step != ReachStep::Advanced {
                    break;
                }
            }
            let (report, report_t) = timed(|| driver.report());
            spans.report = report_t;
            spans.op = op_start.elapsed();
            work.add_preimage(&report.stats);
            work.reach_iterations += report.iterations.len() as u64;
            report.reached.cubes().cubes().to_vec()
        }
        OpKind::AllSat { project } => {
            let (problem, parse) = timed(|| allsat_problem(inst, project));
            spans.parse = parse;
            let mut sink = FirstSolution {
                start: Instant::now(),
                first: None,
            };
            let (result, t) = timed(|| enumerate(Engine::SuccessDriven, &problem, &mut sink));
            spans.enumerate = t;
            spans.first_solution = sink.first;
            spans.op = op_start.elapsed();
            work.add_preimage(&PreimageCounters {
                allsat: result.stats_with_store(),
                ..PreimageCounters::default()
            });
            result.cubes.cubes().to_vec()
        }
    };
    let (_, replay) = timed(|| {
        let mut store = CubeSet::new();
        for c in answer.iter().take(REPLAY_CAP) {
            store.insert(c.clone());
        }
        std::hint::black_box(store)
    });
    spans.replay = replay;
    work.answer_cubes += answer.len() as u64;
    (answer, spans, work)
}
