//! Seeded inputs and their reference answers.
//!
//! Every op's family, size and target are drawn from the workload seed; the
//! program under test only ever sees the generated `.bench` netlist (or
//! DIMACS text) and a target, never the family name. Reference answers come
//! from the BDD preimage engine or the exhaustive-simulation oracle, both
//! independent of the SAT engines being measured, and are computed during
//! set-up, outside every timed region.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use presat_bdd::{BddId, BddManager};
use presat_circuit::{bench, generators, Circuit};
use presat_logic::rng::SplitMix64;
use presat_logic::{Cnf, Cube, CubeSet, Lit, Var};
use presat_preimage::{oracle, BddPreimage, PreimageEngine, StateSet};

/// The all-solutions engine a preimage op runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    SuccessDriven,
    Blocking,
    MinBlocking,
    Chrono,
}

/// What one op computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// One-step preimage of the target.
    Preimage(Engine),
    /// Backward fixed point from the target (incremental session).
    Reach,
    /// All-SAT over a DIMACS formula projected on its first `project` vars.
    AllSat { project: usize },
}

/// One generated input and its reference answer.
pub struct Instance {
    /// Family and size, for diagnostics only (never passed to the program).
    pub label: String,
    pub kind: OpKind,
    /// `.bench` netlist text (empty for all-SAT instances).
    pub netlist: String,
    /// DIMACS text (all-SAT instances only).
    pub cnf: String,
    pub target: StateSet,
    /// The target in the daemon's `latch=value,...` grammar, when it is one
    /// cube.
    pub target_spec: Option<String>,
    pub checker: Checker,
}

/// Set-equality check against a reference answer: both sides become BDDs
/// in one manager, where equal functions have equal ids. An answer whose
/// exact cube list already passed is accepted by fingerprint, so repeated
/// ops on one instance cost one hash, not one BDD build.
pub struct Checker {
    num_vars: usize,
    reference: Vec<Cube>,
    /// The manager and the reference's id in it; dropped by `release` and
    /// rebuilt by the next answer that misses the fingerprints.
    bdd: Option<(BddManager, BddId)>,
    verified: Vec<u64>,
}

impl Checker {
    fn new(num_vars: usize, reference: &CubeSet) -> Self {
        let mut c = Checker {
            num_vars,
            reference: reference.cubes().to_vec(),
            bdd: None,
            verified: Vec::new(),
        };
        c.build();
        c
    }

    fn build(&mut self) -> &mut (BddManager, BddId) {
        let (num_vars, reference) = (self.num_vars, &self.reference);
        self.bdd.get_or_insert_with(|| {
            let mut manager = BddManager::new(num_vars);
            let id = union_of(&mut manager, reference);
            (manager, id)
        })
    }

    pub fn reference_cubes(&self) -> usize {
        self.reference.len()
    }

    /// `true` if `answer` denotes exactly the reference set.
    pub fn check(&mut self, answer: &[Cube]) -> bool {
        let mut h = DefaultHasher::new();
        answer.hash(&mut h);
        let fp = h.finish();
        if self.verified.contains(&fp) {
            return true;
        }
        let (manager, reference) = self.build();
        let ok = union_of(manager, answer) == *reference;
        if ok {
            self.verified.push(fp);
        }
        ok
    }

    /// Frees the BDD manager, keeping the accepted fingerprints, so that
    /// the checker holds little more than the reference cubes while ops
    /// are measured.
    pub fn release(&mut self) {
        self.bdd = None;
    }
}

/// The BDD of a cube list, OR-ed as a balanced tree: a left fold over
/// tens of thousands of minterm cubes is quadratic in the accumulator size.
fn union_of(m: &mut BddManager, cubes: &[Cube]) -> BddId {
    match cubes.len() {
        0 => m.constant(false),
        1 => m.cube(&cubes[0]),
        len => {
            let (lo, hi) = cubes.split_at(len / 2);
            let a = union_of(m, lo);
            let b = union_of(m, hi);
            m.or(a, b)
        }
    }
}

fn cube_spec(fixed: &[(usize, bool)]) -> String {
    fixed
        .iter()
        .map(|&(j, v)| format!("{j}={}", u8::from(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// `k` (drawn from `ks`) distinct latch positions below `n` with random
/// values.
fn random_partial(
    rng: &mut SplitMix64,
    n: usize,
    ks: std::ops::Range<usize>,
) -> Vec<(usize, bool)> {
    let k = rng.gen_range(ks);
    let mut positions: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut positions);
    let mut fixed: Vec<(usize, bool)> = positions[..k]
        .iter()
        .map(|&j| (j, rng.gen_bool(0.5)))
        .collect();
    fixed.sort_unstable();
    fixed
}

fn preimage_instance(
    label: String,
    engine: Engine,
    circuit: &Circuit,
    target: StateSet,
    target_spec: Option<String>,
) -> Instance {
    let n = circuit.num_latches();
    let reference = BddPreimage::substitution()
        .preimage(circuit, &target)
        .states;
    Instance {
        label,
        kind: OpKind::Preimage(engine),
        netlist: bench::write(circuit),
        cnf: String::new(),
        target,
        target_spec,
        checker: Checker::new(n, reference.cubes()),
    }
}

fn cube_instance(
    label: String,
    engine: Engine,
    circuit: &Circuit,
    fixed: &[(usize, bool)],
) -> Instance {
    preimage_instance(
        label,
        engine,
        circuit,
        StateSet::from_partial(fixed),
        Some(cube_spec(fixed)),
    )
}

/// Full states drawn for a shift register's target. A shift register's
/// preimage of one cube is one cube, so only a many-state target gives a
/// many-cube answer.
const SHIFT_TARGET_STATES: usize = 800;

/// One stratum of a workload's pool: a circuit family at one size, run by
/// one engine. Every seed draws the same strata (so the mix, and with it
/// the cost profile, is stable across seeds) in a seeded order, with seeded
/// targets and seeded random structure.
#[derive(Clone, Copy, Debug)]
enum Family {
    Comparator(usize),
    /// Random DAG with a seeded input and latch count.
    RandomDag,
    Parity(usize),
    /// Shift register with a random many-state target.
    Shift(usize),
    Counter(usize),
    CounterEnable(usize),
    Gray(usize),
    Lfsr(usize),
    /// Random DAG small enough for a daemon request.
    SmallRandomDag,
    /// Random 3-CNF for a daemon `allsat` request.
    Cnf,
}

/// The instance pool of `workload`, or `None` for an unknown name.
/// `daemon` yields its small requests; see [`heavy_pool`] for the rest.
pub fn pool(workload: &str, rng: &mut SplitMix64) -> Option<Vec<Instance>> {
    use Engine::*;
    use Family::*;
    // Each pool is sized so that the op-cost quantiles the benchmark
    // reports fall inside a run of equal strata rather than on the step
    // between two: p50 and p90 then read one stratum's cost, not which of
    // two neighbours a seed happened to make heavier (see README.md).
    let mut strata: Vec<(Family, Engine)> = match workload {
        "search" => [(RandomDag, 10), (Comparator(9), 4), (Comparator(10), 3)]
            .into_iter()
            .chain([(Comparator(11), 3), (Comparator(12), 4)])
            .flat_map(|(f, k)| std::iter::repeat_n((f, SuccessDriven), k))
            .collect(),
        "enum" => vec![
            (Parity(15), SuccessDriven),
            (Parity(16), SuccessDriven),
            (Parity(10), Chrono),
            (Parity(11), Chrono),
            (Parity(11), MinBlocking),
            (Parity(11), Blocking),
            (Parity(11), Blocking),
            (Parity(11), Blocking),
            (Parity(11), Blocking),
            (Shift(12), Chrono),
            (Shift(12), Blocking),
            (Shift(13), Blocking),
            (Parity(12), Blocking),
            (Parity(12), Blocking),
            (Parity(12), Blocking),
        ],
        "reach" => [Counter(7), Lfsr(7), CounterEnable(7), Counter(8)]
            .into_iter()
            .chain([
                Gray(7),
                Gray(7),
                CounterEnable(8),
                CounterEnable(8),
                Gray(8),
                Gray(8),
            ])
            // Two of each: the p50 and p90 strata then average four targets.
            .flat_map(|f| [(f, SuccessDriven); 2])
            .collect(),
        "daemon" => [
            (Cnf, 5),
            (SmallRandomDag, 5),
            (Comparator(8), 28),
            (Comparator(9), 10),
        ]
        .into_iter()
        .flat_map(|(f, k)| std::iter::repeat_n((f, SuccessDriven), k))
        .collect(),
        _ => return None,
    };
    rng.shuffle(&mut strata);
    Some(
        strata
            .into_iter()
            .map(|(family, engine)| instance(rng, family, engine))
            .collect(),
    )
}

/// The daemon's heavy tenants' reach jobs, one per tenant.
pub fn heavy_pool(rng: &mut SplitMix64) -> Vec<Instance> {
    [Family::Counter(9), Family::Gray(8)]
        .iter()
        .map(|&f| instance(rng, f, Engine::SuccessDriven))
        .collect()
}

fn instance(rng: &mut SplitMix64, family: Family, engine: Engine) -> Instance {
    match family {
        Family::Comparator(n) => comparator_instance(rng, n, engine),
        Family::RandomDag => random_dag_instance(rng, 10..13, 12..17, 8..=16, engine),
        Family::SmallRandomDag => random_dag_instance(rng, 5..8, 8..11, 4..=20, engine),
        Family::Parity(n) => {
            // Target: the parity latch. The answer is every data state of
            // one parity, 2^(n-1) minterm cubes with no wider prime cover.
            let c = generators::parity(n);
            let fixed = [(n, rng.gen_bool(0.5))];
            cube_instance(format!("parity{n}"), engine, &c, &fixed)
        }
        Family::Shift(n) => {
            // Target: a random set of full states; the answer is one
            // (n-1)-literal cube per distinct target prefix.
            let c = generators::shift_register(n);
            let m = SHIFT_TARGET_STATES;
            let mut target = CubeSet::new();
            for _ in 0..m {
                let bits = rng.gen_u64_below(1 << n);
                target.insert(state_cube(bits, n));
            }
            let target = StateSet::from_cubes(target);
            preimage_instance(format!("shift{n}x{m}"), engine, &c, target, None)
        }
        Family::Counter(n) => reach_instance(rng, generators::counter(n, false)),
        Family::CounterEnable(n) => reach_instance(rng, generators::counter(n, true)),
        Family::Gray(n) => reach_instance(rng, generators::gray_counter(n)),
        Family::Lfsr(n) => reach_instance(rng, generators::lfsr(n)),
        Family::Cnf => allsat_instance(rng),
    }
}

fn state_cube(bits: u64, n: usize) -> Cube {
    StateSet::from_state_bits(bits, n).cubes().cubes()[0].clone()
}

fn comparator_instance(rng: &mut SplitMix64, n: usize, engine: Engine) -> Instance {
    // Flag = 1 plus up to two data bits. Data bits reload from inputs, so
    // they reshape the encoding, not the answer (`n` cubes: A != 0).
    let c = generators::comparator(n);
    let mut fixed = random_partial(rng, n, 0..3);
    fixed.push((n, true));
    cube_instance(format!("cmp{n}"), engine, &c, &fixed)
}

fn random_dag_instance(
    rng: &mut SplitMix64,
    inputs: std::ops::Range<usize>,
    latches: std::ops::Range<usize>,
    answer_cubes: std::ops::RangeInclusive<usize>,
    engine: Engine,
) -> Instance {
    loop {
        let i = rng.gen_range(inputs.clone());
        let l = rng.gen_range(latches.clone());
        let c = generators::random_dag(i, l, 4 * l, rng.next_u64());
        let fixed = random_partial(rng, l, 2..6);
        let inst = cube_instance(format!("rnd{i}x{l}"), engine, &c, &fixed);
        // Keep draws whose answer is small but not trivial: a narrow band
        // keeps the pool's mean answer size steady from seed to seed.
        if answer_cubes.contains(&inst.checker.reference_cubes()) {
            return inst;
        }
    }
}

/// A deep fixed point (one new state per iteration) from a random state.
fn reach_instance(rng: &mut SplitMix64, c: Circuit) -> Instance {
    let n = c.num_latches();
    let mut bits = rng.gen_u64_below(1 << n);
    if c.name().starts_with("lfsr") && bits == 0 {
        bits = 1; // the LFSR's zero state is a self-loop
    }
    let fixed: Vec<(usize, bool)> = (0..n).map(|j| (j, bits >> j & 1 == 1)).collect();
    let target = StateSet::from_partial(&fixed);
    let reference: CubeSet = oracle::backward_reachable_bits(&c, &target)
        .into_iter()
        .map(|b| state_cube(b, n))
        .collect();
    Instance {
        label: c.name().to_string(),
        kind: OpKind::Reach,
        netlist: bench::write(&c),
        cnf: String::new(),
        target,
        target_spec: Some(cube_spec(&fixed)),
        checker: Checker::new(n, &reference),
    }
}

/// A random 3-CNF below the satisfiability threshold, projected on its
/// first variables (the daemon's small `allsat` requests), with 8..=20
/// reference cubes.
fn allsat_instance(rng: &mut SplitMix64) -> Instance {
    let vars = 16 + rng.gen_range(0..5);
    let project = 8 + rng.gen_range(0..3);
    loop {
        let mut cnf = Cnf::new(vars);
        for _ in 0..vars * 3 {
            let mut picked: Vec<usize> = (0..vars).collect();
            rng.shuffle(&mut picked);
            cnf.add_clause(
                picked[..3]
                    .iter()
                    .map(|&v| Lit::with_phase(Var::new(v), rng.gen_bool(0.5))),
            );
        }
        let mut m = BddManager::new(vars);
        let f = m.from_cnf(&cnf);
        let hidden: Vec<Var> = (project..vars).map(Var::new).collect();
        let projected = m.exists(f, &hidden);
        let reference = m.to_cube_set(projected);
        // Keep the answer size in a narrow band: random CNFs' projected
        // answers are heavy-tailed, and one outlier would move the
        // workload's mean answer size from seed to seed.
        if !(8..=20).contains(&reference.len()) {
            continue;
        }
        return Instance {
            label: format!("cnf{vars}p{project}"),
            kind: OpKind::AllSat { project },
            netlist: String::new(),
            cnf: presat_logic::dimacs::write(&cnf),
            target: StateSet::empty(),
            target_spec: None,
            checker: Checker::new(project, &reference),
        };
    }
}
