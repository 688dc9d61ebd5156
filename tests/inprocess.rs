//! Property suite for root-level inprocessing.
//!
//! Inprocessing (subsumption, self-subsuming resolution, vivification at
//! the solver's root level) is admissible for all-solutions solving only
//! if it is *equivalence-preserving*: every pass must leave the formula
//! with exactly the same model set, not merely equisatisfiable. This
//! suite checks that contract three ways:
//!
//! * seeded random CNFs, inprocessed and then fully enumerated, against
//!   the BDD package as ground truth (canonical model sets + `satcount`);
//! * every circuit generator family plus the embedded benchmarks, through
//!   the full backward-reachability fixed point, inprocessing on vs. off
//!   and against the exhaustive-simulation oracle;
//! * mid-session round trips (enumerate → retire/inprocess → enumerate)
//!   at 1 and 4 worker threads, each round pinned to the BDD projection
//!   of an equivalent monolithic formula.
//!
//! `scripts/verify.sh` runs the suite at `PRESAT_TEST_INPROCESS=0` and
//! `=1`, so every oracle comparison here is exercised in both modes.

use presat::allsat::{EnumLimits, IncrementalAllSat, SuccessDrivenAllSat};
use presat::bdd::BddManager;
use presat::circuit::{embedded, generators, Circuit};
use presat::logic::rng::SplitMix64;
use presat::logic::{Assignment, Cnf, Lit, Var};
use presat::preimage::{backward_reach, oracle, ReachOptions, SatPreimage, StateSet};
use presat::sat::{SolveResult, Solver};

/// Fixed fuzz seed: the suite is deterministic so a failure reproduces.
const FUZZ_SEED: u64 = 0x17B0_CE55;

/// Whether inprocessing is on for the env-parameterized tests, from
/// `PRESAT_TEST_INPROCESS` (default on; `0` = off). `scripts/verify.sh`
/// runs the suite in both modes.
fn env_inprocess() -> bool {
    std::env::var("PRESAT_TEST_INPROCESS")
        .map(|v| v != "0")
        .unwrap_or(true)
}

/// Random CNF with a clause-width mix of 2..=4, so the inprocessor sees
/// permanent binaries, subsumption candidates, and vivification targets.
fn random_cnf(rng: &mut SplitMix64, num_vars: usize, num_clauses: usize) -> Cnf {
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = 2 + rng.gen_range(0..3);
        let clause: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// All total models of the solver's formula over vars `0..n`, as sorted
/// bit patterns, by solve-and-block.
fn solver_models(s: &mut Solver, n: usize) -> Vec<u64> {
    let mut out = Vec::new();
    loop {
        match s.solve() {
            SolveResult::Sat(m) => {
                let mut bits = 0u64;
                let mut block = Vec::with_capacity(n);
                for i in 0..n {
                    let v = m.value(Var::new(i)) == Some(true);
                    bits |= u64::from(v) << i;
                    block.push(Lit::with_phase(Var::new(i), !v));
                }
                out.push(bits);
                if !s.add_clause(block) {
                    break;
                }
            }
            SolveResult::Unsat => break,
            SolveResult::Unknown(r) => panic!("unbudgeted solve stopped: {r}"),
        }
    }
    out.sort_unstable();
    out
}

/// Every inprocessing pass must preserve the model set exactly. Ground
/// truth is the BDD of the *original* formula: the inprocessed solver's
/// enumeration must list precisely the assignments the BDD accepts, and
/// as many as `satcount` promises.
#[test]
fn inprocessing_preserves_models_on_random_cnfs_vs_bdd_oracle() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED);
    for round in 0..40 {
        let n = 7 + (round % 2);
        let num_clauses = 6 + rng.gen_range(0..12);
        let cnf = random_cnf(&mut rng, n, num_clauses);

        let mut m = BddManager::new(n);
        let truth = m.from_cnf(&cnf);
        let expect: Vec<u64> = (0..1u64 << n)
            .filter(|&bits| m.eval(truth, &Assignment::from_bits(bits, n)))
            .collect();
        assert_eq!(expect.len() as u128, m.satcount(truth, n));

        let mut s = Solver::from_cnf(&cnf);
        s.inprocess();
        let got = solver_models(&mut s, n);
        assert_eq!(
            got, expect,
            "round {round}: inprocessing changed the model set ({num_clauses} clauses over {n} vars)"
        );
    }
}

/// Repeated inprocessing (the session pattern: passes at retirement
/// boundaries) must stay sound — later passes see the strengthened
/// formula, not the original, and still may not lose or invent models.
#[test]
fn repeated_inprocessing_rounds_stay_equivalent() {
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ 0xAAAA);
    for round in 0..10 {
        let n = 7;
        let num_clauses = 10 + rng.gen_range(0..6);
        let cnf = random_cnf(&mut rng, n, num_clauses);
        let mut m = BddManager::new(n);
        let truth = m.from_cnf(&cnf);
        let expect: Vec<u64> = (0..1u64 << n)
            .filter(|&bits| m.eval(truth, &Assignment::from_bits(bits, n)))
            .collect();
        let mut s = Solver::from_cnf(&cnf);
        for _ in 0..3 {
            s.inprocess();
        }
        assert_eq!(
            solver_models(&mut s, n),
            expect,
            "round {round}: iterated inprocessing diverged"
        );
    }
}

/// One backward-reachability fixed point per circuit family, inprocessing
/// on vs. off and against the exhaustive-simulation oracle. Inprocessing
/// runs at the incremental session's retirement boundaries whenever the
/// clause DB has doubled since the previous pass, so a deep fixed point
/// exercises it several times per circuit.
fn assert_family_reach_invariant(circuit: &Circuit, target: &StateSet) {
    let n = circuit.num_latches();
    let expect = oracle::backward_reachable_bits(circuit, target);
    for jobs in [1usize, 4] {
        let run = |inprocess: bool| {
            backward_reach(
                &SatPreimage::success_driven().with_jobs(jobs),
                circuit,
                target,
                ReachOptions {
                    incremental: true,
                    inprocess,
                    ..ReachOptions::default()
                },
            )
        };
        let on = run(true);
        let off = run(false);
        let label = format!("{} (target {target}, jobs {jobs})", circuit.name());
        assert_eq!(
            on.reached.cubes(),
            off.reached.cubes(),
            "inprocessing changed the reached set: {label}"
        );
        assert_eq!(on.converged, off.converged, "converged: {label}");
        assert_eq!(
            on.iterations.len(),
            off.iterations.len(),
            "iteration count: {label}"
        );
        assert_eq!(
            on.reached_states,
            expect.len() as u128,
            "oracle cardinality: {label}"
        );
        for &b in &expect {
            assert!(
                on.reached.contains_bits(b, n),
                "oracle state {b:0n$b} missing: {label}"
            );
        }
    }
}

#[test]
fn generator_families_preserve_reachability_under_inprocessing() {
    assert_family_reach_invariant(
        &generators::counter(3, false),
        &StateSet::from_state_bits(0, 3),
    );
    assert_family_reach_invariant(&generators::lfsr(4), &StateSet::from_state_bits(1, 4));
    assert_family_reach_invariant(
        &generators::shift_register(4),
        &StateSet::from_partial(&[(3, true)]),
    );
    assert_family_reach_invariant(
        &generators::parity(3),
        &StateSet::from_partial(&[(3, true)]),
    );
    assert_family_reach_invariant(
        &generators::round_robin_arbiter(2),
        &StateSet::from_partial(&[(2, true)]),
    );
    assert_family_reach_invariant(
        &generators::comparator(3),
        &StateSet::from_partial(&[(3, true)]),
    );
    for seed in 0..2 {
        assert_family_reach_invariant(
            &generators::random_dag(3, 4, 25, seed),
            &StateSet::from_state_bits(seed % 16, 4),
        );
    }
}

#[test]
fn embedded_benchmarks_preserve_reachability_under_inprocessing() {
    let s27 = embedded::s27().unwrap();
    assert_family_reach_invariant(&s27, &StateSet::from_state_bits(2, 3));
    let ctl2 = embedded::ctl2().unwrap();
    let n = ctl2.num_latches();
    assert_family_reach_invariant(&ctl2, &StateSet::from_state_bits(0, n));
}

/// Mid-session round trip: enumerate → retire (inprocessing fires on
/// the growth schedule) → enumerate, ten rounds deep, with the inprocessing-on session compared
/// against an inprocessing-off twin *and* against the BDD projection of
/// an equivalent monolithic formula every round.
fn mid_session_round_trip(jobs: usize) {
    let n = 6;
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ (0x40B + jobs as u64));
    let rand_lit =
        |rng: &mut SplitMix64| Lit::with_phase(Var::new(rng.gen_range(0..n)), rng.gen_bool(0.5));
    let mut base = Cnf::new(n);
    let mut base_clauses: Vec<Vec<Lit>> = Vec::new();
    for _ in 0..8 {
        let c: Vec<Lit> = (0..3).map(|_| rand_lit(&mut rng)).collect();
        base_clauses.push(c.clone());
        base.add_clause(c);
    }
    let important: Vec<Var> = Var::range(n).collect();
    let mut on = IncrementalAllSat::new(base.clone(), important.clone(), SuccessDrivenAllSat::new(), jobs);
    let mut off =
        IncrementalAllSat::new(base, important.clone(), SuccessDrivenAllSat::new(), jobs);
    on.set_inprocess(true);
    off.set_inprocess(false);

    // The cold mirror: every group clause ever added, activation units for
    // the current group, retired groups forced off.
    let mut group_clauses: Vec<Vec<Lit>> = Vec::new();
    let mut retired: Vec<Lit> = Vec::new();
    let mut num_vars = n;
    for round in 0..10 {
        let act_on = Lit::pos(on.add_var());
        let act_off = Lit::pos(off.add_var());
        assert_eq!(act_on, act_off, "sessions must allocate in lockstep");
        num_vars += 1;
        for _ in 0..4 {
            let mut c = vec![!act_on];
            for _ in 0..3 {
                c.push(rand_lit(&mut rng));
            }
            group_clauses.push(c.clone());
            on.add_clause(c.clone());
            off.add_clause(c);
        }
        let limits = EnumLimits::none();
        let got_on = on.enumerate_limited(&[act_on], &limits, &mut presat::obs::NullSink);
        let got_off = off.enumerate_limited(&[act_off], &limits, &mut presat::obs::NullSink);
        assert!(got_on.complete && got_off.complete, "round {round}");
        assert_eq!(
            got_on.cubes.cubes(),
            got_off.cubes.cubes(),
            "round {round} (jobs {jobs}): inprocessing changed the enumeration"
        );

        let mut mirror = Cnf::new(num_vars);
        for c in base_clauses.iter().chain(group_clauses.iter()) {
            mirror.add_clause(c.clone());
        }
        mirror.add_clause(vec![act_on]);
        for &r in &retired {
            mirror.add_clause(vec![!r]);
        }
        let mut m = BddManager::new(num_vars);
        let f = m.from_cnf(&mirror);
        let aux: Vec<Var> = (n..num_vars).map(Var::new).collect();
        let truth = m.exists(f, &aux);
        let got = m.from_cube_set(&got_on.cubes);
        assert!(
            got == truth,
            "round {round} (jobs {jobs}): session diverges from the BDD projection"
        );

        // Retirement triggers the next inprocessing pass on `on`.
        retired.push(act_on);
        on.retire(act_on);
        off.retire(act_off);
    }
}

#[test]
fn mid_session_round_trip_at_jobs_1() {
    mid_session_round_trip(1);
}

#[test]
fn mid_session_round_trip_at_jobs_4() {
    mid_session_round_trip(4);
}

/// Session inprocessing is scheduled on clause-DB growth, not run at
/// every retirement: over the 256-iteration fixed point of an 8-bit Gray
/// counter the live DB doubles at most ⌈log₂ 256⌉ + 1 times, and a pass
/// runs at most two rounds, so the session may spend no more than 18
/// rounds — where one pass per retirement spent hundreds. The reached set
/// must still equal the inprocessing-off run.
#[test]
fn session_inprocessing_is_scheduled_on_clause_db_growth() {
    let circuit = generators::gray_counter(8);
    let target = StateSet::from_state_bits(0, 8);
    let run = |inprocess: bool| {
        backward_reach(
            &SatPreimage::success_driven(),
            &circuit,
            &target,
            ReachOptions::default().with_inprocess(inprocess),
        )
    };
    let on = run(true);
    let off = run(false);
    assert!(on.converged);
    assert_eq!(on.reached_states, 256);
    assert_eq!(on.reached.cubes(), off.reached.cubes());
    let rounds = on.stats.allsat.sat.inprocess_rounds;
    assert!(
        (1..=18).contains(&rounds),
        "{rounds} inprocess rounds over {} iterations",
        on.iterations.len()
    );
    assert_eq!(off.stats.allsat.sat.inprocess_rounds, 0);
}

/// Env-parameterized oracle check: the whole-fixed-point comparison runs
/// with inprocessing set from `PRESAT_TEST_INPROCESS`, so verify.sh's
/// double run pins both modes against ground truth.
#[test]
fn env_selected_inprocess_mode_agrees_with_oracle() {
    let inprocess = env_inprocess();
    for (circuit, target) in [
        (
            generators::counter(4, false),
            StateSet::from_state_bits(9, 4),
        ),
        (generators::lfsr(4), StateSet::from_state_bits(1, 4)),
        (
            generators::round_robin_arbiter(2),
            StateSet::from_partial(&[(2, true)]),
        ),
    ] {
        let n = circuit.num_latches();
        let expect = oracle::backward_reachable_bits(&circuit, &target);
        let report = backward_reach(
            &SatPreimage::success_driven(),
            &circuit,
            &target,
            ReachOptions {
                incremental: true,
                inprocess,
                ..ReachOptions::default()
            },
        );
        assert!(report.converged);
        assert_eq!(
            report.reached_states,
            expect.len() as u128,
            "{} (inprocess={inprocess})",
            circuit.name()
        );
        for &b in &expect {
            assert!(report.reached.contains_bits(b, n));
        }
    }
}
