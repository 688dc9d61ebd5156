//! Disjoint appends and literal-keyed signatures in the cube store.
//!
//! `BlockingAllSat` and `ChronoAllSat` emit pairwise-disjoint cubes and
//! append them with `CubeSet::push_disjoint`, skipping both absorption
//! scans. That is only sound if an absorbed insert of the same stream
//! would have built exactly the same sequence; the engine tests here
//! re-insert each result through `CubeSet::insert` on the differential
//! harness's seeds and require identity. (Debug builds also assert the
//! precondition inside every `push_disjoint` call.)
//!
//! The minterm test pins the signature definition: over at most 32
//! variables every literal owns its own signature bit, so two minterms
//! over the same variables always fail the one-AND prefilter and no
//! candidate ever reaches a literal-by-literal walk.

use presat::allsat::{AllSatEngine, AllSatProblem, AllSatResult, BlockingAllSat, ChronoAllSat};
use presat::logic::rng::SplitMix64;
use presat::logic::{Cnf, Cube, CubeSet, Lit, NaiveCubeSet, Var};

/// The differential harness's fuzz seed (`tests/differential.rs`).
const FUZZ_SEED: u64 = 0x5EED_D1FF;

fn random_cnf(rng: &mut SplitMix64, num_vars: usize, num_clauses: usize) -> Cnf {
    let mut cnf = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let width = 2 + rng.gen_range(0..2);
        let clause: Vec<Lit> = (0..width)
            .map(|_| Lit::with_phase(Var::new(rng.gen_range(0..num_vars)), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// Re-inserting `result`'s cubes one by one through the absorbed insert
/// must accept every cube and rebuild the identical sequence.
fn assert_reinsert_identical(result: &AllSatResult, label: &str) {
    let mut reinserted = CubeSet::new();
    for (i, c) in result.cubes.iter().enumerate() {
        assert!(
            reinserted.insert(c.clone()),
            "{label}: cube {i} ({c}) was absorbed on re-insert"
        );
    }
    assert_eq!(
        reinserted.cubes(),
        result.cubes.cubes(),
        "{label}: re-inserted sequence differs"
    );
}

/// The problems of the differential harness's two CNF suites: the
/// oracle-checked rounds and the dense-solution-set rounds.
fn differential_problems() -> Vec<(String, AllSatProblem)> {
    let mut out = Vec::new();
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED);
    for round in 0..25 {
        let num_vars = 8 + (round % 2);
        let num_clauses = 10 + rng.gen_range(0..8);
        let cnf = random_cnf(&mut rng, num_vars, num_clauses);
        let important: Vec<Var> = Var::range(5 + (round % 2)).collect();
        out.push((format!("round {round}"), AllSatProblem::new(cnf, important)));
    }
    let mut rng = SplitMix64::seed_from_u64(FUZZ_SEED ^ 0xACE);
    for round in 0..15 {
        let num_clauses = 3 + rng.gen_range(0..3);
        let cnf = random_cnf(&mut rng, 7, num_clauses);
        let important: Vec<Var> = Var::range(5).collect();
        out.push((format!("dense round {round}"), AllSatProblem::new(cnf, important)));
    }
    out
}

#[test]
fn blocking_output_equals_absorbed_reinsert() {
    for (label, problem) in differential_problems() {
        let result = BlockingAllSat::new().enumerate(&problem);
        assert_reinsert_identical(&result, &format!("blocking {label}"));
        // Nothing was scanned while appending.
        assert_eq!(result.cubes.index_stats().subsumption_checks, 0);
    }
}

#[test]
fn chrono_output_equals_absorbed_reinsert() {
    for (label, problem) in differential_problems() {
        let result = ChronoAllSat::new().enumerate(&problem);
        assert_reinsert_identical(&result, &format!("chrono {label}"));
        assert_eq!(result.cubes.index_stats().subsumption_checks, 0);
    }
}

#[test]
fn minterm_streams_are_refuted_by_signature_alone() {
    for k in [1, 2, 5, 8, 12] {
        let vars: Vec<Var> = Var::range(k).collect();
        let mut stream = Cube::top().expand_minterms(&vars);
        SplitMix64::seed_from_u64(0x3141 + k as u64).shuffle(&mut stream);
        let mut naive = NaiveCubeSet::new();
        let mut indexed = CubeSet::new();
        for c in &stream {
            assert!(naive.insert(c.clone()));
            assert!(indexed.insert(c.clone()));
        }
        assert_eq!(naive.cubes(), indexed.cubes(), "k = {k}");
        let st = indexed.index_stats();
        if k > 1 {
            assert!(st.subsumption_checks > 0, "k = {k}: {st:?}");
        }
        // Every candidate was dismissed by the one-AND prefilter.
        assert_eq!(st.sig_rejects, st.subsumption_checks, "k = {k}: {st:?}");
    }
}
