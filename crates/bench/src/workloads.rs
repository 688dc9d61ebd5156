//! The benchmark suite: circuits and their preimage targets.

use presat_circuit::{embedded, generators, Circuit};
use presat_preimage::{ReachReport, StateSet};

/// One benchmark instance: a circuit plus the target set whose preimage is
/// computed.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short identifier used in table rows.
    pub label: String,
    /// The circuit.
    pub circuit: Circuit,
    /// The target state set.
    pub target: StateSet,
}

impl Workload {
    fn new(label: &str, circuit: Circuit, target: StateSet) -> Self {
        Workload {
            label: label.to_string(),
            circuit,
            target,
        }
    }
}

/// The main suite (tables R1–R3): mixed structural regimes, sized so the
/// slowest baseline still terminates in seconds.
pub fn suite() -> Vec<Workload> {
    let mut out = Vec::new();

    let s27 = embedded::s27().expect("embedded netlist");
    out.push(Workload::new(
        "s27",
        s27,
        StateSet::from_state_bits(0b110, 3),
    ));

    let ctl2 = embedded::ctl2().expect("embedded netlist");
    out.push(Workload::new(
        "ctl2",
        ctl2,
        StateSet::from_state_bits(0b11, 2),
    ));

    out.push(Workload::new(
        "cnt12e",
        generators::counter(12, true),
        StateSet::from_state_bits(0x0800, 12),
    ));

    out.push(Workload::new(
        "shift12",
        generators::shift_register(12),
        StateSet::from_partial(&[(11, true), (0, false)]),
    ));

    out.push(Workload::new(
        "lfsr12",
        generators::lfsr(12),
        StateSet::from_state_bits(0x013, 12),
    ));

    out.push(Workload::new(
        "parity8",
        generators::parity(8),
        StateSet::from_partial(&[(8, true)]),
    ));

    out.push(Workload::new(
        "parity10",
        generators::parity(10),
        StateSet::from_partial(&[(10, true)]),
    ));

    out.push(Workload::new(
        "arb4",
        generators::round_robin_arbiter(4),
        StateSet::from_partial(&[(4, true), (5, true)]),
    ));

    out.push(Workload::new(
        "cmp6",
        generators::comparator(6),
        StateSet::from_partial(&[(6, true)]),
    ));

    out.push(Workload::new(
        "gray10",
        generators::gray_counter(10),
        StateSet::from_state_bits(0x200, 10),
    ));

    out.push(Workload::new(
        "johnson12",
        generators::johnson_counter(12),
        StateSet::from_state_bits(0x00F, 12),
    ));

    out.push(Workload::new(
        "traffic",
        generators::traffic_controller(),
        StateSet::from_partial(&[(0, true), (2, true)]),
    ));

    out.push(Workload::new(
        "fifo6",
        generators::fifo_controller(6),
        StateSet::from_partial(&[(6, true)]),
    ));

    out.push(Workload::new(
        "rnd6x8",
        generators::random_dag(6, 8, 80, 2004),
        StateSet::from_partial(&[(0, true), (3, false)]),
    ));

    out
}

/// The scaling family for figures F1/F2: parity circuits whose preimage
/// has exactly `2^(n-1) · 2` solution minterms and no wider prime cubes —
/// the blocking-clause worst case with a linear-size solution graph.
pub fn scaling_workload(n: usize) -> Workload {
    Workload::new(
        &format!("parity{n}"),
        generators::parity(n),
        StateSet::from_partial(&[(n, true)]),
    )
}

/// The SAT-vs-BDD family for table R4: comparators, whose transition
/// function is exponential for the BDD engine's block variable order.
pub fn sat_vs_bdd_workload(n: usize) -> Workload {
    Workload::new(
        &format!("cmp{n}"),
        generators::comparator(n),
        StateSet::from_partial(&[(n, true)]),
    )
}

/// The reachability family for figure F3: counters (long chains, one new
/// state per iteration) and arbiters (fast convergence).
pub fn reach_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "cnt5",
            generators::counter(5, false),
            StateSet::from_state_bits(0, 5),
        ),
        Workload::new(
            "cnt6e",
            generators::counter(6, true),
            StateSet::from_state_bits(0, 6),
        ),
        Workload::new(
            "arb3",
            generators::round_robin_arbiter(3),
            StateSet::from_partial(&[(3, true), (4, true)]),
        ),
        Workload::new(
            "shift8",
            generators::shift_register(8),
            StateSet::from_state_bits(0xFF, 8),
        ),
    ]
}

/// Deep backward fixed points for table R14, all to state 0: 128–512
/// iterations on one incremental session, the regime where how often
/// the session inprocesses decides its cost.
pub fn deep_reach_workloads() -> Vec<Workload> {
    vec![
        Workload::new(
            "gray7",
            generators::gray_counter(7),
            StateSet::from_state_bits(0, 7),
        ),
        Workload::new(
            "gray8",
            generators::gray_counter(8),
            StateSet::from_state_bits(0, 8),
        ),
        Workload::new(
            "cnt8e",
            generators::counter(8, true),
            StateSet::from_state_bits(0, 8),
        ),
        Workload::new(
            "cnt9",
            generators::counter(9, false),
            StateSet::from_state_bits(0, 9),
        ),
    ]
}

/// Asserts that two reachability reports did the same work: same
/// convergence, same reached cube set, and the same iteration rows. The
/// reach benches run this before timing two configurations against each
/// other, since a speedup is only meaningful if the answers match.
pub fn assert_identical_reach(label: &str, a: &ReachReport, b: &ReachReport) {
    assert_eq!(a.converged, b.converged, "{label}: convergence diverged");
    assert_eq!(
        a.reached.cubes(),
        b.reached.cubes(),
        "{label}: reached cube set diverged"
    );
    assert_eq!(
        a.iterations.len(),
        b.iterations.len(),
        "{label}: iteration count diverged"
    );
    for (x, y) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(
            (x.frontier_cubes, x.new_states, x.reached_states),
            (y.frontier_cubes, y.new_states, y.reached_states),
            "{label}: iteration row {} diverged",
            x.iteration
        );
    }
}

/// The ablation suite for figure F4: circuits where each mechanism
/// (signatures, model guidance, lifting) has visible leverage.
pub fn ablation_workloads() -> Vec<Workload> {
    vec![
        scaling_workload(8),
        Workload::new(
            "shift10",
            generators::shift_register(10),
            StateSet::from_partial(&[(9, true)]),
        ),
        Workload::new(
            "cmp5",
            generators::comparator(5),
            StateSet::from_partial(&[(5, true)]),
        ),
        Workload::new(
            "rnd5x6",
            generators::random_dag(5, 6, 60, 7),
            StateSet::from_partial(&[(1, true)]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_circuits_validate() {
        for w in suite() {
            w.circuit
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.label));
            assert!(!w.target.is_empty());
        }
    }

    #[test]
    fn families_are_well_formed() {
        for n in [4, 8] {
            scaling_workload(n).circuit.validate().unwrap();
            sat_vs_bdd_workload(n).circuit.validate().unwrap();
        }
        for w in reach_workloads().into_iter().chain(ablation_workloads()) {
            w.circuit.validate().unwrap();
        }
    }
}
