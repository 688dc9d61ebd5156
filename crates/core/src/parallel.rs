//! Parallel cube-partitioned all-solutions enumeration, with adaptive
//! cube-and-conquer splitting.
//!
//! The search space over the important variables is split into disjoint
//! *partition cubes*. Two partitioners share the worker/merge machinery:
//!
//! * **Static** (`--no-adaptive`): `2^kp` cubes over the *first* `kp`
//!   branching levels (the guiding-path prefix). Workers pull cube indices
//!   from a shared atomic counter and enumerate each cube's subspace with
//!   the sequential success-driven engine seeded with the cube as its
//!   branching prefix.
//! * **Adaptive** (the default): an *uneven cube tree* in the style of
//!   lookahead-based decomposition (Kondratiev et al., see PAPERS.md).
//!   A cheap propagation lookahead ([`presat_sat::Solver::probe_lit`])
//!   scores every important variable by its reduction measure — the
//!   product of the two phases' implied-assignment counts — and the
//!   initial `2^kp` cubes branch on the `kp` *highest-scoring* variables
//!   instead of the first `kp`. At run time, a worker whose cube crosses a
//!   conflict threshold abandons it, splits it on the next best-scored
//!   unforced variable, and pushes both children onto a shared work
//!   queue, so pathological subspaces recursively fan out across the
//!   fleet while easy ones finish in one shot.
//!
//! # Determinism
//!
//! The merged result is bit-identical to the sequential engine's output at
//! any thread count — even though *which* cubes split (and therefore the
//! shape of the cube tree) depends on scheduling. The argument:
//!
//! * Each finished leaf explores the **full** important-variable tree with
//!   its cube literals as *forced levels* (see `Search::forced`), so its
//!   result is the reduced, hash-consed decision DAG of `f ∧ cube` — the
//!   canonical representation of that subspace's exact solution set, a
//!   function of the problem alone, never of scheduling.
//! * The leaves partition the space, so the union of their solution sets
//!   is exactly the solution set of `f`. [`SolutionGraph::import`]
//!   canonicalises each leaf root into the master graph and
//!   [`SolutionGraph::union`] accumulates them; reduced DAGs of equal
//!   functions are isomorphic, so the master root matches the sequential
//!   graph node-for-node *regardless of the tree shape*.
//! * [`SolutionGraph::to_cube_set`] walks the DAG in a fixed lo-then-hi
//!   order, so even the *order* of the emitted cubes matches.
//!
//! Leaves are merged in cube-*tree* DFS order (each outcome carries its
//! tree path, not a flat index), which pins down the event replay order
//! and the master graph's construction order deterministically for a
//! given tree shape.
//!
//! Work counters (decisions, conflicts, propagations, splits) legitimately
//! vary with scheduling — a cube enumerated by a warmed-up solver clone
//! does less work and may split elsewhere — but solutions, cubes, and
//! graph shape never do.
//!
//! # Budgets
//!
//! Counter budgets (conflicts/propagations) are held in one shared
//! [`BudgetPool`] that every worker charges per conflict, so the fleet
//! spends the *caller's* budget once — not once per worker. The wall-clock
//! deadline is an absolute instant and therefore shared by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use presat_logic::{Cnf, Lit, Var};
use presat_obs::{Event, ObsSink, StopReason, VecSink};
use presat_sat::{Budget, BudgetPool, CancelToken, Solver};

use crate::engine::{AllSatEngine, AllSatProblem, AllSatResult, EnumerationStats};
use crate::limits::{first_reason, EnumLimits};
use crate::signature::{ConnectivityIndex, ResidualIndex};
use crate::solution_graph::{SolutionGraph, SolutionNodeId};
use crate::success_driven::{Search, SigCache, SignatureMode, SuccessDrivenAllSat};

/// Upper bound on the partition-prefix length: `2^8 = 256` cubes saturates
/// any sane thread count while keeping per-cube solver overhead bounded.
const MAX_PREFIX: usize = 8;

/// Upper bound on a cube-tree path length (initial prefix plus dynamic
/// splits). Paths are packed into a `u32`; 24 levels is orders of
/// magnitude deeper than any useful split cascade.
const MAX_TREE_DEPTH: usize = 24;

/// Default conflict threshold at which a worker abandons its cube and
/// splits it ([`ParTuning::split_threshold`]).
pub const DEFAULT_SPLIT_THRESHOLD: u64 = 1024;

/// Default `important × clauses` size product below which a *preimage
/// step* skips the worker fleet and runs sequentially (see
/// [`ParTuning::par_threshold`]). This is the default for the preimage
/// layer (`SatPreimage`), tuned so small reachability steps (cnt5-class
/// encodings) stay sequential while parity11-class steps still fan out;
/// the bare [`ParallelAllSat`] engine defaults to `0` (always parallel).
pub const DEFAULT_PAR_THRESHOLD: u64 = 4096;

/// Tuning knobs of the parallel partitioner, shared by [`ParallelAllSat`]
/// and the incremental session (`crate::IncrementalAllSat`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParTuning {
    /// Use the adaptive cube tree (lookahead-scored initial split plus
    /// dynamic work splitting). `false` selects the static `2^kp` prefix
    /// partition over the first `kp` branching levels.
    pub adaptive: bool,
    /// Conflict count at which a worker abandons its current cube and
    /// splits it into two children (`0` = never split). Ignored in static
    /// mode.
    pub split_threshold: u64,
    /// Spawn gate: problems whose `important × clauses` product falls
    /// below this skip the fleet and run sequentially (`0` = always
    /// parallel).
    pub par_threshold: u64,
}

impl Default for ParTuning {
    fn default() -> Self {
        ParTuning {
            adaptive: true,
            split_threshold: DEFAULT_SPLIT_THRESHOLD,
            // The bare engine always spawns; the preimage layer installs
            // DEFAULT_PAR_THRESHOLD where tiny reach steps are the issue.
            par_threshold: 0,
        }
    }
}

impl ParTuning {
    /// `true` if spawning the worker fleet cannot pay for itself: either
    /// the problem is too small to amortize spawn-and-merge, or the host
    /// has no hardware parallelism at all (threads would serialize on one
    /// CPU and every fleet cost would be pure overhead). Both checks are
    /// only active when the gate itself is (`par_threshold > 0`), so
    /// forcing `par_threshold = 0` still exercises the real fleet — the
    /// determinism suites rely on that. Gating never changes the result:
    /// the sequential and parallel paths are bit-identical by contract.
    pub(crate) fn gates_sequential(&self, k: usize, num_clauses: usize) -> bool {
        if self.par_threshold == 0 {
            return false;
        }
        // Cached: the gate runs once per enumeration (hundreds of times
        // in a reachability fixed point) and the parallelism probe is a
        // syscall. A host whose parallelism cannot be probed counts as
        // single-CPU, matching `effective_jobs`' auto-detect fallback.
        static SINGLE_CPU: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let single_cpu = *SINGLE_CPU.get_or_init(|| effective_jobs(0) <= 1);
        single_cpu || (k as u64).saturating_mul(num_clauses as u64) < self.par_threshold
    }
}

/// The parallel wrapper around [`SuccessDrivenAllSat`]: partitions the
/// branching space into disjoint cubes, enumerates them on worker
/// threads, and merges deterministically.
///
/// `jobs == 1` (the default) delegates to the sequential engine outright;
/// `jobs == 0` asks the OS for the available parallelism. Construction is
/// cheap; all state lives inside `enumerate_with_sink`.
///
/// # Examples
///
/// ```
/// use presat_allsat::{AllSatEngine, AllSatProblem, ParallelAllSat, SuccessDrivenAllSat};
/// use presat_logic::{Cnf, Lit, Var};
///
/// let vars: Vec<Var> = (0..3).map(Var::new).collect();
/// let mut cnf = Cnf::new(3);
/// cnf.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1]), Lit::pos(vars[2])]);
/// let problem = AllSatProblem::new(cnf, vars);
///
/// let seq = SuccessDrivenAllSat::new().enumerate(&problem);
/// let par = ParallelAllSat::new(4).enumerate(&problem);
/// // Not merely the same set: the identical cube list, in the same order.
/// assert_eq!(par.cubes, seq.cubes);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelAllSat {
    inner: SuccessDrivenAllSat,
    jobs: usize,
    tuning: ParTuning,
}

impl Default for ParallelAllSat {
    fn default() -> Self {
        ParallelAllSat {
            inner: SuccessDrivenAllSat::new(),
            jobs: 1,
            tuning: ParTuning::default(),
        }
    }
}

impl ParallelAllSat {
    /// An engine running with `jobs` worker threads (`0` = auto-detect).
    pub fn new(jobs: usize) -> Self {
        ParallelAllSat {
            jobs,
            ..ParallelAllSat::default()
        }
    }

    /// Sets the worker-thread count (`0` = auto-detect).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Selects the subspace-signature mode of the underlying engine.
    pub fn with_signature(mut self, mode: SignatureMode) -> Self {
        self.inner = self.inner.with_signature(mode);
        self
    }

    /// Enables or disables model guidance in the underlying engine.
    pub fn with_model_guidance(mut self, on: bool) -> Self {
        self.inner = self.inner.with_model_guidance(on);
        self
    }

    /// Enables or disables the adaptive cube tree (see
    /// [`ParTuning::adaptive`]).
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.tuning.adaptive = on;
        self
    }

    /// Sets the dynamic-split conflict threshold (`0` = never split).
    pub fn with_split_threshold(mut self, threshold: u64) -> Self {
        self.tuning.split_threshold = threshold;
        self
    }

    /// Sets the sequential-fallback spawn gate (`0` = always parallel).
    pub fn with_par_threshold(mut self, threshold: u64) -> Self {
        self.tuning.par_threshold = threshold;
        self
    }

    /// Sets all partitioner tuning knobs at once.
    pub fn with_tuning(mut self, tuning: ParTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The effective thread count (resolving `jobs == 0` to the OS value).
    fn effective_jobs(&self) -> usize {
        effective_jobs(self.jobs)
    }
}

/// Resolves a requested worker count to the effective one: `0` means
/// "auto-detect" and asks the OS for the available parallelism (falling
/// back to `1` when the query fails, e.g. in restricted sandboxes); any
/// other value is taken literally. Every `--jobs`-style knob in the
/// workspace — the parallel engines, the incremental sessions, the bench
/// binaries, the service daemon's scheduler — resolves through this one
/// helper so the fallback cannot drift.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Partition-prefix length for `jobs` workers over `k` important
/// variables: enough levels that the cube queue (`2^kp` entries) keeps
/// every worker busy (~4 cubes each for stealing slack), capped at
/// [`MAX_PREFIX`] and at `k` itself.
pub(crate) fn prefix_len(jobs: usize, k: usize) -> usize {
    let want = usize::BITS as usize - (4 * jobs).saturating_sub(1).leading_zeros() as usize;
    want.clamp(1, MAX_PREFIX.min(k))
}

/// What one cube-tree leaf produced: the subspace root in its worker's
/// graph, the per-leaf work-counter delta (including work carried from
/// abandoned ancestors, so leaves still sum to the merged totals), and the
/// per-leaf event trace (replayed into the caller's sink at merge time, in
/// tree DFS order).
struct LeafOutcome {
    /// Tree path: bit `j` = phase chosen at tree level `j`.
    path_bits: u32,
    /// Number of valid bits in `path_bits`.
    path_len: u8,
    worker: usize,
    root: SolutionNodeId,
    stats: EnumerationStats,
    events: Vec<Event>,
    /// The leaf's own early-stop reason, if its enumeration was cut short.
    stopped: Option<StopReason>,
    /// `true` if the leaf was drained unexplored after a global stop
    /// (reported as `BOTTOM` so the merge still accounts every leaf).
    cancelled: bool,
}

/// One dynamic split, recorded by the worker that performed it and
/// replayed as an [`Event::CubeSplit`] in merge (tree DFS) order.
struct SplitRecord {
    path_bits: u32,
    path_len: u8,
    var: u32,
}

/// DFS-lexicographic order on cube-tree paths: walk the bits from the
/// root; at the first level where the paths differ, `false` (lo) sorts
/// before `true` (hi). Leaves form an antichain (no path prefixes
/// another), so the first differing level always decides; the length
/// tie-break orders a split node before its descendants.
fn path_cmp(a_bits: u32, a_len: u8, b_bits: u32, b_len: u8) -> std::cmp::Ordering {
    let n = a_len.min(b_len);
    for level in 0..n {
        let a = a_bits >> level & 1;
        let b = b_bits >> level & 1;
        if a != b {
            return a.cmp(&b);
        }
    }
    a_len.cmp(&b_len)
}

/// `true` if path `(p_bits, p_len)` is a (non-strict) prefix of
/// `(q_bits, q_len)`.
fn path_is_prefix(p_bits: u32, p_len: u8, q_bits: u32, q_len: u8) -> bool {
    p_len <= q_len && (q_bits & ((1u32 << p_len) - 1)) == p_bits
}

impl AllSatEngine for ParallelAllSat {
    fn name(&self) -> &'static str {
        "success-driven-parallel"
    }

    fn enumerate_limited(
        &self,
        problem: &AllSatProblem,
        limits: &EnumLimits,
        sink: &mut dyn ObsSink,
    ) -> AllSatResult {
        let jobs = self.effective_jobs();
        let k = problem.important.len();
        if jobs <= 1
            || k == 0
            || self
                .tuning
                .gates_sequential(k, problem.cnf.num_clauses())
        {
            return self.inner.enumerate_limited(problem, limits, sink);
        }

        // One warm template: parsing/watcher setup happens once, workers
        // clone it at the root.
        let template = Solver::from_cnf(&problem.cnf);
        let mut master = SolutionGraph::new(k);
        let (root, mut stats, stop) = enumerate_partitioned(
            self.inner,
            self.tuning,
            jobs,
            &problem.cnf,
            &problem.important,
            &template,
            &[],
            limits,
            &mut master,
            sink,
        );

        // Totals that must describe the *merged* result, not a sum of the
        // per-cube views (subspace graphs overlap after canonicalisation).
        stats.graph_nodes = master.reachable_count(root) as u64;
        let cubes = master.to_cube_set(root, &problem.important);
        stats.cubes_emitted = cubes.len() as u64;
        for cube in &cubes {
            sink.record(&Event::Solution {
                width: cube.len() as u32,
            });
        }
        AllSatResult {
            cubes,
            graph: Some((master, root)),
            stats,
            complete: stop.is_none(),
            stop_reason: stop,
        }
    }
}

/// Cube-partitioned enumeration into a caller-owned master graph.
///
/// Splits the branching space over `important` into disjoint cubes (a
/// static `2^kp` prefix partition, or an adaptive cube tree per
/// `tuning`), enumerates them on worker threads (each worker clones
/// `template` at the root and assumes `base` ahead of its cube literals),
/// and merges the subspace roots into `master` strictly in cube/tree DFS
/// order, returning the merged root and the absorbed work counters
/// (`graph_nodes` and `cubes_emitted` are left for the caller, which owns
/// the master graph).
///
/// This is shared between [`ParallelAllSat`] (fresh template and master
/// per call, empty `base`) and the incremental session
/// (`crate::IncrementalAllSat`: persistent template solver and master
/// graph, the iteration's activation literal as `base`). Requires
/// `jobs >= 2` and a non-empty `important` set.
///
/// # Anytime behavior under `limits`
///
/// Counter budgets (conflicts/propagations) are spent from one shared
/// [`BudgetPool`], so the fleet spends the caller's budget exactly once
/// (plus at most one conflict of overshoot per worker); the wall-clock
/// deadline is absolute and therefore shared; the external cancel token is
/// installed in every worker's solver. The first worker to stop fires an
/// internal all-workers token; remaining queue cubes are drained as
/// unexplored-`BOTTOM` outcomes (counted in `cancelled_cubes`) so the
/// merge still accounts every cube. The returned stop reason is the first
/// stopped cube's, in merge order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_partitioned(
    config: SuccessDrivenAllSat,
    tuning: ParTuning,
    jobs: usize,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    master: &mut SolutionGraph,
    sink: &mut dyn ObsSink,
) -> (SolutionNodeId, EnumerationStats, Option<StopReason>) {
    if tuning.adaptive {
        enumerate_adaptive(
            config, tuning, jobs, cnf, important, template, base, limits, master, sink,
        )
    } else {
        enumerate_static(
            config, jobs, cnf, important, template, base, limits, master, sink,
        )
    }
}

/// Scores every important variable by propagation lookahead under `base`
/// and returns the branching depths sorted best-first.
///
/// The measure is the product of the two phases' implied-assignment
/// counts ([`Solver::probe_lit`]): a variable that propagates far in
/// *both* phases cuts the search space most evenly and deeply. A failed
/// or already-implied phase scores zero — splitting there would leave one
/// child empty. Ties break on the phase sum, then on depth, so the order
/// is a pure function of the solver state and never of scheduling.
fn lookahead_order(
    template: &Solver,
    important: &[Var],
    base: &[Lit],
    stats: &mut EnumerationStats,
) -> Vec<u32> {
    let mut probe = template.clone_at_root();
    let mut scored: Vec<(u128, u64, u32)> = Vec::with_capacity(important.len());
    for (depth, &var) in important.iter().enumerate() {
        let npos = probe.probe_lit(base, Lit::pos(var));
        let nneg = probe.probe_lit(base, Lit::neg(var));
        let (product, sum) = match (npos, nneg) {
            (Some(p), Some(n)) if p > 0 && n > 0 => {
                (u128::from(p) * u128::from(n), u64::from(p) + u64::from(n))
            }
            _ => (0, 0),
        };
        scored.push((product, sum, depth as u32));
    }
    stats.sat.absorb(probe.stats());
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    scored.into_iter().map(|(_, _, depth)| depth).collect()
}

/// One unit of adaptive work: a cube of the tree, described by its tree
/// path (for merge ordering) and its forced branching levels (for the
/// search itself). `carried` accumulates the work counters of abandoned
/// partial runs up the lo-spine, so finished leaves still sum to the
/// fleet's true totals.
struct WorkItem {
    path_bits: u32,
    path_len: u8,
    /// `(branching depth, phase)` per tree level, in tree-level order.
    forced: Vec<(u32, bool)>,
    carried: EnumerationStats,
}

/// The shared adaptive work queue: a deque of cubes plus an in-flight
/// count. Workers block on the condvar when the deque is momentarily
/// empty but cubes are still in flight (an in-flight cube may split and
/// refill the deque); when the deque is empty and nothing is in flight,
/// the enumeration is over.
struct WorkQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    in_flight: usize,
}

impl WorkQueue {
    fn new(items: VecDeque<WorkItem>) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items,
                in_flight: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Pops the next cube, blocking while the deque is empty but cubes
    /// are in flight. Returns `None` once no cube exists or can appear.
    /// Each blocking wait is counted into `steal_waits`.
    fn pop(&self, steal_waits: &mut u64) -> Option<WorkItem> {
        let mut st = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                st.in_flight += 1;
                return Some(item);
            }
            if st.in_flight == 0 {
                return None;
            }
            *steal_waits += 1;
            st = self.cond.wait(st).expect("work queue poisoned");
        }
    }

    /// Marks the current cube finished (it became a leaf).
    fn finish(&self) {
        let mut st = self.state.lock().expect("work queue poisoned");
        st.in_flight -= 1;
        if st.in_flight == 0 && st.items.is_empty() {
            // Enumeration over: wake every blocked worker so it can exit.
            self.cond.notify_all();
        }
    }

    /// Replaces the current cube with its two children.
    fn split_into(&self, lo: WorkItem, hi: WorkItem) {
        let mut st = self.state.lock().expect("work queue poisoned");
        st.items.push_back(lo);
        st.items.push_back(hi);
        st.in_flight -= 1;
        self.cond.notify_all();
    }
}

/// The first `split_order` depth not yet forced by the cube, if any —
/// the variable a dynamic split would branch on. Deterministic: depends
/// only on the (root-computed) order and the cube itself.
fn next_split_depth(split_order: &[u32], forced: &[(u32, bool)]) -> Option<u32> {
    split_order
        .iter()
        .copied()
        .find(|d| !forced.iter().any(|&(fd, _)| fd == *d))
}

/// Adaptive cube-tree enumeration (see the module docs).
#[allow(clippy::too_many_arguments)]
fn enumerate_adaptive(
    config: SuccessDrivenAllSat,
    tuning: ParTuning,
    jobs: usize,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    master: &mut SolutionGraph,
    sink: &mut dyn ObsSink,
) -> (SolutionNodeId, EnumerationStats, Option<StopReason>) {
    let k = important.len();
    debug_assert!(jobs >= 2 && k > 0);
    let mut stats = EnumerationStats::default();

    // Root lookahead: one deterministic scoring pass on the master thread
    // decides the initial branching levels AND every later dynamic split
    // point, so workers never probe (probing on warmed worker clones
    // would make the tree shape — though never the result — depend on
    // scheduling more than necessary, and would repeat work).
    let split_order = lookahead_order(template, important, base, &mut stats);
    let kp = prefix_len(jobs, k);
    let num_cubes = 1usize << kp;

    let mut initial = VecDeque::with_capacity(num_cubes);
    for bits in 0..num_cubes as u32 {
        let forced: Vec<(u32, bool)> = (0..kp)
            .map(|level| (split_order[level], bits >> level & 1 == 1))
            .collect();
        initial.push_back(WorkItem {
            path_bits: bits,
            path_len: kp as u8,
            forced,
            carried: EnumerationStats::default(),
        });
    }
    let queue = WorkQueue::new(initial);
    let stop_all = CancelToken::new();
    let solutions_total = AtomicU64::new(0);
    let pool = BudgetPool::from_budget(&limits.budget);
    let split_threshold = tuning.split_threshold;

    let worker_results: Vec<AdaptiveWorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|worker_id| {
                let queue = &queue;
                let stop_all = &stop_all;
                let solutions_total = &solutions_total;
                let pool = pool.clone();
                let split_order = &split_order;
                scope.spawn(move || {
                    run_adaptive_worker(
                        worker_id,
                        config,
                        cnf,
                        important,
                        template,
                        base,
                        limits,
                        queue,
                        stop_all,
                        solutions_total,
                        pool,
                        split_order,
                        split_threshold,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect()
    });

    // ---- Deterministic merge: strictly in cube-tree DFS order. ----
    let mut leaves: Vec<LeafOutcome> = Vec::new();
    let mut splits: Vec<SplitRecord> = Vec::new();
    for out in &worker_results {
        stats.steal_waits += out.steal_waits;
    }
    let mut worker_graphs: Vec<SolutionGraph> = Vec::with_capacity(worker_results.len());
    for out in worker_results {
        leaves.extend(out.leaves);
        splits.extend(out.splits);
        worker_graphs.push(out.graph);
    }
    leaves.sort_by(|a, b| path_cmp(a.path_bits, a.path_len, b.path_bits, b.path_len));
    debug_assert_eq!(
        leaves.len(),
        num_cubes + splits.len(),
        "every split adds exactly one leaf"
    );

    // Each split event replays immediately before the first (DFS-wise)
    // leaf below it, outermost split first.
    let mut splits_at: Vec<Vec<&SplitRecord>> = vec![Vec::new(); leaves.len()];
    for s in &splits {
        let pos = leaves
            .iter()
            .position(|l| path_is_prefix(s.path_bits, s.path_len, l.path_bits, l.path_len))
            .expect("split node has leaves below it");
        splits_at[pos].push(s);
    }
    for bucket in &mut splits_at {
        bucket.sort_by_key(|s| s.path_len);
    }

    let mut acc = SolutionNodeId::BOTTOM;
    for (i, leaf) in leaves.iter().enumerate() {
        for s in &splits_at[i] {
            sink.record(&Event::CubeSplit {
                path: s.path_bits,
                depth: s.path_len,
                var: s.var,
            });
        }
        let node = master.import(&worker_graphs[leaf.worker], leaf.root);
        acc = master.union(acc, node);
        for e in &leaf.events {
            sink.record(e);
        }
        sink.record(&Event::CubeDone {
            cube_index: i as u32,
            solver_calls: leaf.stats.solver_calls,
        });
        stats.absorb(&leaf.stats);
    }
    stats.sat_conflicts = stats.sat.conflicts;
    stats.sat_decisions = stats.sat.decisions;
    let stop = first_reason(leaves.iter().map(|l| l.stopped)).or_else(|| {
        leaves
            .iter()
            .any(|l| l.cancelled)
            .then_some(StopReason::Cancelled)
    });
    if let Some(reason) = stop {
        sink.record(&Event::BudgetStop { reason });
    }
    (acc, stats, stop)
}

/// Everything one adaptive worker hands back to the merge.
struct AdaptiveWorkerOutput {
    graph: SolutionGraph,
    leaves: Vec<LeafOutcome>,
    splits: Vec<SplitRecord>,
    steal_waits: u64,
}

/// One adaptive worker: pulls cubes from the shared queue until no cube
/// exists or can appear, enumerating each with persistent per-worker state
/// (a solver clone, the signature indices, one solution graph, one
/// signature cache) so later cubes benefit from everything earlier cubes
/// learnt.
///
/// A cube eligible for splitting runs under a local conflict threshold;
/// when the threshold trips (and the shared pool is not the real culprit),
/// the partial run is discarded — its work counters are carried into the
/// lo child so totals still add up, and its partial subspace root is
/// *not* kept (completed sub-subspaces already cached stay, they are
/// sound) — and both children go back on the queue for whoever is idle.
#[allow(clippy::too_many_arguments)]
fn run_adaptive_worker(
    worker_id: usize,
    config: SuccessDrivenAllSat,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    queue: &WorkQueue,
    stop_all: &CancelToken,
    solutions_total: &AtomicU64,
    pool: Option<BudgetPool>,
    split_order: &[u32],
    split_threshold: u64,
) -> AdaptiveWorkerOutput {
    let k = important.len();
    let mut solver = template.clone_at_root();
    solver.set_cancel(limits.cancel.clone());
    solver.set_pool(pool.clone());
    let mut conn = (config.signature == SignatureMode::Static)
        .then(|| ConnectivityIndex::build(cnf, important));
    let mut residual =
        (config.signature == SignatureMode::Dynamic).then(|| ResidualIndex::build(cnf));
    let mut graph = SolutionGraph::new(k);
    let mut cache = SigCache::default();
    let mut leaves = Vec::new();
    let mut splits = Vec::new();
    let mut steal_waits = 0u64;

    while let Some(item) = queue.pop(&mut steal_waits) {
        if stop_all.is_cancelled() {
            // Drain mode: keep the cube (and any counters an abandoned
            // ancestor carried into it) accounted for, do no work.
            let mut stats = item.carried;
            stats.cancelled_cubes += 1;
            leaves.push(LeafOutcome {
                path_bits: item.path_bits,
                path_len: item.path_len,
                worker: worker_id,
                root: SolutionNodeId::BOTTOM,
                stats,
                events: Vec::new(),
                stopped: None,
                cancelled: true,
            });
            queue.finish();
            continue;
        }

        let split_depth = next_split_depth(split_order, &item.forced);
        // Decided *before* running: a cube that cannot split further must
        // not run under the local threshold, or a threshold stop would
        // discard work that cannot be re-queued.
        let can_split = split_threshold > 0
            && (item.path_len as usize) < MAX_TREE_DEPTH
            && split_depth.is_some();

        // Cube literals ride ahead of the branching prefix as base
        // assumptions; the search itself walks the FULL tree from depth 0
        // with the cube levels forced, so the leaf result is the
        // canonical DAG of f ∧ cube (see the module docs).
        let mut prefix_lits: Vec<Lit> = base.to_vec();
        let mut forced: Vec<Option<bool>> = vec![None; k];
        for &(depth, phase) in &item.forced {
            prefix_lits.push(Lit::with_phase(important[depth as usize], phase));
            forced[depth as usize] = Some(phase);
        }
        solver.reset_stats();
        solver.set_budget(Budget {
            conflicts: can_split.then_some(split_threshold),
            propagations: None,
            deadline: limits.budget.deadline,
        });
        let found_before = limits
            .max_solutions
            .map(|_| solutions_total.load(Ordering::Relaxed))
            .unwrap_or(0);
        let mut events = VecSink::new();
        let mut search = Search {
            cnf,
            important,
            solver,
            conn: conn.take(),
            residual: residual.take(),
            graph,
            cache,
            stats: EnumerationStats::default(),
            prefix_lits,
            prefix_vals: Vec::with_capacity(k),
            forced,
            model_guidance: config.model_guidance,
            sink: &mut events,
            max_solutions: limits.max_solutions,
            solutions_found: found_before,
            stopped: None,
        };
        let root = search.explore(0, None);
        search.stats.sat = *search.solver.stats();
        let stopped = search.stopped;
        let solutions_found = search.solutions_found;
        // Hand the persistent pieces back for the next cube.
        solver = search.solver;
        conn = search.conn;
        residual = search.residual;
        graph = search.graph;
        cache = search.cache;
        let mut stats = search.stats;
        stats.sig_key_words = cache.words();

        // A Conflicts stop is ambiguous: the local split threshold and
        // the shared pool surface the same reason. The pool's exhaustion
        // state disambiguates; without a pool, Conflicts can only mean
        // the local threshold.
        let pool_dry = pool.as_ref().is_some_and(|p| p.exhausted().is_some());
        if stopped == Some(StopReason::Conflicts) && can_split && !pool_dry {
            // Split: discard the partial subspace (completed sub-subspace
            // cache entries survive — they are exhaustive and sound),
            // carry the counters into the lo child, re-queue both halves.
            let depth = split_depth.expect("can_split checked it");
            stats.cubes_split += 1;
            let mut carried = item.carried;
            carried.absorb(&stats);
            splits.push(SplitRecord {
                path_bits: item.path_bits,
                path_len: item.path_len,
                var: important[depth as usize].index() as u32,
            });
            let mut lo_forced = item.forced.clone();
            lo_forced.push((depth, false));
            let mut hi_forced = item.forced;
            hi_forced.push((depth, true));
            let lo = WorkItem {
                path_bits: item.path_bits,
                path_len: item.path_len + 1,
                forced: lo_forced,
                carried,
            };
            let hi = WorkItem {
                path_bits: item.path_bits | 1 << item.path_len,
                path_len: item.path_len + 1,
                forced: hi_forced,
                carried: EnumerationStats::default(),
            };
            queue.split_into(lo, hi);
            continue;
        }

        // Finished leaf (exhaustive, or a real stop whose partial result
        // is kept — explore() reported unexplored subspaces as BOTTOM).
        stats.max_cube_conflicts = stats.max_cube_conflicts.max(stats.sat.conflicts);
        if limits.max_solutions.is_some() {
            let delta = solutions_found.saturating_sub(found_before);
            solutions_total.fetch_add(delta, Ordering::Relaxed);
        }
        if stopped.is_some() {
            stats.budget_stops = 1;
            stop_all.cancel();
        }
        let mut full = item.carried;
        full.absorb(&stats);
        leaves.push(LeafOutcome {
            path_bits: item.path_bits,
            path_len: item.path_len,
            worker: worker_id,
            root,
            stats: full,
            events: events.events,
            stopped,
            cancelled: false,
        });
        queue.finish();
    }
    AdaptiveWorkerOutput {
        graph,
        leaves,
        splits,
        steal_waits,
    }
}

/// Static `2^kp` prefix partitioning (`--no-adaptive`): cube *j*'s phases
/// are the bits of *j* over the first `kp` branching levels, workers pull
/// indices from an atomic counter, and the merge rebuilds the prefix
/// levels with a bottom-up [`SolutionGraph::mk`] chain.
#[allow(clippy::too_many_arguments)]
fn enumerate_static(
    config: SuccessDrivenAllSat,
    jobs: usize,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    master: &mut SolutionGraph,
    sink: &mut dyn ObsSink,
) -> (SolutionNodeId, EnumerationStats, Option<StopReason>) {
    let k = important.len();
    debug_assert!(jobs >= 2 && k > 0);
    let kp = prefix_len(jobs, k);
    let num_cubes = 1usize << kp;
    let workers = jobs.min(num_cubes);
    let next_cube = AtomicUsize::new(0);
    // Internal stop-the-fleet token (distinct from the caller's): fired by
    // the first worker that stops, checked by all between cubes.
    let stop_all = CancelToken::new();
    let solutions_total = AtomicU64::new(0);
    let pool = BudgetPool::from_budget(&limits.budget);

    let mut worker_results: Vec<(SolutionGraph, Vec<LeafOutcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker_id| {
                let template = &template;
                let next_cube = &next_cube;
                let stop_all = &stop_all;
                let solutions_total = &solutions_total;
                let pool = pool.clone();
                scope.spawn(move || {
                    run_static_worker(
                        worker_id,
                        config,
                        cnf,
                        important,
                        template,
                        base,
                        limits,
                        next_cube,
                        stop_all,
                        solutions_total,
                        pool,
                        num_cubes,
                        kp,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("enumeration worker panicked"))
            .collect()
    });

    // ---- Deterministic merge: strictly in cube-index order. ----
    let mut outcomes: Vec<LeafOutcome> = Vec::with_capacity(num_cubes);
    for (_, outs) in &mut worker_results {
        outcomes.append(outs);
    }
    outcomes.sort_unstable_by_key(|o| o.path_bits);
    debug_assert_eq!(outcomes.len(), num_cubes, "every cube accounted for");

    let mut stats = EnumerationStats::default();
    let mut layer: Vec<SolutionNodeId> = Vec::with_capacity(num_cubes);
    for o in &outcomes {
        layer.push(master.import(&worker_results[o.worker].0, o.root));
        for e in &o.events {
            sink.record(e);
        }
        sink.record(&Event::CubeDone {
            cube_index: o.path_bits,
            solver_calls: o.stats.solver_calls,
        });
        stats.absorb(&o.stats);
    }
    // Rebuild the prefix levels bottom-up: bit `level` of a cube index
    // is the phase of branching level `level`, so at each level the
    // lo/hi pair of an index differs in the current top bit.
    for level in (0..kp).rev() {
        let half = 1usize << level;
        layer = (0..half)
            .map(|i| master.mk(level, layer[i], layer[i + half]))
            .collect();
    }
    let root = layer[0];
    stats.sat_conflicts = stats.sat.conflicts;
    stats.sat_decisions = stats.sat.decisions;
    let stop = first_reason(outcomes.iter().map(|o| o.stopped)).or_else(|| {
        // Only drained cubes and no recorded reason can happen when the
        // caller's token fired between a worker's stop check and its first
        // solver poll; the honest reason is the cancellation itself.
        outcomes
            .iter()
            .any(|o| o.cancelled)
            .then_some(StopReason::Cancelled)
    });
    if let Some(reason) = stop {
        sink.record(&Event::BudgetStop { reason });
    }
    (root, stats, stop)
}

/// One static worker: pulls cube indices from the shared counter until the
/// queue is dry, enumerating each with persistent per-worker state (a
/// solver clone, the signature indices, one solution graph, one signature
/// cache) so later cubes benefit from everything earlier cubes learnt. The
/// clone is cheap — the flat clause arena copies as one contiguous buffer,
/// not one allocation per clause (table R8) — so spawning workers stays
/// O(bytes) even when the template carries a large warm session database.
///
/// Counter budgets are charged to the shared [`BudgetPool`] (never a
/// per-worker residue, which would let the fleet spend N× the caller's
/// budget); once the fleet-stop token fires, the rest of the queue is
/// drained as unexplored-`BOTTOM` outcomes without touching the solver.
#[allow(clippy::too_many_arguments)]
fn run_static_worker(
    worker_id: usize,
    config: SuccessDrivenAllSat,
    cnf: &Cnf,
    important: &[Var],
    template: &Solver,
    base: &[Lit],
    limits: &EnumLimits,
    next_cube: &AtomicUsize,
    stop_all: &CancelToken,
    solutions_total: &AtomicU64,
    pool: Option<BudgetPool>,
    num_cubes: usize,
    kp: usize,
) -> (SolutionGraph, Vec<LeafOutcome>) {
    let k = important.len();
    let mut solver = template.clone_at_root();
    solver.set_cancel(limits.cancel.clone());
    solver.set_pool(pool);
    // The deadline is an absolute instant, so copying it shares it; the
    // counter limits live in the shared pool instead.
    let worker_budget = Budget {
        conflicts: None,
        propagations: None,
        deadline: limits.budget.deadline,
    };
    let mut conn = (config.signature == SignatureMode::Static)
        .then(|| ConnectivityIndex::build(cnf, important));
    let mut residual =
        (config.signature == SignatureMode::Dynamic).then(|| ResidualIndex::build(cnf));
    let mut graph = SolutionGraph::new(k);
    let mut cache = SigCache::default();
    let mut outcomes = Vec::new();

    loop {
        let index = next_cube.fetch_add(1, Ordering::Relaxed);
        if index >= num_cubes {
            break;
        }
        if stop_all.is_cancelled() {
            // Drain mode: keep the cube accounted for, do no work.
            let stats = EnumerationStats {
                cancelled_cubes: 1,
                ..EnumerationStats::default()
            };
            outcomes.push(LeafOutcome {
                path_bits: index as u32,
                path_len: kp as u8,
                worker: worker_id,
                root: SolutionNodeId::BOTTOM,
                stats,
                events: Vec::new(),
                stopped: None,
                cancelled: true,
            });
            continue;
        }
        // `base` (e.g. a session activation literal) rides ahead of the
        // cube prefix in `prefix_lits`; `prefix_vals` stays branching-only.
        let mut prefix_lits: Vec<Lit> = base.to_vec();
        let mut prefix_vals: Vec<bool> = Vec::with_capacity(kp);
        for (level, &var) in important.iter().take(kp).enumerate() {
            let phase = index >> level & 1 == 1;
            prefix_lits.push(Lit::with_phase(var, phase));
            prefix_vals.push(phase);
        }
        solver.reset_stats();
        solver.set_budget(worker_budget);
        let found_before = limits
            .max_solutions
            .map(|_| solutions_total.load(Ordering::Relaxed))
            .unwrap_or(0);
        let mut events = VecSink::new();
        let mut search = Search {
            cnf,
            important,
            solver,
            conn: conn.take(),
            residual: residual.take(),
            graph,
            cache,
            stats: EnumerationStats::default(),
            prefix_lits,
            prefix_vals,
            forced: Vec::new(),
            model_guidance: config.model_guidance,
            sink: &mut events,
            max_solutions: limits.max_solutions,
            solutions_found: found_before,
            stopped: None,
        };
        let root = search.explore(kp, None);
        search.stats.sat = *search.solver.stats();
        if limits.max_solutions.is_some() {
            let delta = search.solutions_found.saturating_sub(found_before);
            solutions_total.fetch_add(delta, Ordering::Relaxed);
        }
        let stopped = search.stopped;
        if stopped.is_some() {
            search.stats.budget_stops = 1;
            stop_all.cancel();
        }
        // Hand the persistent pieces back for the next cube.
        solver = search.solver;
        conn = search.conn;
        residual = search.residual;
        graph = search.graph;
        cache = search.cache;
        let mut stats = search.stats;
        stats.sig_key_words = cache.words();
        stats.max_cube_conflicts = stats.max_cube_conflicts.max(stats.sat.conflicts);
        outcomes.push(LeafOutcome {
            path_bits: index as u32,
            path_len: kp as u8,
            worker: worker_id,
            root,
            stats,
            events: events.events,
            stopped,
            cancelled: false,
        });
    }
    (graph, outcomes)
}

/// Enumerates with the parallel engine and also returns the raw per-cube
/// outcomes' stats (index, per-cube counters), for tests and the bench
/// harness to check that per-worker work sums cleanly.
pub fn enumerate_detailed(
    engine: &ParallelAllSat,
    problem: &AllSatProblem,
) -> (AllSatResult, Vec<(u32, u64)>) {
    let mut sink = VecSink::new();
    let result = engine.enumerate_with_sink(problem, &mut sink);
    let per_cube = sink
        .events
        .iter()
        .filter_map(|e| match e {
            Event::CubeDone {
                cube_index,
                solver_calls,
            } => Some((*cube_index, *solver_calls)),
            _ => None,
        })
        .collect();
    (result, per_cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::{truth_table, Cnf, Var};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    fn random_cnf(seed: u64, n: usize, m: usize) -> Cnf {
        use presat_logic::rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut cnf = Cnf::new(n);
        for _ in 0..m {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(rng.gen_range(0..n), rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(c);
        }
        cnf
    }

    #[test]
    fn prefix_len_is_monotone_and_capped() {
        assert_eq!(prefix_len(2, 20), 3); // 8 cubes for 2 workers
        assert_eq!(prefix_len(4, 20), 4); // 16 cubes for 4
        assert_eq!(prefix_len(64, 20), MAX_PREFIX);
        assert_eq!(prefix_len(4, 2), 2); // capped at k
        assert_eq!(prefix_len(1, 20), 2);
    }

    #[test]
    fn path_order_is_dfs() {
        use std::cmp::Ordering::*;
        // 00 < 010 < 011 < 1 (bit 0 = tree level 0).
        assert_eq!(path_cmp(0b00, 2, 0b010, 3), Less);
        assert_eq!(path_cmp(0b010, 3, 0b110, 3), Less);
        assert_eq!(path_cmp(0b110, 3, 0b1, 1), Less);
        assert_eq!(path_cmp(0b1, 1, 0b00, 2), Greater);
        // A split node sorts before its descendants.
        assert_eq!(path_cmp(0b01, 2, 0b001, 3), Less);
        assert!(path_is_prefix(0b01, 2, 0b101, 3));
        assert!(!path_is_prefix(0b11, 2, 0b101, 3));
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        for seed in 0..8 {
            let n = 8;
            let cnf = random_cnf(seed, n, 18);
            let important: Vec<Var> = Var::range(6).collect();
            let p = AllSatProblem::new(cnf, important);
            let seq = SuccessDrivenAllSat::new().enumerate(&p);
            for jobs in [2, 3, 4, 7] {
                let par = ParallelAllSat::new(jobs).enumerate(&p);
                assert_eq!(par.cubes, seq.cubes, "seed {seed} jobs {jobs}");
                assert_eq!(
                    par.stats.graph_nodes, seq.stats.graph_nodes,
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn split_storm_matches_sequential_bit_for_bit() {
        // Threshold 1: every cube that survives one conflict splits, so
        // the tree fans out maximally — the result must not move.
        for seed in 0..8 {
            let cnf = random_cnf(seed, 8, 18);
            let important: Vec<Var> = Var::range(6).collect();
            let p = AllSatProblem::new(cnf, important);
            let seq = SuccessDrivenAllSat::new().enumerate(&p);
            for jobs in [2, 4, 7] {
                let par = ParallelAllSat::new(jobs)
                    .with_split_threshold(1)
                    .enumerate(&p);
                assert_eq!(par.cubes, seq.cubes, "seed {seed} jobs {jobs}");
                assert_eq!(
                    par.stats.graph_nodes, seq.stats.graph_nodes,
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }

    #[test]
    fn static_partitioning_matches_sequential_bit_for_bit() {
        for seed in 0..6 {
            let cnf = random_cnf(seed, 8, 16);
            let important: Vec<Var> = Var::range(6).collect();
            let p = AllSatProblem::new(cnf, important);
            let seq = SuccessDrivenAllSat::new().enumerate(&p);
            let par = ParallelAllSat::new(4).with_adaptive(false).enumerate(&p);
            assert_eq!(par.cubes, seq.cubes, "seed {seed}");
            assert_eq!(par.stats.graph_nodes, seq.stats.graph_nodes);
        }
    }

    #[test]
    fn agrees_with_truth_table_oracle() {
        for seed in 20..26 {
            let n = 7;
            let cnf = random_cnf(seed, n, 14);
            let important: Vec<Var> = Var::range(5).collect();
            let p = AllSatProblem::new(cnf.clone(), important.clone());
            let expect = truth_table::project_models_set(&cnf, &important);
            let r = ParallelAllSat::new(4).enumerate(&p);
            assert!(r.cubes.semantically_eq(&expect, &important), "seed {seed}");
        }
    }

    #[test]
    fn unsat_problem_yields_empty_set() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true)]);
        cnf.add_clause([lit(0, false)]);
        let p = AllSatProblem::new(cnf, (0..3).map(Var::new).collect());
        let r = ParallelAllSat::new(4).enumerate(&p);
        assert!(r.cubes.is_empty());
        let (_, root) = r.graph.expect("graph always built");
        assert_eq!(root, SolutionNodeId::BOTTOM);
    }

    #[test]
    fn tautology_collapses_to_universe() {
        // No constraints at all: every cube's subspace is TOP, and the
        // merge must collapse the whole prefix tree back to TOP.
        let cnf = Cnf::new(4);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        for engine in [
            ParallelAllSat::new(4),
            ParallelAllSat::new(4).with_adaptive(false),
        ] {
            let r = engine.enumerate(&p);
            assert!(r.cubes.is_universe());
            let (_, root) = r.graph.expect("graph");
            assert_eq!(root, SolutionNodeId::TOP);
            assert_eq!(r.stats.graph_nodes, 1);
        }
    }

    #[test]
    fn jobs_one_delegates_to_sequential() {
        let cnf = random_cnf(3, 6, 10);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        let seq = SuccessDrivenAllSat::new().enumerate(&p);
        let par = ParallelAllSat::new(1).enumerate(&p);
        assert_eq!(par.cubes, seq.cubes);
        // Delegation means identical work, too.
        assert_eq!(par.stats.solver_calls, seq.stats.solver_calls);
    }

    #[test]
    fn par_threshold_gates_small_problems_sequential() {
        let cnf = random_cnf(3, 6, 10);
        let p = AllSatProblem::new(cnf, (0..4).map(Var::new).collect());
        let seq = SuccessDrivenAllSat::new().enumerate(&p);
        // k * clauses = 40 < 1000: the gate must route to the sequential
        // engine (identical work), despite jobs = 4.
        let gated = ParallelAllSat::new(4).with_par_threshold(1000).enumerate(&p);
        assert_eq!(gated.cubes, seq.cubes);
        assert_eq!(gated.stats.solver_calls, seq.stats.solver_calls);
        assert_eq!(gated.stats.sat.lookahead_probes, 0);
        // Threshold 0 disables the gate: the fleet runs and probes.
        let par = ParallelAllSat::new(4).with_par_threshold(0).enumerate(&p);
        assert_eq!(par.cubes, seq.cubes);
        assert!(par.stats.sat.lookahead_probes > 0);
    }

    #[test]
    fn ablation_configs_stay_deterministic() {
        let cnf = random_cnf(11, 7, 15);
        let important: Vec<Var> = Var::range(5).collect();
        let p = AllSatProblem::new(cnf, important);
        for mode in [
            SignatureMode::None,
            SignatureMode::Static,
            SignatureMode::Dynamic,
        ] {
            let seq = SuccessDrivenAllSat::new()
                .with_signature(mode)
                .enumerate(&p);
            for adaptive in [false, true] {
                for threshold in [0, 1, DEFAULT_SPLIT_THRESHOLD] {
                    let par = ParallelAllSat::new(4)
                        .with_signature(mode)
                        .with_adaptive(adaptive)
                        .with_split_threshold(threshold)
                        .enumerate(&p);
                    assert_eq!(
                        par.cubes, seq.cubes,
                        "mode {mode:?} adaptive {adaptive} threshold {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn cube_done_events_cover_every_partition_cube() {
        let cnf = random_cnf(5, 7, 12);
        let p = AllSatProblem::new(cnf, (0..5).map(Var::new).collect());
        let engine = ParallelAllSat::new(2);
        let (result, per_cube) = enumerate_detailed(&engine, &p);
        let kp = prefix_len(2, 5);
        assert_eq!(per_cube.len(), 1 << kp);
        // Replayed in cube order, covering 0..2^kp exactly once.
        let indices: Vec<u32> = per_cube.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..1u32 << kp).collect::<Vec<_>>());
        // Per-cube solver calls sum to the merged total.
        let total: u64 = per_cube.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, result.stats.solver_calls);
    }

    #[test]
    fn split_events_replay_in_merge_order_and_account_leaves() {
        let cnf = random_cnf(7, 8, 20);
        let p = AllSatProblem::new(cnf, (0..6).map(Var::new).collect());
        let engine = ParallelAllSat::new(4).with_split_threshold(1);
        let mut sink = VecSink::new();
        let result = engine.enumerate_with_sink(&p, &mut sink);
        assert!(result.complete);
        let splits = sink.count(|e| matches!(e, Event::CubeSplit { .. }));
        let leaves = sink.count(|e| matches!(e, Event::CubeDone { .. }));
        let kp = prefix_len(4, 6);
        // Every split turns one cube into two: leaf count grows by one.
        assert_eq!(leaves, (1 << kp) + splits);
        assert_eq!(result.stats.cubes_split, splits as u64);
        // Leaf solver calls (carried work included) sum to the total.
        let total: u64 = sink
            .events
            .iter()
            .filter_map(|e| match e {
                Event::CubeDone { solver_calls, .. } => Some(*solver_calls),
                _ => None,
            })
            .sum();
        assert_eq!(total, result.stats.solver_calls);
        // Each CubeSplit replays before the first CubeDone below it, so
        // cube indices in the replay stay strictly increasing.
        let indices: Vec<u32> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                Event::CubeDone { cube_index, .. } => Some(*cube_index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, (0..leaves as u32).collect::<Vec<_>>());
    }

    #[test]
    fn lookahead_order_prefers_propagating_variables() {
        // x0 is inert (appears in no clause); x1 implies x2 and x3 both
        // ways, so it must outrank x0 and come first.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        cnf.add_clause([lit(1, true), lit(2, false)]);
        cnf.add_clause([lit(1, false), lit(3, true)]);
        cnf.add_clause([lit(1, true), lit(3, false)]);
        let important: Vec<Var> = Var::range(4).collect();
        let template = Solver::from_cnf(&cnf);
        let mut stats = EnumerationStats::default();
        let order = lookahead_order(&template, &important, &[], &mut stats);
        assert_eq!(order[0], 1, "x1 propagates furthest: {order:?}");
        assert!(stats.sat.lookahead_probes >= 8);
    }
}
