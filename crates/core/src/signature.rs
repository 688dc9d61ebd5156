//! Sound subspace signatures for success-driven learning.
//!
//! Two branching prefixes lead to the *same* set of suffix solutions
//! whenever they agree on the variables that can still influence the
//! suffix. This module computes, once per problem, the *relevant prefix
//! positions* for every branching depth: a prefix position `p < d` is
//! relevant at depth `d` iff its variable is connected to some suffix
//! variable (position `≥ d`) in the CNF's variable co-occurrence graph via
//! a path whose intermediate vertices are all non-important (auxiliary)
//! variables.
//!
//! Soundness sketch: fix a prefix assignment. The CNF decomposes into
//! connected components; the suffix solution set is determined by the
//! components containing suffix variables, which touch exactly the relevant
//! prefix variables (a prefix variable inside such a component is, by
//! definition, connected through auxiliary vertices). Components not
//! containing suffix variables only decide global satisfiability, which the
//! success-driven engine re-checks with a dedicated solver call *before*
//! consulting the cache. Agreement on relevant values therefore implies
//! identical cached subgraphs. The signature is conservative (it is
//! computed on the unreduced formula, a superset of the reduced-formula
//! connectivity), so over-distinguishing — never unsoundness — is the
//! failure mode.

use presat_logic::{Cnf, Var};

/// Precomputed relevant-prefix index for a problem.
#[derive(Clone, Debug)]
pub struct ConnectivityIndex {
    /// `relevant[d]` = sorted prefix positions (`< d`) relevant for the
    /// suffix starting at depth `d`, for `d` in `0..=k`.
    relevant: Vec<Vec<u32>>,
}

/// A cache key: the depth plus the values of the relevant prefix positions.
pub(crate) type Signature = (u32, Vec<bool>);

impl ConnectivityIndex {
    /// Builds the index for `cnf` with branching order `important`.
    pub fn build(cnf: &Cnf, important: &[Var]) -> Self {
        let num_vars = cnf.num_vars();
        let k = important.len();

        // position_of[v] = Some(branching position) for important vars.
        let mut position_of: Vec<Option<u32>> = vec![None; num_vars];
        for (i, &v) in important.iter().enumerate() {
            position_of[v.index()] = Some(i as u32);
        }

        // Var ↔ clause incidence.
        let mut clauses_of_var: Vec<Vec<u32>> = vec![Vec::new(); num_vars];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause {
                clauses_of_var[l.var().index()].push(ci as u32);
            }
        }

        let mut relevant: Vec<Vec<u32>> = Vec::with_capacity(k + 1);
        // Depth d: BFS from suffix vars (positions ≥ d); expand through
        // auxiliary and suffix variables; record prefix positions.
        for d in 0..=k {
            let mut var_seen = vec![false; num_vars];
            let mut clause_seen = vec![false; cnf.num_clauses()];
            let mut frontier: Vec<usize> = important[d..].iter().map(|v| v.index()).collect();
            for &v in &frontier {
                var_seen[v] = true;
            }
            let mut found: Vec<u32> = Vec::new();
            while let Some(v) = frontier.pop() {
                for &ci in &clauses_of_var[v] {
                    if clause_seen[ci as usize] {
                        continue;
                    }
                    clause_seen[ci as usize] = true;
                    for &l in &cnf.clauses()[ci as usize] {
                        let w = l.var().index();
                        if var_seen[w] {
                            continue;
                        }
                        var_seen[w] = true;
                        match position_of[w] {
                            Some(p) if (p as usize) < d => found.push(p),
                            // Suffix or auxiliary variable: keep expanding.
                            _ => frontier.push(w),
                        }
                    }
                }
            }
            found.sort_unstable();
            relevant.push(found);
        }
        ConnectivityIndex { relevant }
    }

    /// The relevant prefix positions at `depth`.
    pub fn relevant_at(&self, depth: usize) -> &[u32] {
        &self.relevant[depth]
    }

    /// Builds the cache key for a prefix: `prefix_values[p]` is the value
    /// assigned to branching position `p` (`p < depth`).
    pub(crate) fn signature(&self, depth: usize, prefix_values: &[bool]) -> Signature {
        debug_assert!(prefix_values.len() >= depth);
        (
            depth as u32,
            self.relevant[depth]
                .iter()
                .map(|&p| prefix_values[p as usize])
                .collect(),
        )
    }

    /// Average number of relevant positions across depths — a compactness
    /// diagnostic reported by the benchmark tables (smaller = more reuse).
    pub fn mean_relevant(&self) -> f64 {
        if self.relevant.is_empty() {
            return 0.0;
        }
        let total: usize = self.relevant.iter().map(Vec::len).sum();
        total as f64 / self.relevant.len() as f64
    }
}

/// Dynamic (residual-cone) signature computation.
///
/// Where [`ConnectivityIndex`] inspects the *unreduced* formula, the
/// residual signature looks at the formula **after unit propagation under
/// the prefix**: clauses satisfied by the propagation are gone, falsified
/// literals are deleted from the survivors, and the suffix subspace is
/// characterized exactly by the *contents* of the surviving clauses
/// reachable from the suffix variables. Two prefixes with identical residual
/// cones have identical suffix solution sets, even when the prefixes
/// themselves differ everywhere — e.g. all even-parity prefixes of a parity
/// constraint share one cone.
///
/// The signature is exact (clauses are compared by surviving literal
/// content, not hashed), so reuse is never unsound.
///
/// The index owns epoch-stamped scratch that every [`signature`] call
/// reuses, so a call allocates nothing but the key it returns.
///
/// [`signature`]: ResidualIndex::signature
#[derive(Clone, Debug)]
pub struct ResidualIndex {
    /// Var index → clause indices containing it.
    clauses_of_var: Vec<Vec<u32>>,
    /// Stamp of the current call: a clause or variable has been visited in
    /// this call iff its mark equals `epoch`.
    epoch: u32,
    clause_mark: Vec<u32>,
    var_mark: Vec<u32>,
    frontier: Vec<usize>,
    /// Surviving literal codes of every residual clause, back to back.
    lits: Vec<u32>,
    /// `(start, len)` of each residual clause in `lits`.
    spans: Vec<(u32, u32)>,
}

/// The exact residual-cone key, one flat prefix-free word vector:
///
/// ```text
/// depth, n, implied[0..n], (len, lits[0..len])*
/// ```
///
/// `implied` holds `2·position + value` for every suffix position unit
/// propagation already assigns; each residual clause follows as its length
/// and its sorted surviving literal codes, the clauses sorted and
/// deduplicated by content. Two keys are equal exactly when depth, implied
/// values, and the *set* of residual clauses agree.
pub(crate) type ResidualSignature = Vec<u32>;

impl ResidualIndex {
    /// Builds the incidence index for `cnf`.
    pub fn build(cnf: &Cnf) -> Self {
        let mut clauses_of_var: Vec<Vec<u32>> = vec![Vec::new(); cnf.num_vars()];
        for (ci, clause) in cnf.clauses().iter().enumerate() {
            for &l in clause {
                clauses_of_var[l.var().index()].push(ci as u32);
            }
        }
        ResidualIndex {
            clauses_of_var,
            epoch: 0,
            clause_mark: vec![0; cnf.num_clauses()],
            var_mark: vec![0; cnf.num_vars()],
            frontier: Vec::new(),
            lits: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Extends the incidence index to cover clauses (and variables) added
    /// to `cnf` since the index was built or last extended;
    /// `first_new_clause` is the clause count at that point. Used by the
    /// incremental session, which grows one CNF across enumerate calls.
    pub fn extend(&mut self, cnf: &Cnf, first_new_clause: usize) {
        self.clauses_of_var.resize(cnf.num_vars(), Vec::new());
        for (ci, clause) in cnf.clauses().iter().enumerate().skip(first_new_clause) {
            for &l in clause {
                self.clauses_of_var[l.var().index()].push(ci as u32);
            }
        }
        self.clause_mark.resize(cnf.num_clauses(), 0);
        self.var_mark.resize(cnf.num_vars(), 0);
    }

    /// Starts a call: a fresh stamp marks nothing visited. On wrap-around
    /// every mark is cleared, so a stale stamp can never match.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.clause_mark.fill(0);
            self.var_mark.fill(0);
            self.epoch = 1;
        }
    }

    /// Computes the residual signature of the suffix `important[depth..]`
    /// under the propagated partial assignment `alpha`, laid out as
    /// [`ResidualSignature`] documents.
    ///
    /// `alpha` must assign every prefix variable (it is the result of unit
    /// propagation under the prefix).
    pub(crate) fn signature(
        &mut self,
        cnf: &Cnf,
        alpha: &presat_logic::Assignment,
        important: &[Var],
        depth: usize,
    ) -> ResidualSignature {
        self.next_epoch();
        let epoch = self.epoch;
        let suffix = &important[depth..];
        let mut implied = 0usize;
        for &v in suffix {
            if alpha.value(v).is_some() {
                implied += 1;
            } else if self.var_mark[v.index()] != epoch {
                self.var_mark[v.index()] = epoch;
                self.frontier.push(v.index());
            }
        }
        self.lits.clear();
        self.spans.clear();
        while let Some(v) = self.frontier.pop() {
            for &ci in &self.clauses_of_var[v] {
                if self.clause_mark[ci as usize] == epoch {
                    continue;
                }
                self.clause_mark[ci as usize] = epoch;
                let start = self.lits.len();
                let mut satisfied = false;
                for &l in &cnf.clauses()[ci as usize] {
                    match alpha.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => self.lits.push(l.code() as u32),
                    }
                }
                if satisfied {
                    self.lits.truncate(start);
                    continue;
                }
                let surviving = &mut self.lits[start..];
                for &code in surviving.iter() {
                    let w = (code >> 1) as usize;
                    if self.var_mark[w] != epoch {
                        self.var_mark[w] = epoch;
                        self.frontier.push(w);
                    }
                }
                surviving.sort_unstable();
                let mut len = 0;
                for i in 0..surviving.len() {
                    if i == 0 || surviving[i] != surviving[len - 1] {
                        surviving[len] = surviving[i];
                        len += 1;
                    }
                }
                self.lits.truncate(start + len);
                self.spans.push((start as u32, len as u32));
            }
        }
        let lits = &self.lits;
        let clause = |&(start, len): &(u32, u32)| &lits[start as usize..(start + len) as usize];
        self.spans.sort_unstable_by(|a, b| clause(a).cmp(clause(b)));
        self.spans.dedup_by(|a, b| clause(a) == clause(b));

        let clause_words: usize = self.spans.iter().map(|&(_, len)| 1 + len as usize).sum();
        let words = 2 + implied + clause_words;
        let mut key = Vec::with_capacity(words);
        key.push(depth as u32);
        key.push(implied as u32);
        for (i, &v) in suffix.iter().enumerate() {
            if let Some(b) = alpha.value(v) {
                key.push(2 * (depth + i) as u32 + u32::from(b));
            }
        }
        for span in &self.spans {
            key.push(span.1);
            key.extend_from_slice(clause(span));
        }
        debug_assert_eq!(key.len(), words);
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::rng::SplitMix64;
    use presat_logic::{Assignment, Lit};

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_phase(Var::new(v), pos)
    }

    #[test]
    fn independent_variables_have_empty_relevance() {
        // Two unrelated unit clauses on x0 and x1.
        let mut cnf = Cnf::new(2);
        cnf.add_unit(lit(0, true));
        cnf.add_unit(lit(1, true));
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert!(idx.relevant_at(0).is_empty());
        assert!(idx.relevant_at(1).is_empty(), "x0 does not touch x1");
        assert!(idx.relevant_at(2).is_empty());
    }

    #[test]
    fn direct_clause_link_is_relevant() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert_eq!(idx.relevant_at(1), &[0]);
    }

    #[test]
    fn link_through_auxiliary_is_relevant() {
        // x0 — aux(x2) — x1
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(2, true)]);
        cnf.add_clause([lit(2, false), lit(1, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        assert_eq!(idx.relevant_at(1), &[0]);
    }

    #[test]
    fn link_blocked_by_important_variable_is_not_relevant() {
        // Chain x0 — x1 — x2 over important {x0, x1, x2}: at depth 2
        // (suffix {x2}), x1 is adjacent (relevant) but x0 is only reachable
        // through the important vertex x1, hence irrelevant.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        cnf.add_clause([lit(1, false), lit(2, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1), Var::new(2)]);
        assert_eq!(idx.relevant_at(2), &[1]);
    }

    #[test]
    fn signature_filters_prefix_values() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1, true), lit(2, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1), Var::new(2)]);
        // At depth 2, only position 1 matters.
        let s1 = idx.signature(2, &[true, false]);
        let s2 = idx.signature(2, &[false, false]);
        assert_eq!(s1, s2, "x0's value must not distinguish signatures");
        let s3 = idx.signature(2, &[true, true]);
        assert_ne!(s1, s3);
    }

    /// The nested key the flat [`ResidualSignature`] replaced: depth, the
    /// implied `(position, value)` pairs, and the sorted, deduplicated
    /// residual clauses, each its own vector. The equivalence test holds
    /// the flat key to this reference.
    fn reference_signature(
        idx: &ResidualIndex,
        cnf: &Cnf,
        alpha: &Assignment,
        important: &[Var],
        depth: usize,
    ) -> (u32, Vec<(u32, bool)>, Vec<Vec<u32>>) {
        let suffix = &important[depth..];
        let implied: Vec<(u32, bool)> = suffix
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| alpha.value(v).map(|b| ((depth + i) as u32, b)))
            .collect();
        let mut clause_seen = vec![false; cnf.num_clauses()];
        let mut var_seen = vec![false; cnf.num_vars()];
        let mut frontier: Vec<usize> = Vec::new();
        for &v in suffix {
            if alpha.value(v).is_none() && !var_seen[v.index()] {
                var_seen[v.index()] = true;
                frontier.push(v.index());
            }
        }
        let mut residuals: Vec<Vec<u32>> = Vec::new();
        while let Some(v) = frontier.pop() {
            for &ci in &idx.clauses_of_var[v] {
                if clause_seen[ci as usize] {
                    continue;
                }
                clause_seen[ci as usize] = true;
                let clause = &cnf.clauses()[ci as usize];
                if clause.iter().any(|&l| alpha.lit_value(l) == Some(true)) {
                    continue;
                }
                let mut surviving: Vec<u32> = clause
                    .iter()
                    .filter(|&&l| alpha.lit_value(l).is_none())
                    .map(|l| l.code() as u32)
                    .collect();
                for &code in &surviving {
                    let w = (code >> 1) as usize;
                    if !var_seen[w] {
                        var_seen[w] = true;
                        frontier.push(w);
                    }
                }
                surviving.sort_unstable();
                surviving.dedup();
                residuals.push(surviving);
            }
        }
        residuals.sort_unstable();
        residuals.dedup();
        (depth as u32, implied, residuals)
    }

    #[test]
    fn residual_signature_merges_equivalent_prefixes() {
        // Parity over 3 vars, direct encoding: prefixes 00 and 11 (even
        // parity) must share a signature at depth 2; 01/10 share the other.
        let n = 3;
        let mut cnf = Cnf::new(n);
        for bits in 0..8u32 {
            if bits.count_ones() % 2 == 0 {
                cnf.add_clause((0..n).map(|i| lit(i, bits >> i & 1 == 0)));
            }
        }
        let mut idx = ResidualIndex::build(&cnf);
        let important: Vec<Var> = Var::range(n).collect();
        let mut sig = |b0: bool, b1: bool| {
            let mut a = Assignment::new(n);
            a.assign(Var::new(0), b0);
            a.assign(Var::new(1), b1);
            idx.signature(&cnf, &a, &important, 2)
        };
        assert_eq!(sig(false, false), sig(true, true));
        assert_eq!(sig(false, true), sig(true, false));
        assert_ne!(sig(false, false), sig(false, true));
    }

    #[test]
    fn residual_signature_drops_satisfied_clauses() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let mut idx = ResidualIndex::build(&cnf);
        let important = [Var::new(0), Var::new(1)];
        let mut a = Assignment::new(2);
        a.assign(Var::new(0), true); // clause satisfied → depth 1, nothing implied, no clause
        assert_eq!(idx.signature(&cnf, &a, &important, 1), vec![1, 0]);
        a.assign(Var::new(0), false); // clause shrinks to (x1): one clause of length 1
        let x1 = Lit::pos(Var::new(1)).code() as u32;
        assert_eq!(idx.signature(&cnf, &a, &important, 1), vec![1, 0, 1, x1]);
    }

    #[test]
    fn residual_signature_reaches_through_aux() {
        // suffix x1 — aux x2 — clause with prefix x0 falsified literal.
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1, true), lit(2, true)]);
        cnf.add_clause([lit(2, false), lit(0, true)]);
        let mut idx = ResidualIndex::build(&cnf);
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), false);
        let s = idx.signature(&cnf, &a, &[Var::new(0), Var::new(1)], 1);
        // Both clauses survive, in content order: (x1 ∨ x2) = [2, 4] and
        // (¬x2) = [5] with the x0 literal removed.
        assert_eq!(s, vec![1, 0, 2, 2, 4, 1, 5]);
    }

    #[test]
    fn residual_signature_records_implied_suffix_values() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([lit(1, true), lit(2, true)]);
        let mut idx = ResidualIndex::build(&cnf);
        let important: Vec<Var> = Var::range(3).collect();
        let mut a = Assignment::new(3);
        a.assign(Var::new(0), true);
        a.assign(Var::new(2), false);
        // Position 2 implied false (code 4); (x1 ∨ x2) shrinks to (x1).
        assert_eq!(idx.signature(&cnf, &a, &important, 1), vec![1, 1, 4, 1, 2]);
    }

    #[test]
    fn clause_boundaries_distinguish_keys() {
        // Under x0=0, x1=1 the residual is the units (x2), (x3); under
        // x0=1, x1=0 it is the one clause (x2 ∨ x3). Same literals, split
        // differently: the length words keep the keys apart.
        let mut cnf = Cnf::new(4);
        cnf.add_clause([lit(0, true), lit(2, true)]);
        cnf.add_clause([lit(0, true), lit(3, true)]);
        cnf.add_clause([lit(1, true), lit(2, true), lit(3, true)]);
        let mut idx = ResidualIndex::build(&cnf);
        let important: Vec<Var> = Var::range(4).collect();
        let mut key = |b0: bool, b1: bool| {
            let mut a = Assignment::new(4);
            a.assign(Var::new(0), b0);
            a.assign(Var::new(1), b1);
            idx.signature(&cnf, &a, &important, 2)
        };
        assert_eq!(key(false, true), vec![2, 0, 1, 4, 1, 6]);
        assert_eq!(key(true, false), vec![2, 0, 2, 4, 6]);
    }

    /// A random CNF over `n` variables whose later clauses repeat earlier
    /// ones with a different extra prefix literal, so distinct clauses
    /// often leave identical residual content.
    fn random_cnf(rng: &mut SplitMix64, n: usize, prefix: usize) -> Cnf {
        let mut cnf = Cnf::new(n);
        let rand_lit = |rng: &mut SplitMix64, vars: std::ops::Range<usize>| {
            lit(rng.gen_range(vars), rng.gen_bool(0.5))
        };
        for _ in 0..6 {
            let width = 1 + rng.gen_range(0..3);
            let c: Vec<Lit> = (0..width).map(|_| rand_lit(rng, 0..n)).collect();
            cnf.add_clause(c);
        }
        for _ in 0..4 {
            let width = 1 + rng.gen_range(0..2);
            let body: Vec<Lit> = (0..width).map(|_| rand_lit(rng, prefix..n)).collect();
            for _ in 0..2 {
                let mut c = body.clone();
                c.push(rand_lit(rng, 0..prefix));
                cnf.add_clause(c);
            }
        }
        cnf
    }

    #[test]
    fn flat_keys_are_equal_exactly_when_reference_keys_are() {
        let (n, k) = (7, 4);
        let important: Vec<Var> = Var::range(k).collect();
        let mut rng = SplitMix64::seed_from_u64(13);
        let mut merged_pairs = 0;
        for _ in 0..40 {
            let cnf = random_cnf(&mut rng, n, k);
            let mut idx = ResidualIndex::build(&cnf);
            let mut keys = Vec::new();
            for depth in 0..=k {
                for bits in 0..1u32 << depth {
                    // Every prefix position assigned; later variables only
                    // sometimes, as propagation would.
                    let mut a = Assignment::new(n);
                    for v in 0..n {
                        if v < depth {
                            a.assign(Var::new(v), bits >> v & 1 == 1);
                        } else if rng.gen_bool(0.2) {
                            a.assign(Var::new(v), rng.gen_bool(0.5));
                        }
                    }
                    let flat = idx.signature(&cnf, &a, &important, depth);
                    let reference = reference_signature(&idx, &cnf, &a, &important, depth);
                    keys.push((flat, reference));
                }
            }
            for (i, (flat_i, ref_i)) in keys.iter().enumerate() {
                for (flat_j, ref_j) in &keys[i + 1..] {
                    assert_eq!(flat_i == flat_j, ref_i == ref_j, "{ref_i:?} vs {ref_j:?}");
                    merged_pairs += usize::from(ref_i == ref_j);
                }
            }
        }
        assert!(merged_pairs > 100, "only {merged_pairs} equal pairs");
    }

    #[test]
    fn epoch_wrap_clears_the_marks() {
        let mut rng = SplitMix64::seed_from_u64(29);
        let cnf = random_cnf(&mut rng, 7, 4);
        let important: Vec<Var> = Var::range(4).collect();
        let mut a = Assignment::new(7);
        a.assign(Var::new(0), true);
        a.assign(Var::new(1), false);
        let fresh = ResidualIndex::build(&cnf).signature(&cnf, &a, &important, 2);
        let mut idx = ResidualIndex::build(&cnf);
        // Stamp epoch 1 over the widest cone, then make the next call wrap
        // back to epoch 1: only clearing the marks keeps those stamps from
        // reading as visited.
        idx.signature(&cnf, &Assignment::new(7), &important, 0);
        idx.epoch = u32::MAX;
        for _ in 0..2 {
            assert_eq!(idx.signature(&cnf, &a, &important, 2), fresh);
        }
        assert_eq!(idx.epoch, 2);
    }

    #[test]
    fn mean_relevant_reports_average() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([lit(0, true), lit(1, true)]);
        let idx = ConnectivityIndex::build(&cnf, &[Var::new(0), Var::new(1)]);
        // relevants: d0: [], d1: [0], d2: [] → mean 1/3
        assert!((idx.mean_relevant() - 1.0 / 3.0).abs() < 1e-9);
    }
}
