//! Clause storage: one flat `u32` arena addressed by word-offset
//! [`ClauseRef`]s.
//!
//! Every clause lives *inline* in a single contiguous `Vec<u32>` — no
//! per-clause heap allocation, no pointer chase on the propagation hot
//! loop, and cloning the whole database for a parallel enumeration worker
//! is one `memcpy`-shaped buffer copy. The layout per clause is:
//!
//! ```text
//! problem clause:  [header][lit0][lit1]…[litk]
//! learnt clause:   [header][lbd][act_lo][act_hi][lit0][lit1]…[litk]
//! ```
//!
//! * `header` packs the literal count (low 28 bits) with the `learnt`
//!   (bit 30) and `deleted` (bit 31) flags;
//! * learnt clauses carry their LBD and a bump-decay activity stored as the
//!   `f64` bit pattern split across two words (keeping full `f64`
//!   precision so the `reduce_db` sort order is bit-identical to the old
//!   boxed representation);
//! * literals are stored as [`Lit::code`] words.
//!
//! Deletion tombstones a clause in place (watchers prune lazily, exactly as
//! before); the bytes are reclaimed by [`ClauseDb::compact`], which copies
//! the live clauses into a fresh buffer in allocation order and hands back
//! a [`Compaction`] for the solver to rewire every outstanding
//! `ClauseRef` (watch lists, reason slots, learnt index). Between
//! compactions every `ClauseRef` stays stable — the arena only ever grows
//! at the tail — so the solver needs no read barriers.

use presat_logic::Lit;

/// Word offset of a clause's header in the solver's flat clause arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ClauseRef(pub(crate) u32);

const LEN_MASK: u32 = (1 << 28) - 1;
const LEARNT_BIT: u32 = 1 << 30;
const DELETED_BIT: u32 = 1 << 31;

/// Header words beyond the header itself: learnt clauses store
/// `[lbd][act_lo][act_hi]` before their literals.
const LEARNT_EXTRA: usize = 3;

/// Decoded clause header plus the word offset of its first literal — one
/// header read serves the whole propagation visit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClauseMeta {
    /// Word offset of `lit0`.
    pub(crate) start: usize,
    /// Number of literals.
    pub(crate) len: usize,
    pub(crate) learnt: bool,
    pub(crate) deleted: bool,
}

/// Typed error: the clause arena has no room for another clause. Callers
/// must not abort on it — the solver surfaces it as
/// [`SolveResult::Unknown`](crate::SolveResult::Unknown) with
/// [`StopReason::ResourceExhausted`](crate::StopReason::ResourceExhausted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ArenaFull;

/// The flat clause arena (see the module docs for the layout).
#[derive(Clone, Debug)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    /// Refs of learnt clauses still alive, for reduction sweeps.
    pub(crate) learnts: Vec<ClauseRef>,
    /// Maximum arena size in **words** before [`ClauseDb::alloc`] reports
    /// [`ArenaFull`]. Defaults to the `u32` offset space of [`ClauseRef`];
    /// tests shrink it to exercise the exhaustion path without allocating
    /// gigabytes.
    pub(crate) capacity: u32,
    /// Words held by tombstoned clauses (the compaction trigger input).
    wasted: usize,
    /// Live learnt clauses, maintained incrementally so the hot-loop
    /// `live_learnts` check is O(1) instead of a filter over the index.
    live_learnt: usize,
}

impl Default for ClauseDb {
    fn default() -> Self {
        ClauseDb {
            arena: Vec::new(),
            learnts: Vec::new(),
            capacity: u32::MAX,
            wasted: 0,
            live_learnt: 0,
        }
    }
}

/// The old→new offset map of one [`ClauseDb::compact`] pass: the retired
/// buffer with each live clause's new offset written over its first
/// metadata word. Deleted clauses map to `None`.
pub(crate) struct Compaction {
    old: Vec<u32>,
    /// Tombstoned clauses whose storage was reclaimed.
    pub(crate) reclaimed: u64,
}

impl Compaction {
    /// New home of `cref`, or `None` if the clause was tombstoned.
    pub(crate) fn remap(&self, cref: ClauseRef) -> Option<ClauseRef> {
        let off = cref.0 as usize;
        if self.old[off] & DELETED_BIT != 0 {
            None
        } else {
            Some(ClauseRef(self.old[off + 1]))
        }
    }
}

impl ClauseDb {
    pub(crate) fn new() -> Self {
        ClauseDb::default()
    }

    /// Words a clause of `len` literals occupies, header included.
    #[inline]
    fn words(len: usize, learnt: bool) -> usize {
        1 + if learnt { LEARNT_EXTRA } else { 0 } + len
    }

    #[inline]
    fn header(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.0 as usize]
    }

    /// Decodes a clause header; one bounds-checked read.
    #[inline]
    pub(crate) fn meta(&self, cref: ClauseRef) -> ClauseMeta {
        let h = self.header(cref);
        let learnt = h & LEARNT_BIT != 0;
        ClauseMeta {
            start: cref.0 as usize + 1 + if learnt { LEARNT_EXTRA } else { 0 },
            len: (h & LEN_MASK) as usize,
            learnt,
            deleted: h & DELETED_BIT != 0,
        }
    }

    #[inline]
    pub(crate) fn len_of(&self, cref: ClauseRef) -> usize {
        (self.header(cref) & LEN_MASK) as usize
    }

    #[inline]
    pub(crate) fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT_BIT != 0
    }

    #[inline]
    pub(crate) fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.header(cref) & DELETED_BIT != 0
    }

    /// The clause's `i`-th literal.
    #[inline]
    pub(crate) fn lit(&self, cref: ClauseRef, i: usize) -> Lit {
        let m = self.meta(cref);
        debug_assert!(i < m.len);
        Lit::from_code(self.arena[m.start + i])
    }

    /// The literal at absolute arena word `w` (callers derive `w` from
    /// [`ClauseDb::meta`]; this skips re-decoding the header per literal on
    /// the propagation hot loop).
    #[inline]
    pub(crate) fn lit_at(&self, w: usize) -> Lit {
        Lit::from_code(self.arena[w])
    }

    /// Swaps two literal words (watch normalization / replacement).
    #[inline]
    pub(crate) fn swap_words(&mut self, a: usize, b: usize) {
        self.arena.swap(a, b);
    }

    /// Literal-block distance of a learnt clause.
    #[inline]
    pub(crate) fn lbd(&self, cref: ClauseRef) -> u32 {
        debug_assert!(self.is_learnt(cref));
        self.arena[cref.0 as usize + 1]
    }

    /// Reduction-heuristic activity of a learnt clause (full `f64`,
    /// bit-split across two arena words).
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f64 {
        debug_assert!(self.is_learnt(cref));
        let off = cref.0 as usize;
        let lo = self.arena[off + 2] as u64;
        let hi = self.arena[off + 3] as u64;
        f64::from_bits(hi << 32 | lo)
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        debug_assert!(self.is_learnt(cref));
        let off = cref.0 as usize;
        let bits = activity.to_bits();
        self.arena[off + 2] = bits as u32;
        self.arena[off + 3] = (bits >> 32) as u32;
    }

    /// Appends a clause to the arena tail. Existing refs are untouched.
    pub(crate) fn alloc(
        &mut self,
        lits: &[Lit],
        learnt: bool,
        lbd: u32,
    ) -> Result<ClauseRef, ArenaFull> {
        debug_assert!(lits.len() >= 2, "unit clauses live on the trail");
        assert!(lits.len() <= LEN_MASK as usize, "clause exceeds header len");
        let words = Self::words(lits.len(), learnt);
        let off = self.arena.len();
        if off + words > self.capacity as usize || off + words > u32::MAX as usize {
            return Err(ArenaFull);
        }
        let cref = ClauseRef(off as u32);
        let header = lits.len() as u32 | if learnt { LEARNT_BIT } else { 0 };
        self.arena.push(header);
        if learnt {
            self.arena.push(lbd);
            self.arena.push(0); // activity = 0.0
            self.arena.push(0);
        }
        for &l in lits {
            self.arena.push(l.code() as u32);
        }
        if learnt {
            self.learnts.push(cref);
            self.live_learnt += 1;
        }
        Ok(cref)
    }

    /// Tombstones a clause (idempotent); bytes are reclaimed by
    /// [`ClauseDb::compact`].
    pub(crate) fn delete(&mut self, cref: ClauseRef) {
        let h = self.header(cref);
        if h & DELETED_BIT != 0 {
            return;
        }
        self.arena[cref.0 as usize] = h | DELETED_BIT;
        self.wasted += Self::words((h & LEN_MASK) as usize, h & LEARNT_BIT != 0);
        if h & LEARNT_BIT != 0 {
            self.live_learnt -= 1;
        }
    }

    /// Tombstones every live clause of length ≥ 3 containing `dead`
    /// (activation-group retirement); returns how many were swept.
    pub(crate) fn delete_containing_long(&mut self, dead: Lit) -> u64 {
        let code = dead.code() as u32;
        let mut removed = 0u64;
        let mut off = 0usize;
        while off < self.arena.len() {
            let h = self.arena[off];
            let len = (h & LEN_MASK) as usize;
            let learnt = h & LEARNT_BIT != 0;
            let words = Self::words(len, learnt);
            let start = off + words - len;
            if h & DELETED_BIT == 0
                && len >= 3
                && self.arena[start..off + words].contains(&code)
            {
                self.arena[off] = h | DELETED_BIT;
                self.wasted += words;
                if learnt {
                    self.live_learnt -= 1;
                }
                removed += 1;
            }
            off += words;
        }
        removed
    }

    /// Iterates the refs of every live (non-tombstoned) clause in
    /// allocation order — the scan surface for the inprocessor's
    /// occurrence lists and the integrity audits.
    pub(crate) fn live_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut off = 0usize;
        std::iter::from_fn(move || {
            while off < self.arena.len() {
                let h = self.arena[off];
                let len = (h & LEN_MASK) as usize;
                let learnt = h & LEARNT_BIT != 0;
                let cref = ClauseRef(off as u32);
                off += Self::words(len, learnt);
                if h & DELETED_BIT == 0 {
                    return Some(cref);
                }
            }
            None
        })
    }

    /// Arena size in words (live clauses plus tombstones).
    pub(crate) fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Arena size in bytes.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<u32>()
    }

    /// Words currently held by tombstoned clauses.
    pub(crate) fn wasted_words(&self) -> usize {
        self.wasted
    }

    /// Words held by live clauses: the arena minus its tombstones.
    pub(crate) fn live_words(&self) -> usize {
        self.arena.len() - self.wasted
    }

    /// Number of live learnt clauses (O(1): maintained incrementally).
    pub(crate) fn live_learnts(&self) -> usize {
        self.live_learnt
    }

    /// Drops tombstoned refs from the learnt index (not from the arena).
    pub(crate) fn sweep_learnt_index(&mut self) {
        let arena = &self.arena;
        self.learnts
            .retain(|&c| arena[c.0 as usize] & DELETED_BIT == 0);
    }

    /// Multiplies every learnt clause's activity by `factor` in place —
    /// the rescale step of activity decay.
    pub(crate) fn rescale_learnt_activity(&mut self, factor: f64) {
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            let a = self.activity(cref);
            self.set_activity(cref, a * factor);
        }
    }

    /// Copies every live clause into a fresh buffer (allocation order
    /// preserved, so relative `ClauseRef` order is stable), rewrites the
    /// learnt index, and returns the [`Compaction`] map the solver uses to
    /// rewire watch lists and reason slots. The caller must have swept the
    /// learnt index first.
    pub(crate) fn compact(&mut self) -> Compaction {
        let mut old = std::mem::take(&mut self.arena);
        let mut fresh = Vec::with_capacity(old.len().saturating_sub(self.wasted));
        let mut reclaimed = 0u64;
        let mut off = 0usize;
        while off < old.len() {
            let h = old[off];
            let words = Self::words((h & LEN_MASK) as usize, h & LEARNT_BIT != 0);
            if h & DELETED_BIT == 0 {
                let new_off = fresh.len() as u32;
                fresh.extend_from_slice(&old[off..off + words]);
                // The old storage is dead now; its first metadata word
                // becomes the forwarding pointer `remap` reads.
                old[off + 1] = new_off;
            } else {
                reclaimed += 1;
            }
            off += words;
        }
        self.arena = fresh;
        self.wasted = 0;
        let compaction = Compaction { old, reclaimed };
        for cref in &mut self.learnts {
            *cref = compaction
                .remap(*cref)
                .expect("learnt index swept before compaction");
        }
        compaction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presat_logic::Var;

    fn lit(v: usize) -> Lit {
        Lit::pos(Var::new(v))
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1)], false, 0).unwrap();
        let m = db.meta(c);
        assert_eq!(m.len, 2);
        assert!(!m.learnt && !m.deleted);
        assert_eq!(db.lit(c, 0), lit(0));
        assert_eq!(db.lit(c, 1), lit(1));
        assert_eq!(db.arena_words(), 3); // header + 2 lits
    }

    #[test]
    fn learnt_layout_carries_lbd_and_f64_activity() {
        let mut db = ClauseDb::new();
        let c = db.alloc(&[lit(0), lit(1), lit(2)], true, 7).unwrap();
        assert_eq!(db.lbd(c), 7);
        assert_eq!(db.activity(c), 0.0);
        db.set_activity(c, 1.0 + f64::EPSILON);
        assert_eq!(db.activity(c), 1.0 + f64::EPSILON, "full f64 round-trip");
        assert_eq!(db.learnts, vec![c]);
        assert_eq!(db.live_learnts(), 1);
        assert_eq!(db.arena_words(), 1 + 3 + 3);
    }

    #[test]
    fn alloc_past_capacity_is_a_typed_error_not_a_panic() {
        let mut db = ClauseDb::new();
        db.capacity = 6; // room for one 3-word binary clause, not two clauses
        db.alloc(&[lit(0), lit(1)], false, 0).unwrap();
        assert_eq!(db.alloc(&[lit(2), lit(3), lit(4)], false, 0), Err(ArenaFull));
        // The arena itself is untouched by the failed allocation.
        assert_eq!(db.arena_words(), 3);
    }

    #[test]
    fn delete_tombstones_tracks_waste_and_sweep() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1)], true, 1).unwrap();
        let b = db.alloc(&[lit(1), lit(2)], true, 1).unwrap();
        db.delete(a);
        db.delete(a); // idempotent
        assert!(db.is_deleted(a));
        assert_eq!(db.wasted_words(), 6); // one learnt binary clause
        assert_eq!(db.live_learnts(), 1);
        db.sweep_learnt_index();
        assert_eq!(db.learnts, vec![b]);
    }

    #[test]
    fn delete_containing_long_skips_short_and_dead_clauses() {
        let mut db = ClauseDb::new();
        let dead = lit(9);
        let bin = db.alloc(&[dead, lit(0)], false, 0).unwrap();
        let long = db.alloc(&[dead, lit(0), lit(1)], false, 0).unwrap();
        let other = db.alloc(&[lit(2), lit(3), lit(4)], false, 0).unwrap();
        assert_eq!(db.delete_containing_long(dead), 1);
        assert!(!db.is_deleted(bin), "binary clauses stay for the fast path");
        assert!(db.is_deleted(long));
        assert!(!db.is_deleted(other));
        assert_eq!(db.delete_containing_long(dead), 0, "already tombstoned");
    }

    #[test]
    fn compaction_moves_live_clauses_and_maps_refs() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1), lit(2)], false, 0).unwrap();
        let b = db.alloc(&[lit(3), lit(4)], true, 2).unwrap();
        let c = db.alloc(&[lit(5), lit(6), lit(7)], false, 0).unwrap();
        db.set_activity(b, 42.5);
        db.delete(a);
        db.sweep_learnt_index();
        let before = db.arena_words();
        let map = db.compact();
        assert_eq!(map.reclaimed, 1);
        assert_eq!(db.arena_words(), before - 4); // a: header + 3 lits
        assert_eq!(db.wasted_words(), 0);
        assert_eq!(map.remap(a), None);
        let b2 = map.remap(b).unwrap();
        let c2 = map.remap(c).unwrap();
        assert_eq!(b2, ClauseRef(0), "live clauses slide to the front");
        assert_eq!(db.lit(b2, 0), lit(3));
        assert_eq!(db.lit(b2, 1), lit(4));
        assert_eq!(db.activity(b2), 42.5, "metadata survives the move");
        assert_eq!(db.lbd(b2), 2);
        assert_eq!(db.lit(c2, 2), lit(7));
        assert_eq!(db.learnts, vec![b2], "learnt index rewired");
    }

    #[test]
    fn compaction_of_all_live_arena_is_identity() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&[lit(0), lit(1)], false, 0).unwrap();
        let b = db.alloc(&[lit(2), lit(3)], true, 1).unwrap();
        let map = db.compact();
        assert_eq!(map.reclaimed, 0);
        assert_eq!(map.remap(a), Some(a));
        assert_eq!(map.remap(b), Some(b));
    }
}
