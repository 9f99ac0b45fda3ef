//! Profile data produced by the dynamic dependence profiler.
//!
//! [`ProfileData`] is the interchange format between the profiler and every
//! pattern detector. It corresponds to the output files the paper's LLVM
//! instrumentation dumps after a profiled run: data dependences mapped onto
//! instruction pairs, loop-carried dependence classifications, cross-loop
//! iteration pairs for the multi-loop-pipeline analysis, per-loop per-address
//! read/write line facts for the reduction analysis, loop trip statistics,
//! and dynamic instruction counts.

use std::collections::hash_map::Entry;

use parpat_ir::{InstId, InstKind, IrProgram, LoopId};

use crate::inthash::{IntMap, IntSet};

/// Kind of a data dependence between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write (true/flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

/// Where a dependence sits relative to the loop structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepSite {
    /// Source and sink execute in the same iteration of every common loop
    /// (or outside loops entirely) — an ordinary sequential dependence.
    Intra,
    /// The dependence crosses iterations of the given loop: the sink runs
    /// `distance` iterations after the source within one execution of it.
    Carried {
        /// The carrying loop.
        l: LoopId,
        /// Iteration distance (sink iter − source iter); at least 1.
        distance: u64,
    },
    /// The dependence connects two *different sibling loops*: the source ran
    /// in loop `x`, the sink runs in loop `y`. These feed the multi-loop
    /// pipeline analysis.
    CrossLoop {
        /// Loop the source executed in.
        x: LoopId,
        /// Loop the sink executed in.
        y: LoopId,
    },
    /// Source and sink ran in different dynamic instances of the same loop
    /// (e.g. an inner loop re-entered by an outer structure the stacks do
    /// not share) — not usable by any current detector but kept for
    /// completeness.
    CrossInstance {
        /// The loop whose instances differ.
        l: LoopId,
    },
    /// The source executed before the sink's innermost loop started (a
    /// loop-independent input to the loop), or the sink reads after the
    /// source's loop finished.
    OutsideLoop,
}

impl DepSite {
    /// True when the dependence is carried by the given loop.
    pub fn carried_by(&self, l: LoopId) -> bool {
        matches!(self, DepSite::Carried { l: cl, .. } if *cl == l)
    }
}

/// A dynamic data dependence between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dep {
    /// The earlier access (the dependence source).
    pub src: InstId,
    /// The later access (the dependence sink).
    pub sink: InstId,
    /// RAW / WAR / WAW.
    pub kind: DepKind,
    /// Loop-structural classification.
    pub site: DepSite,
}

/// A set of source lines reduced to what Algorithm 3 asks of it: whether it
/// is empty, exactly `{L}` (and which `L`), or larger.
///
/// The value answers Algorithm 3's predicates exactly (`set == {L}` holds
/// exactly when the value is `One(L)`) and follows union exactly: the value
/// of `a ∪ b` is `a.join(b)`. A set's second and later distinct lines are
/// not kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Lines {
    /// No line.
    #[default]
    None,
    /// Exactly one line.
    One(u32),
    /// Two or more distinct lines.
    Many,
}

impl Lines {
    /// The value of the union of two line sets.
    pub fn join(self, other: Lines) -> Lines {
        match (self, other) {
            (Lines::None, x) | (x, Lines::None) => x,
            (Lines::One(a), Lines::One(b)) if a == b => self,
            _ => Lines::Many,
        }
    }

    /// Add one line to the set. O(1); adding a line already there changes
    /// nothing.
    pub fn add(&mut self, line: u32) {
        *self = self.join(Lines::One(line));
    }

    /// The set's only line, when it holds exactly one.
    pub fn single(self) -> Option<u32> {
        match self {
            Lines::One(l) => Some(l),
            _ => None,
        }
    }
}

/// Aggregated read/write line information for one address within one loop —
/// the input to the paper's Algorithm 3 (reduction detection). A `Copy`
/// value that owns no heap memory: the variable's name is resolved against
/// the program only when a report or a diagnostic needs it
/// ([`AccessLines::var_name`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessLines {
    /// Source lines that wrote the address inside the loop.
    pub write_lines: Lines,
    /// Source lines that read the address inside the loop.
    pub read_lines: Lines,
    /// The first access to the address inside the loop, read or write,
    /// whose instruction names a variable (see [`AccessLines::var_name`]);
    /// `None` while no access has.
    pub name_inst: Option<InstId>,
    /// True when line 0 was among the lines added to either set. [`Lines`]
    /// cannot say so once it is `Many`; the trace sanitizer reads this.
    pub has_line_zero: bool,
    /// True when a read-after-write on this address crossed iterations of
    /// the loop (an inter-iteration dependence).
    pub inter_iteration: bool,
    /// True when the address is written in more than one iteration of the
    /// loop (a loop-carried WAW). Distinguishes accumulators (`sum` is
    /// rewritten every iteration) from single-assignment stencil cells
    /// (`a[i]` written once, read once by iteration `i+1`).
    pub rewritten: bool,
}

impl AccessLines {
    /// Name of the variable or array the address belongs to, for
    /// reporting: the name [`AccessLines::name_inst`] touches in `prog`,
    /// empty when there is none.
    pub fn var_name(&self, prog: &IrProgram) -> String {
        self.name_inst
            .and_then(|i| prog.insts.get(i as usize))
            .map_or_else(String::new, |inst| var_name_of(&inst.kind))
    }

    /// The union of two entries for the same (loop, address), as
    /// [`ProfileData::merge`] takes it: line sets join, flags OR, and
    /// `self`'s name wins when it has one.
    pub fn merge(&mut self, other: &AccessLines) {
        self.write_lines = self.write_lines.join(other.write_lines);
        self.read_lines = self.read_lines.join(other.read_lines);
        self.name_inst = self.name_inst.or(other.name_inst);
        self.has_line_zero |= other.has_line_zero;
        self.inter_iteration |= other.inter_iteration;
        self.rewritten |= other.rewritten;
    }
}

/// The variable an access instruction touches, for reporting. Parameter
/// stores are attributed to the call instruction.
fn var_name_of(kind: &InstKind) -> String {
    match (kind.touched_name(), kind) {
        (Some(n), _) => n.to_owned(),
        (None, InstKind::Call(callee)) => format!("<args of {callee}>"),
        (None, _) => String::new(),
    }
}

/// True when [`var_name_of`] gives a non-empty name for the instruction,
/// without building it.
pub(crate) fn names_variable(kind: &InstKind) -> bool {
    match kind.touched_name() {
        Some(n) => !n.is_empty(),
        None => matches!(kind, InstKind::Call(_)),
    }
}

/// Trip statistics for one loop, accumulated over all dynamic instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Number of times the loop was entered.
    pub executions: u64,
    /// Total iterations across all executions.
    pub total_iterations: u64,
    /// Largest iteration count of any single execution.
    pub max_iterations: u64,
    /// Global sequence number of the loop's first entry (execution order of
    /// loops; `u64::MAX` when never entered). Used to order sibling loops
    /// in time, e.g. by the fusion validity check.
    pub first_entry: u64,
}

impl Default for LoopStats {
    fn default() -> Self {
        LoopStats { executions: 0, total_iterations: 0, max_iterations: 0, first_entry: u64::MAX }
    }
}

impl LoopStats {
    /// Average iterations per execution (0 when never executed).
    pub fn avg_iterations(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.executions as f64
        }
    }
}

/// Everything a profiled run produced.
///
/// The sets and maps hash with the crate's integer hasher
/// ([`IntSet`], [`IntMap`]); no reader depends on their iteration order.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// The distinct dynamic dependences observed.
    pub deps: IntSet<Dep>,
    /// Per loop that touched memory: every address the loop accessed,
    /// once, with its line facts (Algorithm 3 input). A loop's addresses
    /// are in the order the loop first touched them; after
    /// [`ProfileData::merge`], the addresses new to a run follow the
    /// earlier runs' ones, in the order that run first touched them.
    pub loop_access_lines: IntMap<LoopId, Vec<(u64, AccessLines)>>,
    /// Per ordered sibling-loop pair `(x, y)`: for each address written in
    /// `x` and later read in `y`, the pair `(i_x, i_y)` of the *last* write
    /// iteration in `x` and the *first* read iteration in `y` (the paper's
    /// filtered iteration pairs feeding linear regression).
    pub cross_loop_pairs: IntMap<(LoopId, LoopId), IntMap<u64, (u64, u64)>>,
    /// Trip statistics per loop.
    pub loop_stats: IntMap<LoopId, LoopStats>,
    /// Dependences *lifted to statement level*: each endpoint of a dynamic
    /// dependence is replaced by the statement of the innermost region whose
    /// dynamic context the two endpoints stop sharing — a call instruction
    /// when the access happened inside a callee, a loop-header instruction
    /// when it happened inside a nested loop, or the access instruction
    /// itself. Both endpoints of every entry are therefore statements of the
    /// *same* region, which is exactly what the CU-graph builder needs
    /// (`(src, sink, kind)` tuples; self-edges are kept and denote
    /// dependences between dynamic instances of the same statement).
    pub region_deps: IntSet<(InstId, InstId, DepKind)>,
    /// Dynamic execution count per instruction (indexed by `InstId`).
    pub inst_counts: Vec<u64>,
    /// Total executed instructions.
    pub total_insts: u64,
    /// Number of profiled runs merged into this data (≥ 1 once populated).
    pub runs: u32,
}

impl ProfileData {
    /// Create empty profile data for a program with `n_insts` instructions.
    pub fn new(n_insts: usize) -> Self {
        ProfileData { inst_counts: vec![0; n_insts], ..Default::default() }
    }

    /// True when the given loop carries at least one RAW dependence — the
    /// negation of the do-all property used throughout the paper.
    pub fn has_carried_raw(&self, l: LoopId) -> bool {
        self.deps.iter().any(|d| d.kind == DepKind::Raw && d.site.carried_by(l))
    }

    /// All RAW dependences carried by the given loop.
    pub fn carried_raw(&self, l: LoopId) -> Vec<Dep> {
        let mut v: Vec<Dep> = self
            .deps
            .iter()
            .filter(|d| d.kind == DepKind::Raw && d.site.carried_by(l))
            .copied()
            .collect();
        v.sort_by_key(|d| (d.src, d.sink));
        v
    }

    /// The sibling loop pairs with at least one cross-loop RAW dependence,
    /// in deterministic order.
    pub fn dependent_loop_pairs(&self) -> Vec<(LoopId, LoopId)> {
        let mut pairs: Vec<(LoopId, LoopId)> = self.cross_loop_pairs.keys().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// The filtered iteration pairs for a sibling loop pair, sorted by `i_x`.
    pub fn iteration_pairs(&self, x: LoopId, y: LoopId) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .cross_loop_pairs
            .get(&(x, y))
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Merge another run's data into this one (the paper's multi-input
    /// profiling: run with several representative inputs, merge outputs).
    /// Dependences and line sets are unioned (see [`AccessLines::merge`]);
    /// an address new to a loop is appended in `other`'s order; counts are
    /// summed; trip maxima are maxed.
    pub fn merge(&mut self, other: &ProfileData) {
        self.deps.extend(other.deps.iter().copied());
        self.region_deps.extend(other.region_deps.iter().copied());
        for (l, theirs) in &other.loop_access_lines {
            let ours = self.loop_access_lines.entry(*l).or_default();
            let mut at: IntMap<u64, usize> =
                ours.iter().enumerate().map(|(i, (addr, _))| (*addr, i)).collect();
            for (addr, lines) in theirs {
                match at.entry(*addr) {
                    Entry::Occupied(i) => ours[*i.get()].1.merge(lines),
                    Entry::Vacant(slot) => {
                        slot.insert(ours.len());
                        ours.push((*addr, *lines));
                    }
                }
            }
        }
        for (k, pairs) in &other.cross_loop_pairs {
            let dst = self.cross_loop_pairs.entry(*k).or_default();
            for (addr, p) in pairs {
                dst.entry(*addr).or_insert(*p);
            }
        }
        for (l, s) in &other.loop_stats {
            let dst = self.loop_stats.entry(*l).or_default();
            dst.executions += s.executions;
            dst.total_iterations += s.total_iterations;
            dst.max_iterations = dst.max_iterations.max(s.max_iterations);
            dst.first_entry = dst.first_entry.min(s.first_entry);
        }
        if self.inst_counts.len() < other.inst_counts.len() {
            self.inst_counts.resize(other.inst_counts.len(), 0);
        }
        for (i, c) in other.inst_counts.iter().enumerate() {
            self.inst_counts[i] += c;
        }
        self.total_insts += other.total_insts;
        self.runs += other.runs;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn dep(src: u32, sink: u32, kind: DepKind, site: DepSite) -> Dep {
        Dep { src, sink, kind, site }
    }

    #[test]
    fn carried_by_matches_only_that_loop() {
        let s = DepSite::Carried { l: 3, distance: 1 };
        assert!(s.carried_by(3));
        assert!(!s.carried_by(4));
        assert!(!DepSite::Intra.carried_by(3));
    }

    #[test]
    fn has_carried_raw_ignores_war() {
        let mut d = ProfileData::new(4);
        d.deps.insert(dep(0, 1, DepKind::War, DepSite::Carried { l: 0, distance: 1 }));
        assert!(!d.has_carried_raw(0));
        d.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Carried { l: 0, distance: 1 }));
        assert!(d.has_carried_raw(0));
    }

    #[test]
    fn merge_unions_deps_and_sums_counts() {
        let mut a = ProfileData::new(2);
        a.inst_counts = vec![1, 2];
        a.total_insts = 3;
        a.runs = 1;
        a.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Intra));

        let mut b = ProfileData::new(2);
        b.inst_counts = vec![10, 20];
        b.total_insts = 30;
        b.runs = 1;
        b.deps.insert(dep(0, 1, DepKind::Raw, DepSite::Intra));
        b.deps.insert(dep(1, 0, DepKind::War, DepSite::OutsideLoop));

        a.merge(&b);
        assert_eq!(a.deps.len(), 2);
        assert_eq!(a.inst_counts, vec![11, 22]);
        assert_eq!(a.total_insts, 33);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn merge_keeps_first_iteration_pair_per_address() {
        let mut a = ProfileData::new(0);
        a.cross_loop_pairs.entry((0, 1)).or_default().insert(100, (5, 6));
        let mut b = ProfileData::new(0);
        b.cross_loop_pairs.entry((0, 1)).or_default().insert(100, (7, 8));
        b.cross_loop_pairs.entry((0, 1)).or_default().insert(101, (1, 2));
        a.merge(&b);
        let pairs = a.iteration_pairs(0, 1);
        assert_eq!(pairs, vec![(1, 2), (5, 6)]);
    }

    #[test]
    fn merge_joins_shared_addresses_and_appends_new_ones_in_order() {
        let at = |line: u32| AccessLines { read_lines: Lines::One(line), ..Default::default() };
        let mut a = ProfileData::new(0);
        a.loop_access_lines.insert(0, vec![(30, at(1)), (10, at(2))]);
        a.loop_access_lines.insert(1, vec![(5, at(7))]);
        let mut b = ProfileData::new(0);
        b.loop_access_lines.insert(0, vec![(40, at(3)), (10, at(4)), (20, at(5)), (30, at(1))]);
        b.loop_access_lines.insert(2, vec![(6, at(8))]);
        a.merge(&b);
        assert_eq!(
            a.loop_access_lines[&0],
            vec![
                (30, at(1)),
                (10, AccessLines { read_lines: Lines::Many, ..at(2) }),
                (40, at(3)),
                (20, at(5))
            ]
        );
        assert_eq!(a.loop_access_lines[&1], vec![(5, at(7))]);
        assert_eq!(a.loop_access_lines[&2], vec![(6, at(8))]);
        assert_eq!(a.loop_access_lines.len(), 3);
    }

    #[test]
    fn merge_maxes_trip_maxima() {
        let mut a = ProfileData::new(0);
        a.loop_stats.insert(
            0,
            LoopStats { executions: 1, total_iterations: 10, max_iterations: 10, first_entry: 5 },
        );
        let mut b = ProfileData::new(0);
        b.loop_stats.insert(
            0,
            LoopStats { executions: 2, total_iterations: 6, max_iterations: 4, first_entry: 2 },
        );
        a.merge(&b);
        let s = a.loop_stats[&0];
        assert_eq!(s.executions, 3);
        assert_eq!(s.total_iterations, 16);
        assert_eq!(s.max_iterations, 10);
        assert_eq!(s.first_entry, 2);
    }

    #[test]
    fn lines_join_is_the_value_of_the_union() {
        use Lines::{Many, One};
        let empty = Lines::None;
        assert_eq!(empty.join(empty), empty);
        assert_eq!(empty.join(One(3)), One(3));
        assert_eq!(One(3).join(empty), One(3));
        assert_eq!(One(3).join(One(3)), One(3));
        assert_eq!(One(3).join(One(4)), Many);
        assert_eq!(Many.join(empty), Many);
        assert_eq!(One(3).join(Many), Many);
        let mut l = empty;
        for line in [7, 7, 7] {
            l.add(line);
        }
        assert_eq!(l.single(), Some(7));
        l.add(8);
        assert_eq!((l, l.single()), (Many, None));
    }

    #[test]
    fn access_lines_merge_joins_and_keeps_the_first_name() {
        let mut a = AccessLines { write_lines: Lines::One(5), ..Default::default() };
        let b = AccessLines {
            write_lines: Lines::One(5),
            read_lines: Lines::One(6),
            name_inst: Some(9),
            has_line_zero: true,
            inter_iteration: true,
            rewritten: true,
        };
        a.merge(&b);
        assert_eq!(a, b);
        a.merge(&AccessLines { write_lines: Lines::One(4), name_inst: Some(2), ..b });
        assert_eq!((a.write_lines, a.name_inst), (Lines::Many, Some(9)));
        // Small and heap-free: 80 bytes and up to three allocations before.
        assert_eq!(std::mem::size_of::<AccessLines>(), 28);
    }

    #[test]
    fn avg_iterations_handles_zero_executions() {
        assert_eq!(LoopStats::default().avg_iterations(), 0.0);
        let s =
            LoopStats { executions: 4, total_iterations: 10, max_iterations: 3, first_entry: 0 };
        assert_eq!(s.avg_iterations(), 2.5);
    }
}
