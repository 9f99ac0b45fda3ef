//! The profile's shape before access lines became a `Copy` lattice value:
//! each (loop, address) entry held its full read and write line sets and
//! the variable's name as a `String`. The reference profiler writes into
//! this shape; `tests/differential.rs` compares it with the new
//! [`parpat_profile::ProfileData`] through one projection. `merge` is the
//! old `ProfileData::merge`, kept for the merge property test.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use parpat_ir::{InstId, LoopId};
use parpat_profile::{Dep, DepKind, LoopStats};

/// Aggregated read/write line information for one address within one loop —
/// the input to the paper's Algorithm 3 (reduction detection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessLines {
    /// Distinct source lines that wrote the address inside the loop.
    pub write_lines: BTreeSet<u32>,
    /// Distinct source lines that read the address inside the loop.
    pub read_lines: BTreeSet<u32>,
    /// Name of the variable/array the address belongs to (from the first
    /// access, read or write, whose instruction names one).
    pub var_name: String,
    /// True when a read-after-write on this address crossed iterations of
    /// the loop (an inter-iteration dependence).
    pub inter_iteration: bool,
    /// True when the address is written in more than one iteration of the
    /// loop (a loop-carried WAW).
    pub rewritten: bool,
}

/// Everything a profiled run produced, in the old shape.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// The distinct dynamic dependences observed.
    pub deps: HashSet<Dep>,
    /// Per loop: addresses accessed within it and their line sets.
    pub loop_access_lines: HashMap<LoopId, BTreeMap<u64, AccessLines>>,
    /// Per ordered sibling-loop pair: first-read iteration pairs by address.
    pub cross_loop_pairs: HashMap<(LoopId, LoopId), HashMap<u64, (u64, u64)>>,
    /// Trip statistics per loop.
    pub loop_stats: HashMap<LoopId, LoopStats>,
    /// Dependences lifted to statement level.
    pub region_deps: HashSet<(InstId, InstId, DepKind)>,
    /// Dynamic execution count per instruction (indexed by `InstId`).
    pub inst_counts: Vec<u64>,
    /// Total executed instructions.
    pub total_insts: u64,
    /// Number of profiled runs merged into this data.
    pub runs: u32,
}

impl ProfileData {
    /// Create empty profile data for a program with `n_insts` instructions.
    pub fn new(n_insts: usize) -> Self {
        ProfileData { inst_counts: vec![0; n_insts], ..Default::default() }
    }

    /// Merge another run's data into this one. Dependences and line sets
    /// are unioned; counts are summed; trip maxima are maxed.
    pub fn merge(&mut self, other: &ProfileData) {
        self.deps.extend(other.deps.iter().copied());
        self.region_deps.extend(other.region_deps.iter().copied());
        for (l, by_addr) in &other.loop_access_lines {
            let dst = self.loop_access_lines.entry(*l).or_default();
            for (addr, lines) in by_addr {
                let e = dst.entry(*addr).or_default();
                e.write_lines.extend(&lines.write_lines);
                e.read_lines.extend(&lines.read_lines);
                if e.var_name.is_empty() {
                    e.var_name = lines.var_name.clone();
                }
                e.inter_iteration |= lines.inter_iteration;
                e.rewritten |= lines.rewritten;
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
