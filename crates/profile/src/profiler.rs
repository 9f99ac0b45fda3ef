//! The dynamic dependence profiler (an IR [`Observer`]).
//!
//! Mirrors the paper's LLVM instrumentation pass + post-analysis: while the
//! program executes, every load and store is checked against shadow records
//! of the last write and last read of its address, producing RAW/WAR/WAW
//! dependences classified against the dynamic loop structure:
//!
//! - *intra-iteration* dependences (ordinary sequential order),
//! - *loop-carried* dependences with their iteration distance,
//! - *cross-loop* dependences between sibling loops, from which the
//!   `(i_x, i_y)` iteration pairs of the multi-loop-pipeline analysis are
//!   filtered (last write iteration in `x`, first read iteration in `y`,
//!   per address),
//! - per-loop, per-address read/write source-line facts (Algorithm 3
//!   input): whether each line set is empty, one line or more
//!   ([`Lines`](crate::Lines)), whether line 0 was among them, and the
//!   first access instruction that names a variable.
//!
//! The profiler keys loop context by `(loop id, dynamic instance, iteration)`
//! so that re-entered inner loops and repeated calls never alias.
//!
//! Every access is an event, but almost every fact it reports is one the
//! profile already holds, so the tables are shaped to notice that cheaply:
//! a dependence equal to the last one recorded for its sink instruction and
//! kind skips the set insert, and a per-loop entry is a `Copy` value whose
//! line update is O(1) and allocates nothing. Per-loop entries live in one
//! vector per loop behind a flat `(loop, address)` index, cross-loop pairs
//! in a flat `(x, y, address)` map, trip statistics in a vector by loop;
//! [`DependenceProfiler::into_data`] nests them into [`ProfileData`]'s
//! shape once. Every table keyed by address hashes with the crate's integer
//! hasher instead of SipHash.

use std::rc::Rc;

use parpat_ir::event::{AccessKind, MemAccess, Observer};
use parpat_ir::interp::{run_function, ExecLimits};
use parpat_ir::{FuncId, InstId, IrProgram, LoopId, RuntimeError};

use crate::data::{names_variable, AccessLines, Dep, DepKind, DepSite, LoopStats, ProfileData};
use crate::inthash::IntMap;

/// One entry of the dynamic loop stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopFrame {
    l: LoopId,
    instance: u64,
    iter: u64,
}

/// One entry of the dynamic context chain: a call instruction (with a unique
/// activation key) or a loop-header instruction (with a unique instance
/// key). The chain is what lifts raw access-level dependences to
/// statement-level edges for CU graphs. It holds no iteration numbers, so a
/// new iteration leaves it unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainFrame {
    inst: InstId,
    key: u64,
}

/// A recorded access: which instruction and under which loop/context it
/// happened. Context snapshots are shared `Rc` slices: every access between
/// two loop/call events sees the identical context, so the profiler
/// materializes it once per context change instead of once per access.
#[derive(Debug, Clone)]
struct AccessRec {
    inst: InstId,
    stack: Rc<[LoopFrame]>,
    chain: Rc<[ChainFrame]>,
}

#[derive(Debug, Default)]
struct Shadow {
    last_write: Option<AccessRec>,
    last_read: Option<AccessRec>,
}

/// The last dependence and lifted region pair inserted for one
/// `(sink instruction, kind)`; an equal observation is already in its set.
#[derive(Debug, Default, Clone, Copy)]
struct LastInsert {
    dep: Option<Dep>,
    region: Option<(InstId, InstId)>,
}

/// The profiling observer. Drive it through [`profile`] /
/// [`profile_function`], or attach it to your own interpreter run and call
/// [`DependenceProfiler::into_data`] afterwards.
pub struct DependenceProfiler<'p> {
    prog: &'p IrProgram,
    /// Dependences, instruction counts and the run count; the per-loop
    /// tables below are moved in by [`DependenceProfiler::into_data`].
    data: ProfileData,
    shadow: IntMap<u64, Shadow>,
    loop_stack: Vec<LoopFrame>,
    /// The distinct loops on `loop_stack`, in order of first push.
    live_loops: Vec<LoopId>,
    /// How many frames of each loop are on `loop_stack` (indexed by loop).
    on_stack: Vec<u32>,
    /// Interleaved call/loop context chain (see [`ChainFrame`]).
    chain: Vec<ChainFrame>,
    /// Whether each active function pushed a chain frame (the entry call
    /// does not).
    chain_pushed: Vec<bool>,
    next_instance: u64,
    /// Memoized `Rc` copies of the current stacks, rebuilt only after a
    /// loop/call event changes them.
    cached_stack: Option<Rc<[LoopFrame]>>,
    cached_chain: Option<Rc<[ChainFrame]>>,
    /// Per-loop access lines (indexed by loop), each loop's entries in
    /// order of first access.
    lines: Vec<Vec<(u64, AccessLines)>>,
    /// `(loop, address)` → index into that loop's entries.
    line_index: IntMap<(LoopId, u64), usize>,
    /// `(loop, entry index)` for each live loop, for the access being
    /// recorded.
    touched: Vec<(LoopId, usize)>,
    /// Cross-loop iteration pairs keyed by `(x, y, address)`.
    cross_pairs: IntMap<(LoopId, LoopId, u64), (u64, u64)>,
    /// Trip statistics per loop (indexed by loop; `None` until entered).
    loop_stats: Vec<Option<LoopStats>>,
    /// Indexed by `sink * 3 + kind`.
    last_insert: Vec<LastInsert>,
}

impl<'p> DependenceProfiler<'p> {
    /// Create a profiler for `prog`.
    pub fn new(prog: &'p IrProgram) -> Self {
        let mut data = ProfileData::new(prog.inst_count());
        data.runs = 1;
        DependenceProfiler {
            prog,
            data,
            shadow: IntMap::default(),
            loop_stack: Vec::new(),
            live_loops: Vec::new(),
            on_stack: vec![0; prog.loop_count()],
            chain: Vec::new(),
            chain_pushed: Vec::new(),
            next_instance: 0,
            cached_stack: None,
            cached_chain: None,
            lines: vec![Vec::new(); prog.loop_count()],
            line_index: IntMap::default(),
            touched: Vec::new(),
            cross_pairs: IntMap::default(),
            loop_stats: vec![None; prog.loop_count()],
            last_insert: vec![LastInsert::default(); prog.inst_count() * 3],
        }
    }

    /// Consume the profiler and return the collected data.
    pub fn into_data(self) -> ProfileData {
        let DependenceProfiler {
            mut data, shadow, line_index, lines, cross_pairs, loop_stats, ..
        } = self;
        // The per-address tables go before the output is built, so the two
        // are never live at once.
        drop(shadow);
        drop(line_index);
        // Bulk-built in place: one sort per loop (addresses mostly arrive
        // in order) instead of a tree insert per entry.
        for (l, entries) in (0..).zip(lines) {
            if !entries.is_empty() {
                data.loop_access_lines.insert(l, entries.into_iter().collect());
            }
        }
        for ((x, y, addr), pair) in cross_pairs {
            data.cross_loop_pairs.entry((x, y)).or_default().insert(addr, pair);
        }
        for (l, stats) in (0..).zip(loop_stats) {
            if let Some(stats) = stats {
                data.loop_stats.insert(l, stats);
            }
        }
        data
    }

    fn snapshot(&mut self) -> Rc<[LoopFrame]> {
        if let Some(s) = &self.cached_stack {
            return Rc::clone(s);
        }
        let s: Rc<[LoopFrame]> = self.loop_stack.as_slice().into();
        self.cached_stack = Some(Rc::clone(&s));
        s
    }

    fn chain_snapshot(&mut self) -> Rc<[ChainFrame]> {
        if let Some(c) = &self.cached_chain {
            return Rc::clone(c);
        }
        let c: Rc<[ChainFrame]> = self.chain.as_slice().into();
        self.cached_chain = Some(Rc::clone(&c));
        c
    }

    /// Invalidate the memoized snapshots after a context change.
    fn invalidate_snapshots(&mut self) {
        self.cached_stack = None;
        self.cached_chain = None;
    }

    /// Lift a dependence between two dynamic accesses to statement level:
    /// walk the two context chains until they diverge; the diverging frames
    /// (or, where a chain has ended, the access instruction itself) are two
    /// statements of the same region.
    fn lift(
        a_chain: &[ChainFrame],
        a_inst: InstId,
        b_chain: &[ChainFrame],
        b_inst: InstId,
    ) -> (InstId, InstId) {
        let mut d = 0;
        loop {
            match (a_chain.get(d), b_chain.get(d)) {
                (Some(fa), Some(fb)) => {
                    if fa != fb {
                        return (fa.inst, fb.inst);
                    }
                    d += 1;
                }
                (Some(fa), None) => return (fa.inst, b_inst),
                (None, Some(fb)) => return (a_inst, fb.inst),
                (None, None) => return (a_inst, b_inst),
            }
        }
    }

    /// Classify a dependence from the loop contexts of its two endpoints.
    /// Returns the site and, for cross-loop dependences, the `(i_x, i_y)`
    /// iteration pair at the diverging depth.
    fn classify(w: &[LoopFrame], r: &[LoopFrame]) -> (DepSite, Option<(u64, u64)>) {
        let depth = w.len().max(r.len());
        for d in 0..depth {
            match (w.get(d), r.get(d)) {
                (Some(wf), Some(rf)) => {
                    if wf.l != rf.l {
                        return (DepSite::CrossLoop { x: wf.l, y: rf.l }, Some((wf.iter, rf.iter)));
                    }
                    if wf.instance != rf.instance {
                        return (DepSite::CrossInstance { l: wf.l }, None);
                    }
                    if wf.iter != rf.iter {
                        let distance = rf.iter.saturating_sub(wf.iter).max(1);
                        return (DepSite::Carried { l: wf.l, distance }, None);
                    }
                }
                _ => return (DepSite::OutsideLoop, None),
            }
        }
        (DepSite::Intra, None)
    }

    /// Add the access's line to the entry of every distinct live loop and
    /// remember each entry's index in `touched`.
    fn note_access_lines(&mut self, access: &MemAccess) {
        self.touched.clear();
        let prog = self.prog;
        for &l in &self.live_loops {
            let entries = &mut self.lines[l as usize];
            let fresh = entries.len();
            let idx = *self.line_index.entry((l, access.addr)).or_insert(fresh);
            if idx == fresh {
                entries.push((access.addr, AccessLines::default()));
            }
            let e = &mut entries[idx].1;
            match access.kind {
                AccessKind::Read => e.read_lines.add(access.line),
                AccessKind::Write => e.write_lines.add(access.line),
            }
            e.has_line_zero |= access.line == 0;
            if e.name_inst.is_none() && names_variable(&prog.insts[access.inst as usize].kind) {
                e.name_inst = Some(access.inst);
            }
            self.touched.push((l, idx));
        }
    }

    /// The current access's line entry for live loop `l`.
    fn touched_entry(&mut self, l: LoopId) -> Option<&mut AccessLines> {
        let &(_, idx) = self.touched.iter().find(|(t, _)| *t == l)?;
        Some(&mut self.lines[l as usize][idx].1)
    }

    /// Record the dependence from `src` to the current access and return
    /// its classification.
    fn observe(
        &mut self,
        src: &AccessRec,
        sink: InstId,
        stack: &[LoopFrame],
        chain: &[ChainFrame],
        kind: DepKind,
    ) -> (DepSite, Option<(u64, u64)>) {
        let (site, iter_pair) = Self::classify(&src.stack, stack);
        let last = &mut self.last_insert[sink as usize * 3 + kind as usize];
        let dep = Dep { src: src.inst, sink, kind, site };
        if last.dep != Some(dep) {
            self.data.deps.insert(dep);
            last.dep = Some(dep);
        }
        let region = Self::lift(&src.chain, src.inst, chain, sink);
        if last.region != Some(region) {
            self.data.region_deps.insert((region.0, region.1, kind));
            last.region = Some(region);
        }
        (site, iter_pair)
    }

    fn on_read(&mut self, access: MemAccess) {
        self.note_access_lines(&access);
        let stack = self.snapshot();
        let chain = self.chain_snapshot();
        let shadow = self.shadow.entry(access.addr).or_default();
        let last_write = shadow.last_write.clone();
        shadow.last_read = Some(AccessRec {
            inst: access.inst,
            stack: Rc::clone(&stack),
            chain: Rc::clone(&chain),
        });
        let Some(w) = last_write else { return };
        match self.observe(&w, access.inst, &stack, &chain, DepKind::Raw) {
            (DepSite::CrossLoop { x, y }, Some(pair)) => {
                // First read wins; the shadow write is by construction the
                // last write before it.
                self.cross_pairs.entry((x, y, access.addr)).or_insert(pair);
            }
            (DepSite::Carried { l, .. }, _) => {
                if let Some(e) = self.touched_entry(l) {
                    e.inter_iteration = true;
                }
            }
            _ => {}
        }
    }

    fn on_write(&mut self, access: MemAccess) {
        self.note_access_lines(&access);
        let stack = self.snapshot();
        let chain = self.chain_snapshot();
        let shadow = self.shadow.entry(access.addr).or_default();
        let last_read = shadow.last_read.take();
        let last_write = shadow.last_write.replace(AccessRec {
            inst: access.inst,
            stack: Rc::clone(&stack),
            chain: Rc::clone(&chain),
        });
        if let Some(r) = last_read {
            self.observe(&r, access.inst, &stack, &chain, DepKind::War);
        }
        if let Some(w) = last_write {
            if let (DepSite::Carried { l, .. }, _) =
                self.observe(&w, access.inst, &stack, &chain, DepKind::Waw)
            {
                if let Some(e) = self.touched_entry(l) {
                    e.rewritten = true;
                }
            }
        }
    }
}

impl Observer for DependenceProfiler<'_> {
    fn enter_function(
        &mut self,
        _func: parpat_ir::FuncId,
        call_inst: Option<InstId>,
        _is_recursive: bool,
    ) {
        if let Some(inst) = call_inst {
            self.cached_chain = None;
            let key = self.next_instance;
            self.next_instance += 1;
            self.chain.push(ChainFrame { inst, key });
        }
        self.chain_pushed.push(call_inst.is_some());
    }

    fn exit_function(&mut self, _func: parpat_ir::FuncId) {
        if self.chain_pushed.pop().expect("exit_function without enter") {
            self.chain.pop();
            self.cached_chain = None;
        }
    }

    fn enter_loop(&mut self, l: LoopId) {
        self.invalidate_snapshots();
        let instance = self.next_instance;
        self.next_instance += 1;
        let stats = self.loop_stats[l as usize].get_or_insert_with(LoopStats::default);
        stats.first_entry = stats.first_entry.min(instance);
        self.loop_stack.push(LoopFrame { l, instance, iter: 0 });
        let count = &mut self.on_stack[l as usize];
        if *count == 0 {
            self.live_loops.push(l);
        }
        *count += 1;
        self.chain.push(ChainFrame { inst: self.prog.loops[l as usize].head_inst, key: instance });
    }

    fn loop_iteration(&mut self, l: LoopId, iter: u64) {
        self.cached_stack = None;
        let top = self.loop_stack.last_mut().expect("loop_iteration outside loop");
        debug_assert_eq!(top.l, l);
        top.iter = iter;
    }

    fn exit_loop(&mut self, l: LoopId, iterations: u64) {
        self.invalidate_snapshots();
        let top = self.loop_stack.pop().expect("exit_loop without enter");
        debug_assert_eq!(top.l, l);
        let count = &mut self.on_stack[top.l as usize];
        *count -= 1;
        if *count == 0 {
            // The frame that first put a loop on the stack is the last of
            // its frames to leave, so its loop is the newest live one.
            let newest = self.live_loops.pop();
            debug_assert_eq!(newest, Some(top.l));
        }
        self.chain.pop();
        let stats = self.loop_stats[l as usize].get_or_insert_with(LoopStats::default);
        stats.executions += 1;
        stats.total_iterations += iterations;
        stats.max_iterations = stats.max_iterations.max(iterations);
    }

    fn instruction(&mut self, inst: InstId) {
        self.data.inst_counts[inst as usize] += 1;
        self.data.total_insts += 1;
    }

    fn memory(&mut self, access: MemAccess) {
        match access.kind {
            AccessKind::Read => self.on_read(access),
            AccessKind::Write => self.on_write(access),
        }
    }
}

/// Profile a program's `main` with default limits.
pub fn profile(prog: &IrProgram) -> Result<ProfileData, RuntimeError> {
    let entry = prog
        .entry
        .ok_or_else(|| RuntimeError::new(0, "program has no `main` function".to_owned()))?;
    profile_function(prog, entry, &[])
}

/// Profile a specific function with the given arguments.
pub fn profile_function(
    prog: &IrProgram,
    func: FuncId,
    args: &[f64],
) -> Result<ProfileData, RuntimeError> {
    let mut profiler = DependenceProfiler::new(prog);
    run_function(prog, func, args, &mut profiler, ExecLimits::default())?;
    Ok(profiler.into_data())
}

/// Profile a function once per argument vector and merge the runs — the
/// paper's "multiple representative inputs" mitigation for the input
/// sensitivity of dynamic analysis.
pub fn profile_merged(
    prog: &IrProgram,
    func: FuncId,
    inputs: &[Vec<f64>],
) -> Result<ProfileData, RuntimeError> {
    let mut merged: Option<ProfileData> = None;
    for args in inputs {
        let d = profile_function(prog, func, args)?;
        match &mut merged {
            None => merged = Some(d),
            Some(m) => m.merge(&d),
        }
    }
    Ok(merged.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::data::Lines;
    use parpat_ir::compile;

    fn profile_src(src: &str) -> (ProfileData, parpat_ir::IrProgram) {
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        (data, ir)
    }

    /// Find the single loop id of a single-loop program.
    fn only_loop(ir: &parpat_ir::IrProgram) -> LoopId {
        assert_eq!(ir.loop_count(), 1);
        0
    }

    #[test]
    fn doall_loop_has_no_carried_raw() {
        let (data, ir) = profile_src(
            "global a[16];
             fn main() { for i in 0..16 { a[i] = i * 2; } }",
        );
        assert!(!data.has_carried_raw(only_loop(&ir)));
    }

    #[test]
    fn reduction_loop_has_carried_raw() {
        let (data, ir) = profile_src(
            "global a[16];
             fn main() { let s = 0; for i in 0..16 { s += a[i]; } }",
        );
        assert!(data.has_carried_raw(only_loop(&ir)));
    }

    #[test]
    fn stencil_carried_distance_is_one() {
        let (data, _ir) = profile_src(
            "global a[16];
             fn main() { for i in 1..16 { a[i] = a[i - 1] + 1; } }",
        );
        let carried = data.carried_raw(0);
        assert!(!carried.is_empty());
        for d in carried {
            assert_eq!(d.site, DepSite::Carried { l: 0, distance: 1 });
        }
    }

    #[test]
    fn cross_loop_pairs_are_one_to_one_for_listing_1() {
        // The paper's Listing 1: second loop reads what the first wrote,
        // element-wise.
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..8 { a[i] = i * 2; }
                 for j in 0..8 { b[j] = a[j] + 1; }
             }",
        );
        let pairs = data.iteration_pairs(0, 1);
        assert_eq!(pairs, (0..8).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn cross_loop_pairs_record_last_write_first_read() {
        // Every element is written twice in loop 0 (iters i and i+8 write
        // a[i%8]); the pipeline pair must use the *last* write iteration.
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..16 { a[i % 8] = i; }
                 for j in 0..8 { b[j] = a[j]; }
             }",
        );
        let pairs = data.iteration_pairs(0, 1);
        assert_eq!(pairs, (8..16).map(|i| (i, i - 8)).collect::<Vec<_>>());
    }

    #[test]
    fn no_cross_loop_pairs_for_independent_loops() {
        let (data, _) = profile_src(
            "global a[8];
             global b[8];
             fn main() {
                 for i in 0..8 { a[i] = i; }
                 for j in 0..8 { b[j] = j; }
             }",
        );
        assert!(data.dependent_loop_pairs().is_empty());
    }

    #[test]
    fn nested_write_attributes_to_outer_sibling_iteration() {
        // Writes happen inside an inner loop; the sibling pair must use the
        // *outer* loop's iteration numbers.
        let (data, ir) = profile_src(
            "global m[4][4];
             global r[4];
             fn main() {
                 for i in 0..4 {
                     for j in 0..4 { m[i][j] = i + j; }
                 }
                 for k in 0..4 { r[k] = m[k][0]; }
             }",
        );
        assert_eq!(ir.loop_count(), 3);
        // Outer write loop is loop 1 in lowering order (inner declared
        // first? order: loops pushed on encounter: for i (body lowered first
        // → inner j gets id 0, outer i gets id 1, k gets id 2).
        let pairs = data.iteration_pairs(1, 2);
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn loop_stats_count_instances_and_iterations() {
        let (data, ir) = profile_src(
            "global a[12];
             fn main() {
                 for i in 0..3 {
                     for j in 0..4 { a[i * 4 + j] = 1; }
                 }
             }",
        );
        assert_eq!(ir.loop_count(), 2);
        // Inner loop (id 0): 3 executions of 4 iterations.
        let inner = data.loop_stats[&0];
        assert_eq!(inner.executions, 3);
        assert_eq!(inner.total_iterations, 12);
        assert_eq!(inner.max_iterations, 4);
        let outer = data.loop_stats[&1];
        assert_eq!(outer.executions, 1);
        assert_eq!(outer.total_iterations, 3);
    }

    #[test]
    fn reduction_access_lines_single_site() {
        let src = "global a[8];
fn main() {
    let s = 0;
    for i in 0..8 {
        s += a[i];
    }
    return s;
}";
        let (data, ir) = profile_src(src);
        // Find the address records for loop 0 with var `s`.
        let by_addr = &data.loop_access_lines[&0];
        let s_rec = by_addr.values().find(|a| a.var_name(&ir) == "s").expect("record for s");
        assert_eq!(s_rec.write_lines, Lines::One(5));
        assert_eq!(s_rec.read_lines, Lines::One(5));
        assert!(!s_rec.has_line_zero);
        assert!(s_rec.inter_iteration);
    }

    #[test]
    fn war_and_waw_are_recorded() {
        let (data, _) = profile_src(
            "global a[2];
             fn main() {
                 let x = a[0];
                 a[0] = 1;
                 a[0] = 2;
             }",
        );
        assert!(data.deps.iter().any(|d| d.kind == DepKind::War));
        assert!(data.deps.iter().any(|d| d.kind == DepKind::Waw));
    }

    #[test]
    fn different_instances_of_same_loop_do_not_carry() {
        // Loop in `f` entered twice; the dependence between the two calls
        // flows through `g[0]` but must not be classified as carried by the
        // inner loop.
        let (data, _ir) = profile_src(
            "global g[4];
             fn f(base) {
                 for i in 0..4 { g[i] = g[i] + base; }
                 return 0;
             }
             fn main() { f(1); f(2); }",
        );
        // Loop 0 is the loop in f. RAW deps on g across the two calls are
        // CrossInstance, not Carried.
        assert!(!data.has_carried_raw(0));
        assert!(data
            .deps
            .iter()
            .any(|d| matches!(d.site, DepSite::CrossInstance { l: 0 }) && d.kind == DepKind::Raw));
    }

    #[test]
    fn sibling_loops_inside_outer_loop_pair_within_parent_iteration() {
        // Two sibling loops inside an outer loop; cross-loop pairs must only
        // relate iterations within the same outer iteration (pairs exist),
        // and the dependence across outer iterations (via b) is carried by
        // the outer loop.
        let (data, ir) = profile_src(
            "global a[4];
             global b[4];
             fn main() {
                 for t in 0..3 {
                     for i in 0..4 { a[i] = b[i] + 1; }
                     for j in 0..4 { b[j] = a[j] * 2; }
                 }
             }",
        );
        assert_eq!(ir.loop_count(), 3);
        // Loops: i = 0, j = 1, t = 2 (inner loops lowered before outer).
        let pairs_ij = data.iteration_pairs(0, 1);
        assert_eq!(pairs_ij, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        // b written in loop j, read in loop i of the NEXT outer iteration:
        // that is carried by t (loop 2).
        assert!(data.has_carried_raw(2));
    }

    #[test]
    fn profile_merged_unions_runs() {
        let ir = compile(
            "global a[8];
             fn work(n) {
                 for i in 0..n { a[i] = i; }
                 return 0;
             }
             fn main() { work(8); }",
        )
        .unwrap();
        let f = ir.function_named("work").unwrap().id;
        let merged = profile_merged(&ir, f, &[vec![2.0], vec![8.0]]).unwrap();
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.loop_stats[&0].max_iterations, 8);
        assert_eq!(merged.loop_stats[&0].executions, 2);
    }

    #[test]
    fn region_deps_lift_callee_accesses_to_call_sites() {
        // `produce` writes g[0..4] inside its body; `consume` reads them.
        // The statement-level dependence must connect the two *call
        // instructions* in main, not the raw load/store instructions.
        let src = "global g[4];
fn produce() {
    for i in 0..4 { g[i] = i; }
    return 0;
}
fn consume() {
    let s = 0;
    for i in 0..4 { s += g[i]; }
    return s;
}
fn main() {
    produce();
    consume();
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let lifted_raw: Vec<(u32, u32)> = data
            .region_deps
            .iter()
            .filter(|(_, _, k)| *k == DepKind::Raw)
            .map(|(s, t, _)| (*s, *t))
            .collect();
        let call_pair = lifted_raw.iter().find(|(s, t)| {
            matches!(&ir.insts[*s as usize].kind, parpat_ir::InstKind::Call(n) if n == "produce")
                && matches!(&ir.insts[*t as usize].kind, parpat_ir::InstKind::Call(n) if n == "consume")
        });
        assert!(
            call_pair.is_some(),
            "expected produce→consume call-level edge, got {lifted_raw:?}"
        );
    }

    #[test]
    fn region_deps_lift_loop_accesses_to_loop_headers() {
        // Dependence between two sibling loops must appear as an edge
        // between their header instructions.
        let src = "global a[4];
global b[4];
fn main() {
    for i in 0..4 { a[i] = i; }
    for j in 0..4 { b[j] = a[j]; }
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let h0 = ir.loops[0].head_inst;
        let h1 = ir.loops[1].head_inst;
        assert!(
            data.region_deps.contains(&(h0, h1, DepKind::Raw)),
            "expected loop-header edge ({h0},{h1}), got {:?}",
            data.region_deps
        );
    }

    #[test]
    fn region_deps_within_one_region_use_raw_insts() {
        let src = "fn main() {
    let x = 1;
    let y = x + 2;
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        // x's store feeds x's load on the next line; both are plain insts in
        // main's body, so the lifted edge keeps the raw instructions.
        let ok = data.region_deps.iter().any(|(s, t, k)| {
            *k == DepKind::Raw
                && matches!(&ir.insts[*s as usize].kind, parpat_ir::InstKind::StoreScalar(n) if n == "x")
                && matches!(&ir.insts[*t as usize].kind, parpat_ir::InstKind::LoadScalar(n) if n == "x")
        });
        assert!(ok);
    }

    #[test]
    fn recursive_sibling_calls_have_no_mutual_raw_edge() {
        // fib(n-1) and fib(n-2) are independent; no lifted RAW edge may
        // connect the two call instructions in either direction.
        let src = "fn fib(n) {
    if n < 2 { return n; }
    let x = fib(n - 1);
    let y = fib(n - 2);
    return x + y;
}
fn main() { fib(8); }";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        let call_insts: Vec<u32> = (0..ir.inst_count() as u32)
            .filter(|&i| {
                matches!(&ir.insts[i as usize].kind, parpat_ir::InstKind::Call(n) if n == "fib")
                    && ir.insts[i as usize].func == ir.function_named("fib").unwrap().id
            })
            .collect();
        assert_eq!(call_insts.len(), 2);
        let (c1, c2) = (call_insts[0], call_insts[1]);
        assert!(!data.region_deps.contains(&(c1, c2, DepKind::Raw)));
        assert!(!data.region_deps.contains(&(c2, c1, DepKind::Raw)));
    }

    #[test]
    fn inst_counts_sum_to_total() {
        let (data, _) = profile_src("fn main() { let s = 0; for i in 0..5 { s += i; } }");
        assert_eq!(data.inst_counts.iter().sum::<u64>(), data.total_insts);
        assert!(data.total_insts > 0);
    }
}
