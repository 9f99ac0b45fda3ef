//! The dependence profiler as it stood before its tables were flattened,
//! kept verbatim as the reference side of the differential gate
//! (`tests/differential.rs`). Only types and imports differ from the
//! original: the imports name `parpat_profile` instead of `crate`, the
//! profile it builds is the old shape kept in `data.rs` (full line sets and
//! a `String` name per access-line entry), and the run helpers are left
//! out. Do not optimise this file; its value is that it is the obvious
//! implementation.

mod data;

use std::collections::HashMap;
use std::rc::Rc;

use parpat_ir::event::{AccessKind, MemAccess, Observer};
use parpat_ir::{InstId, IrProgram, LoopId};

use parpat_profile::{Dep, DepKind, DepSite};

pub use data::{AccessLines, ProfileData};

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
/// statement-level edges for CU graphs.
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

/// The profiling observer. Drive it through [`profile`] /
/// [`profile_function`], or attach it to your own interpreter run and call
/// [`DependenceProfiler::into_data`] afterwards.
pub struct DependenceProfiler<'p> {
    prog: &'p IrProgram,
    data: ProfileData,
    shadow: HashMap<u64, Shadow>,
    loop_stack: Vec<LoopFrame>,
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
}

impl<'p> DependenceProfiler<'p> {
    /// Create a profiler for `prog`.
    pub fn new(prog: &'p IrProgram) -> Self {
        let mut data = ProfileData::new(prog.inst_count());
        data.runs = 1;
        DependenceProfiler {
            prog,
            data,
            shadow: HashMap::new(),
            loop_stack: Vec::new(),
            chain: Vec::new(),
            chain_pushed: Vec::new(),
            next_instance: 0,
            cached_stack: None,
            cached_chain: None,
        }
    }

    /// Consume the profiler and return the collected data.
    pub fn into_data(self) -> ProfileData {
        self.data
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

    fn var_name_of(&self, inst: InstId) -> String {
        let kind = &self.prog.insts[inst as usize].kind;
        match kind.touched_name() {
            Some(n) => n.to_owned(),
            // Parameter-initialization stores are attributed to the call
            // instruction.
            None => match kind {
                parpat_ir::InstKind::Call(callee) => format!("<args of {callee}>"),
                _ => String::new(),
            },
        }
    }

    fn note_access_lines(&mut self, access: &MemAccess) {
        if self.loop_stack.is_empty() {
            return;
        }
        let name = self.var_name_of(access.inst);
        for frame in &self.loop_stack {
            let entry = self
                .data
                .loop_access_lines
                .entry(frame.l)
                .or_default()
                .entry(access.addr)
                .or_default();
            match access.kind {
                AccessKind::Read => {
                    entry.read_lines.insert(access.line);
                }
                AccessKind::Write => {
                    entry.write_lines.insert(access.line);
                }
            }
            if entry.var_name.is_empty() {
                entry.var_name = name.clone();
            }
        }
    }

    fn on_read(&mut self, access: MemAccess) {
        self.note_access_lines(&access);
        let snapshot = self.snapshot();
        let chain = self.chain_snapshot();
        let shadow = self.shadow.entry(access.addr).or_default();
        if let Some(w) = &shadow.last_write {
            let (site, iter_pair) = Self::classify(&w.stack, &snapshot);
            self.data.deps.insert(Dep { src: w.inst, sink: access.inst, kind: DepKind::Raw, site });
            let (src, sink) = Self::lift(&w.chain, w.inst, &chain, access.inst);
            self.data.region_deps.insert((src, sink, DepKind::Raw));
            if let (DepSite::CrossLoop { x, y }, Some((ix, iy))) = (site, iter_pair) {
                // First read wins; the shadow write is by construction the
                // last write before it.
                self.data
                    .cross_loop_pairs
                    .entry((x, y))
                    .or_default()
                    .entry(access.addr)
                    .or_insert((ix, iy));
            }
            if let DepSite::Carried { l, .. } = site {
                if let Some(e) =
                    self.data.loop_access_lines.get_mut(&l).and_then(|m| m.get_mut(&access.addr))
                {
                    e.inter_iteration = true;
                }
            }
        }
        shadow.last_read = Some(AccessRec { inst: access.inst, stack: snapshot, chain });
    }

    fn on_write(&mut self, access: MemAccess) {
        self.note_access_lines(&access);
        let snapshot = self.snapshot();
        let chain = self.chain_snapshot();
        let shadow = self.shadow.entry(access.addr).or_default();
        if let Some(r) = shadow.last_read.take() {
            let (site, _) = Self::classify(&r.stack, &snapshot);
            self.data.deps.insert(Dep { src: r.inst, sink: access.inst, kind: DepKind::War, site });
            let (src, sink) = Self::lift(&r.chain, r.inst, &chain, access.inst);
            self.data.region_deps.insert((src, sink, DepKind::War));
        }
        if let Some(w) = &shadow.last_write {
            let (site, _) = Self::classify(&w.stack, &snapshot);
            self.data.deps.insert(Dep { src: w.inst, sink: access.inst, kind: DepKind::Waw, site });
            let (src, sink) = Self::lift(&w.chain, w.inst, &chain, access.inst);
            self.data.region_deps.insert((src, sink, DepKind::Waw));
            if let DepSite::Carried { l, .. } = site {
                if let Some(e) =
                    self.data.loop_access_lines.get_mut(&l).and_then(|m| m.get_mut(&access.addr))
                {
                    e.rewritten = true;
                }
            }
        }
        shadow.last_write = Some(AccessRec { inst: access.inst, stack: snapshot, chain });
    }
}

impl Observer for DependenceProfiler<'_> {
    fn enter_function(
        &mut self,
        _func: parpat_ir::FuncId,
        call_inst: Option<InstId>,
        _is_recursive: bool,
    ) {
        self.invalidate_snapshots();
        match call_inst {
            Some(inst) => {
                let key = self.next_instance;
                self.next_instance += 1;
                self.chain.push(ChainFrame { inst, key });
                self.chain_pushed.push(true);
            }
            None => self.chain_pushed.push(false),
        }
    }

    fn exit_function(&mut self, _func: parpat_ir::FuncId) {
        if self.chain_pushed.pop().expect("exit_function without enter") {
            self.chain.pop();
            self.invalidate_snapshots();
        }
    }

    fn enter_loop(&mut self, l: LoopId) {
        self.invalidate_snapshots();
        let instance = self.next_instance;
        self.next_instance += 1;
        let stats = self.data.loop_stats.entry(l).or_default();
        stats.first_entry = stats.first_entry.min(instance);
        self.loop_stack.push(LoopFrame { l, instance, iter: 0 });
        self.chain.push(ChainFrame { inst: self.prog.loops[l as usize].head_inst, key: instance });
    }

    fn loop_iteration(&mut self, l: LoopId, iter: u64) {
        self.invalidate_snapshots();
        let top = self.loop_stack.last_mut().expect("loop_iteration outside loop");
        debug_assert_eq!(top.l, l);
        top.iter = iter;
    }

    fn exit_loop(&mut self, l: LoopId, iterations: u64) {
        self.invalidate_snapshots();
        let top = self.loop_stack.pop().expect("exit_loop without enter");
        debug_assert_eq!(top.l, l);
        self.chain.pop();
        let stats = self.data.loop_stats.entry(l).or_default();
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
