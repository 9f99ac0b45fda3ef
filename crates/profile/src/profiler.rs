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
//!   ([`Lines`]), whether line 0 was among them, and the
//!   first access instruction that names a variable.
//!
//! The profiler keys loop context by `(loop id, dynamic instance, iteration)`
//! so that re-entered inner loops and repeated calls never alias.
//!
//! Every access is an event, but almost every fact it reports is one the
//! profile already holds, so the tables are shaped to notice that cheaply:
//! a dependence equal to the last one recorded for its sink instruction and
//! kind skips the set insert, and a per-loop entry is a `Copy` value whose
//! line update is O(1) and allocates nothing. Shadow memory is a map from
//! address to shadow entry, and each shadow entry links to its address's
//! per-loop entries (one link per loop that touched it), so an access costs
//! one hash however many loops are live. An access skips the line table
//! altogether when what its address's accesses of the same kind noted under
//! the same live-loop set already covers it (see `Noted`). Per-loop
//! entries live in one vector per loop, which
//! [`DependenceProfiler::into_data`] hands over as they are; cross-loop
//! pairs live in a flat `(x, y, address)` map and trip statistics in a
//! vector by loop, which it nests into [`ProfileData`]'s shape once. Every
//! table hashes with the crate's integer hasher instead of SipHash.
//!
//! Contexts are interned: the loop stack and the call/loop chain of an
//! access are `u32` ids of nodes in two append-only tries, so a shadow entry
//! is a small `Copy` value and recording an access copies three integers.
//! Each path has one node, so equal ids mean equal contexts, and comparing
//! two contexts walks parent links only from where they differ. The tries
//! are compacted once they outgrow the shadow memory that refers to them.

use parpat_ir::event::{AccessKind, MemAccess, Observer};
use parpat_ir::interp::{run_function, ExecLimits};
use parpat_ir::{FuncId, InstId, IrProgram, LoopId, RuntimeError};

use crate::data::{
    names_variable, AccessLines, Dep, DepKind, DepSite, Lines, LoopStats, ProfileData,
};
use crate::inthash::IntMap;

/// One entry of the dynamic loop stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChainFrame {
    inst: InstId,
    key: u64,
}

/// A context: the id of a node in a [`Trie`].
type NodeId = u32;

/// The root of every [`Trie`]: the empty context.
const ROOT: NodeId = 0;

/// In [`Trie::retain`]'s map: a node in use, before it is renumbered.
const KEEP: NodeId = 0;

/// In [`Trie::retain`]'s map: a node no context in use refers to.
const DROP: NodeId = NodeId::MAX;

/// Nodes a trie may hold past twice what is in use before it is compacted.
const COMPACT_SLACK: usize = 4096;

/// One node of a [`Trie`]: its parent's path plus one frame.
#[derive(Debug, Clone, Copy)]
struct Node<F> {
    parent: NodeId,
    /// The length of the node's path; the root's is 0.
    depth: u32,
    frame: F,
}

/// Interned contexts (stacks of frames), one node per path.
///
/// The profiler keeps, beside each of its stacks, the ids of the stack's
/// prefixes that have a node, and makes the missing nodes at the next
/// access ([`Trie::intern`]). A frame changes only at the top of its stack,
/// and it never returns to an earlier value: loop instances and chain keys
/// are unique, and a loop's iteration number only grows. So a node is never
/// made twice for one path, and two contexts are equal exactly when their
/// ids are.
#[derive(Debug)]
struct Trie<F> {
    nodes: Vec<Node<F>>,
    /// Compact once there are more nodes than this.
    limit: usize,
}

impl<F: Copy + Default + PartialEq + std::fmt::Debug> Trie<F> {
    fn new(limit: usize) -> Self {
        Trie { nodes: vec![Node { parent: ROOT, depth: 0, frame: F::default() }], limit }
    }

    fn full(&self) -> bool {
        self.nodes.len() > self.limit
    }

    /// The id of the context `frames`, whose first `ids.len()` prefixes
    /// have the nodes `ids`: makes nodes for the rest, extending `ids`.
    fn intern(&mut self, frames: &[F], ids: &mut Vec<NodeId>) -> NodeId {
        let mut id = ids.last().copied().unwrap_or(ROOT);
        for &frame in &frames[ids.len()..] {
            let depth = self.nodes[id as usize].depth + 1;
            self.nodes.push(Node { parent: id, depth, frame });
            id = NodeId::try_from(self.nodes.len() - 1).expect("fewer than 2^32 contexts");
            ids.push(id);
        }
        id
    }

    /// The frames of `a`'s and `b`'s paths at the first depth where the
    /// paths differ, `None` for a path that ends above it: `(None, None)`
    /// when the paths are equal.
    fn split(&self, mut a: NodeId, mut b: NodeId) -> (Option<F>, Option<F>) {
        if a == b {
            return (None, None);
        }
        let node = |id: NodeId| self.nodes[id as usize];
        // Bring the deeper path up to the other's depth, keeping the frame
        // just below it, which is where the paths differ if one is a prefix
        // of the other.
        let (depth_a, depth_b) = (node(a).depth, node(b).depth);
        let (mut below_a, mut below_b) = (None, None);
        while node(a).depth > depth_b {
            below_a = Some(node(a).frame);
            a = node(a).parent;
        }
        while node(b).depth > depth_a {
            below_b = Some(node(b).frame);
            b = node(b).parent;
        }
        if a == b {
            return (below_a, below_b);
        }
        while node(a).parent != node(b).parent {
            a = node(a).parent;
            b = node(b).parent;
        }
        let (fa, fb) = (node(a).frame, node(b).frame);
        debug_assert_ne!(fa, fb, "two nodes with one path");
        (Some(fa), Some(fb))
    }

    /// A map for [`Trie::retain`] with no node marked.
    fn unmarked(&self) -> Vec<NodeId> {
        vec![DROP; self.nodes.len()]
    }

    /// Keep the root, the nodes `map` marks [`KEEP`] and their ancestors,
    /// renumbered in order; `map` then holds each kept node's new id.
    /// Parents precede their children, so one pass from the newest node
    /// marks the ancestors and one pass from the oldest renumbers.
    fn retain(&mut self, map: &mut [NodeId]) {
        for id in (1..self.nodes.len()).rev() {
            if map[id] != DROP {
                map[self.nodes[id].parent as usize] = KEEP;
            }
        }
        map[ROOT as usize] = ROOT;
        let mut kept = 1;
        for id in 1..self.nodes.len() {
            if map[id] != DROP {
                let node = self.nodes[id];
                self.nodes[kept] = Node { parent: map[node.parent as usize], ..node };
                map[id] = NodeId::try_from(kept).expect("kept nodes have ids");
                kept += 1;
            }
        }
        self.nodes.truncate(kept);
    }
}

/// A recorded access: which instruction, under which loop stack (a node of
/// [`DependenceProfiler::stacks`]) and under which chain (a node of
/// [`DependenceProfiler::chains`]).
#[derive(Debug, Clone, Copy)]
struct AccessRec {
    inst: InstId,
    stack: NodeId,
    chain: NodeId,
}

/// An empty record slot: its instruction is one no program has, and its
/// contexts are the roots, which compaction keeps in place.
const NO_ACCESS: AccessRec = AccessRec { inst: InstId::MAX, stack: ROOT, chain: ROOT };

impl AccessRec {
    /// The record, unless the slot is empty.
    fn get(self) -> Option<AccessRec> {
        (self.inst != NO_ACCESS.inst).then_some(self)
    }
}

/// The id of a set of live loops (see [`DependenceProfiler::live_sets`]).
type SetId = u32;

/// The id of the empty live-loop set.
const NO_LOOPS: SetId = 0;

/// In [`Noted::summary`]: one of the accesses named a variable.
const NAMED: u32 = 1 << 31;

/// In [`Noted::summary`]: two or more distinct lines.
const MANY: u32 = 1;

/// What an address's accesses of one kind noted in the line table since
/// the live-loop set last changed: the set, the [`Lines`] join of their
/// lines, and whether one of them named a variable. The first access under
/// a set is always noted, so every loop of the set has an entry whose
/// lines of this kind include the join, and whose `name_inst` is set once
/// the summary is named. An access that would note nothing more (same set,
/// a line other than 0 already in the join, no name to give or one given)
/// is skipped; DESIGN.md, *The line memo*, has the argument.
#[derive(Debug, Clone, Copy)]
struct Noted {
    set: SetId,
    /// The join, encoded in the low 31 bits: 0 for no line, [`MANY`], or
    /// `2 + line`; a line too large for that counts as no line, which only
    /// makes the next access of the line be noted. The [`NAMED`] bit above.
    summary: u32,
}

impl Noted {
    /// Nothing noted under the empty set, where a note changes nothing.
    const EMPTY: Noted = Noted { set: NO_LOOPS, summary: 0 };

    fn lines(self) -> Lines {
        match self.summary & !NAMED {
            0 => Lines::None,
            MANY => Lines::Many,
            code => Lines::One(code - 2),
        }
    }

    /// Fold an access of `line` under the live-loop set `set` into the
    /// summary, resetting it first if the set changed. `names` says
    /// whether the access's instruction names a variable; it is asked only
    /// while no access has. Returns whether the line table already holds
    /// everything the access would note.
    fn fold(&mut self, set: SetId, line: u32, names: impl FnOnce() -> bool) -> bool {
        if self.set != set {
            *self = Noted { set, summary: 0 };
        }
        let lines = self.lines();
        let joined = lines.join(Lines::One(line));
        let named = self.summary & NAMED != 0;
        let names_first = !named && names();
        let code = match joined {
            Lines::None => 0,
            Lines::Many => MANY,
            Lines::One(l) => l.checked_add(2).filter(|c| c & NAMED == 0).unwrap_or(0),
        };
        self.summary = code | if named || names_first { NAMED } else { 0 };
        line != 0 && joined == lines && !names_first
    }
}

/// The shadow of one address.
#[derive(Debug, Clone, Copy)]
struct Shadow {
    /// The last write, or [`NO_ACCESS`].
    last_write: AccessRec,
    /// The last read since the last write (the next write depends on it,
    /// WAR), or [`NO_ACCESS`].
    last_read: AccessRec,
    /// What the reads and the writes noted in the line table (indexed by
    /// [`AccessKind`]).
    noted: [Noted; 2],
    /// The first of this address's links in [`LineTable::links`], or
    /// [`NO_LINK`].
    lines: u32,
}

impl Default for Shadow {
    fn default() -> Self {
        Shadow {
            last_write: NO_ACCESS,
            last_read: NO_ACCESS,
            noted: [Noted::EMPTY; 2],
            lines: NO_LINK,
        }
    }
}

impl Shadow {
    /// Every access record the entry holds; an empty slot's roots too.
    fn records(&mut self) -> [&mut AccessRec; 2] {
        [&mut self.last_write, &mut self.last_read]
    }
}

/// Marks the end of a chain of [`Link`]s.
const NO_LINK: u32 = u32::MAX;

/// One loop's access-line entry for one address, in that address's chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    l: LoopId,
    /// Index into the loop's entries.
    entry: u32,
    /// The address's next link, or [`NO_LINK`].
    next: u32,
}

/// Per-loop access lines (Algorithm 3's input). An address reaches its
/// entries through the chain of links its shadow entry heads: one link per
/// loop that touched it, newest first.
#[derive(Debug)]
struct LineTable {
    /// Entries per loop (indexed by loop), in order of first access.
    lines: Vec<Vec<(u64, AccessLines)>>,
    /// Every address's links, in one arena.
    links: Vec<Link>,
}

impl LineTable {
    /// The index of loop `l`'s entry among the links from `head`.
    fn find(&self, head: u32, l: LoopId) -> Option<u32> {
        let mut at = head;
        while at != NO_LINK {
            let link = self.links[at as usize];
            if link.l == l {
                return Some(link.entry);
            }
            at = link.next;
        }
        None
    }

    /// Add the access's line to its entry in every distinct live loop,
    /// creating entries (and links from `head`) on first touch.
    fn note(
        &mut self,
        head: &mut u32,
        live_loops: &[LoopId],
        prog: &IrProgram,
        access: &MemAccess,
    ) {
        for &l in live_loops {
            let idx = self.find(*head, l).unwrap_or_else(|| {
                let entries = &mut self.lines[l as usize];
                let idx = u32::try_from(entries.len()).expect("fewer than 2^32 entries per loop");
                entries.push((access.addr, AccessLines::default()));
                self.links.push(Link { l, entry: idx, next: *head });
                *head = u32::try_from(self.links.len() - 1).expect("fewer than 2^32 links");
                idx
            });
            let e = &mut self.lines[l as usize][idx as usize].1;
            match access.kind {
                AccessKind::Read => e.read_lines.add(access.line),
                AccessKind::Write => e.write_lines.add(access.line),
            }
            e.has_line_zero |= access.line == 0;
            if e.name_inst.is_none() && names_variable(&prog.insts[access.inst as usize].kind) {
                e.name_inst = Some(access.inst);
            }
        }
    }

    /// Loop `l`'s entry for the address whose links start at `head`.
    fn entry(&mut self, head: u32, l: LoopId) -> Option<&mut AccessLines> {
        let idx = self.find(head, l)?;
        Some(&mut self.lines[l as usize][idx as usize].1)
    }
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
    /// Shadow memory by address. A map, not a table indexed by address:
    /// its size follows the addresses touched, where a table would follow
    /// the cells declared (up to `max_mem_cells`) or, for frames, which are
    /// never reused, every slot of every call.
    shadow: IntMap<u64, Shadow>,
    loop_stack: Vec<LoopFrame>,
    /// The nodes of `loop_stack`'s prefixes, as far as they were interned:
    /// the frames past `loop_ids.len()` changed since the last access.
    loop_ids: Vec<NodeId>,
    stacks: Trie<LoopFrame>,
    /// The distinct loops on `loop_stack`, in order of first push.
    live_loops: Vec<LoopId>,
    /// Live-loop set ids: a trie of the sequences `live_loops` has held,
    /// keyed by `(parent set, loop)`, under the empty set [`NO_LOOPS`]. It
    /// is small, since a sequence holds each loop at most once, and it is
    /// never compacted.
    live_sets: IntMap<(SetId, LoopId), SetId>,
    /// The set ids of `live_loops`' non-empty prefixes.
    live_ids: Vec<SetId>,
    /// How many frames of each loop are on `loop_stack` (indexed by loop).
    on_stack: Vec<u32>,
    /// Interleaved call/loop context chain (see [`ChainFrame`]).
    chain: Vec<ChainFrame>,
    /// The nodes of `chain`'s interned prefixes, as `loop_ids` is for the
    /// loop stack.
    chain_ids: Vec<NodeId>,
    chains: Trie<ChainFrame>,
    /// Whether each active function pushed a chain frame (the entry call
    /// does not).
    chain_pushed: Vec<bool>,
    next_instance: u64,
    /// The fixed part of the tries' compaction limit.
    slack: usize,
    lines: LineTable,
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
            loop_ids: Vec::new(),
            stacks: Trie::new(COMPACT_SLACK),
            live_loops: Vec::new(),
            live_sets: IntMap::default(),
            live_ids: Vec::new(),
            on_stack: vec![0; prog.loop_count()],
            chain: Vec::new(),
            chain_ids: Vec::new(),
            chains: Trie::new(COMPACT_SLACK),
            chain_pushed: Vec::new(),
            next_instance: 0,
            slack: COMPACT_SLACK,
            lines: LineTable { lines: vec![Vec::new(); prog.loop_count()], links: Vec::new() },
            cross_pairs: IntMap::default(),
            loop_stats: vec![None; prog.loop_count()],
            last_insert: vec![LastInsert::default(); prog.inst_count() * 3],
        }
    }

    /// Consume the profiler and return the collected data. Each loop's
    /// access-line entries are handed over as the profiler kept them, in
    /// the order the loop first touched each address. Their vector is
    /// copied into an exact-size allocation, so that a cached profile does
    /// not keep each vector's spare growth.
    pub fn into_data(self) -> ProfileData {
        let DependenceProfiler {
            mut data,
            shadow,
            stacks,
            chains,
            lines: LineTable { lines, links },
            cross_pairs,
            loop_stats,
            ..
        } = self;
        // The per-address tables go before the output is built, so the two
        // are never live at once.
        drop((shadow, stacks, chains, links));
        for (l, entries) in (0..).zip(lines) {
            if !entries.is_empty() {
                data.loop_access_lines.insert(l, entries.as_slice().to_vec());
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

    /// Drop the trie nodes that neither a shadow record nor the current
    /// contexts refer to, and renumber the rest. Afterwards a trie may grow
    /// to twice what is in use (or to twice the shadow entries, whichever
    /// is more) plus `slack` before the next compaction, so the tries stay
    /// proportional to the addresses touched, and the work of compacting
    /// is paid for by the nodes made since the last time.
    fn compact(&mut self) {
        let mut stack_map = self.stacks.unmarked();
        let mut chain_map = self.chains.unmarked();
        for r in self.shadow.values_mut().flat_map(Shadow::records) {
            stack_map[r.stack as usize] = KEEP;
            chain_map[r.chain as usize] = KEEP;
        }
        for &id in &self.loop_ids {
            stack_map[id as usize] = KEEP;
        }
        for &id in &self.chain_ids {
            chain_map[id as usize] = KEEP;
        }
        self.stacks.retain(&mut stack_map);
        self.chains.retain(&mut chain_map);
        for r in self.shadow.values_mut().flat_map(Shadow::records) {
            r.stack = stack_map[r.stack as usize];
            r.chain = chain_map[r.chain as usize];
        }
        for id in &mut self.loop_ids {
            *id = stack_map[*id as usize];
        }
        for id in &mut self.chain_ids {
            *id = chain_map[*id as usize];
        }
        let shadow_entries = self.shadow.len();
        self.stacks.limit = 2 * self.stacks.nodes.len().max(shadow_entries) + self.slack;
        self.chains.limit = 2 * self.chains.nodes.len().max(shadow_entries) + self.slack;
    }

    /// Classify a dependence from the loop contexts of its two endpoints.
    /// Returns the site and, for cross-loop dependences, the `(i_x, i_y)`
    /// iteration pair at the diverging depth.
    fn classify(&self, w: NodeId, r: NodeId) -> (DepSite, Option<(u64, u64)>) {
        match self.stacks.split(w, r) {
            (None, None) => (DepSite::Intra, None),
            (Some(wf), Some(rf)) => {
                if wf.l != rf.l {
                    (DepSite::CrossLoop { x: wf.l, y: rf.l }, Some((wf.iter, rf.iter)))
                } else if wf.instance != rf.instance {
                    (DepSite::CrossInstance { l: wf.l }, None)
                } else {
                    let distance = rf.iter.saturating_sub(wf.iter).max(1);
                    (DepSite::Carried { l: wf.l, distance }, None)
                }
            }
            _ => (DepSite::OutsideLoop, None),
        }
    }

    /// Lift a dependence between two dynamic accesses to statement level:
    /// where the two context chains diverge, the diverging frames (or, where
    /// a chain has ended, the access instruction itself) are two statements
    /// of the same region.
    fn lift(&self, a: AccessRec, b: AccessRec) -> (InstId, InstId) {
        let (fa, fb) = self.chains.split(a.chain, b.chain);
        (fa.map_or(a.inst, |f| f.inst), fb.map_or(b.inst, |f| f.inst))
    }

    /// Record the dependence from `src` to the current access `sink` and
    /// return its classification.
    fn observe(
        &mut self,
        src: AccessRec,
        sink: AccessRec,
        kind: DepKind,
    ) -> (DepSite, Option<(u64, u64)>) {
        let (site, iter_pair) = self.classify(src.stack, sink.stack);
        let dep = Dep { src: src.inst, sink: sink.inst, kind, site };
        let region = self.lift(src, sink);
        let last = &mut self.last_insert[sink.inst as usize * 3 + kind as usize];
        if last.dep != Some(dep) {
            self.data.deps.insert(dep);
            last.dep = Some(dep);
        }
        if last.region != Some(region) {
            self.data.region_deps.insert((region.0, region.1, kind));
            last.region = Some(region);
        }
        (site, iter_pair)
    }

    /// Record the dependence of a read by `rec` of `addr`, whose shadow
    /// entry held `prev` before the read.
    fn on_read(&mut self, addr: u64, rec: AccessRec, prev: Shadow) {
        let Some(w) = prev.last_write.get() else { return };
        match self.observe(w, rec, DepKind::Raw) {
            (DepSite::CrossLoop { x, y }, Some(pair)) => {
                // First read wins; the shadow write is by construction the
                // last write before it.
                self.cross_pairs.entry((x, y, addr)).or_insert(pair);
            }
            (DepSite::Carried { l, .. }, _) => {
                if let Some(e) = self.lines.entry(prev.lines, l) {
                    e.inter_iteration = true;
                }
            }
            _ => {}
        }
    }

    /// Record the dependences of a write by `rec` to an address whose
    /// shadow entry held `prev` before the write.
    fn on_write(&mut self, rec: AccessRec, prev: Shadow) {
        if let Some(r) = prev.last_read.get() {
            self.observe(r, rec, DepKind::War);
        }
        if let Some(w) = prev.last_write.get() {
            if let (DepSite::Carried { l, .. }, _) = self.observe(w, rec, DepKind::Waw) {
                if let Some(e) = self.lines.entry(prev.lines, l) {
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
            let key = self.next_instance;
            self.next_instance += 1;
            self.chain.push(ChainFrame { inst, key });
        }
        self.chain_pushed.push(call_inst.is_some());
    }

    fn exit_function(&mut self, _func: parpat_ir::FuncId) {
        if self.chain_pushed.pop().expect("exit_function without enter") {
            self.chain.pop();
            self.chain_ids.truncate(self.chain.len());
        }
    }

    fn enter_loop(&mut self, l: LoopId) {
        let instance = self.next_instance;
        self.next_instance += 1;
        let stats = self.loop_stats[l as usize].get_or_insert_with(LoopStats::default);
        stats.first_entry = stats.first_entry.min(instance);
        self.loop_stack.push(LoopFrame { l, instance, iter: 0 });
        let count = &mut self.on_stack[l as usize];
        if *count == 0 {
            self.live_loops.push(l);
            let parent = self.live_ids.last().copied().unwrap_or(NO_LOOPS);
            let next = SetId::try_from(self.live_sets.len() + 1).expect("fewer than 2^32 sets");
            self.live_ids.push(*self.live_sets.entry((parent, l)).or_insert(next));
        }
        *count += 1;
        self.chain.push(ChainFrame { inst: self.prog.loops[l as usize].head_inst, key: instance });
    }

    fn loop_iteration(&mut self, l: LoopId, iter: u64) {
        let top = self.loop_stack.last_mut().expect("loop_iteration outside loop");
        debug_assert_eq!(top.l, l);
        if top.iter != iter {
            top.iter = iter;
            self.loop_ids.truncate(self.loop_stack.len() - 1);
        }
    }

    fn exit_loop(&mut self, l: LoopId, iterations: u64) {
        let top = self.loop_stack.pop().expect("exit_loop without enter");
        debug_assert_eq!(top.l, l);
        self.loop_ids.truncate(self.loop_stack.len());
        let count = &mut self.on_stack[top.l as usize];
        *count -= 1;
        if *count == 0 {
            // The frame that first put a loop on the stack is the last of
            // its frames to leave, so its loop is the newest live one.
            let newest = self.live_loops.pop();
            debug_assert_eq!(newest, Some(top.l));
            self.live_ids.pop();
        }
        self.chain.pop();
        self.chain_ids.truncate(self.chain.len());
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
        // Compacting renumbers the tries, so it happens before any id is
        // taken.
        if self.stacks.full() || self.chains.full() {
            self.compact();
        }
        let rec = AccessRec {
            inst: access.inst,
            stack: self.stacks.intern(&self.loop_stack, &mut self.loop_ids),
            chain: self.chains.intern(&self.chain, &mut self.chain_ids),
        };
        let live = self.live_ids.last().copied().unwrap_or(NO_LOOPS);
        let shadow = self.shadow.entry(access.addr).or_default();
        let prog = self.prog;
        let names = || names_variable(&prog.insts[access.inst as usize].kind);
        if !shadow.noted[access.kind as usize].fold(live, access.line, names) {
            self.lines.note(&mut shadow.lines, &self.live_loops, prog, &access);
        }
        let prev = *shadow;
        match access.kind {
            AccessKind::Read => {
                shadow.last_read = rec;
                self.on_read(access.addr, rec, prev);
            }
            AccessKind::Write => {
                shadow.last_write = rec;
                shadow.last_read = NO_ACCESS;
                self.on_write(rec, prev);
            }
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
        let entries = &data.loop_access_lines[&0];
        let (_, s_rec) =
            entries.iter().find(|(_, a)| a.var_name(&ir) == "s").expect("record for s");
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

    /// The number of shadow entries for global addresses after profiling
    /// `src`.
    fn global_shadow_entries(src: &str) -> usize {
        let ir = compile(src).unwrap();
        let mut profiler = DependenceProfiler::new(&ir);
        run_function(&ir, ir.entry.unwrap(), &[], &mut profiler, ExecLimits::default()).unwrap();
        profiler.shadow.keys().filter(|&&addr| addr < parpat_ir::lower::FRAME_REGION_BASE).count()
    }

    #[test]
    fn shadow_grows_with_the_addresses_touched() {
        // 2^24 declared cells, the default `max_mem_cells`: shadow holds
        // one entry per cell touched, for two end cells and for a stride
        // of 1024 alike.
        assert_eq!(
            global_shadow_entries(
                "global a[16777216];
                 fn main() { a[0] = 1; a[16777215] = 2; }"
            ),
            2
        );
        assert_eq!(
            global_shadow_entries(
                "global a[16777216];
                 fn main() { for i in 0..16384 { a[i * 1024] = 1; } }"
            ),
            16384
        );
    }

    impl<'p> DependenceProfiler<'p> {
        /// A profiler whose tries are compacted as often as the rule
        /// allows: no slack, so the limit is twice what is in use.
        fn compacting_eagerly(prog: &'p IrProgram) -> Self {
            let mut profiler = DependenceProfiler::new(prog);
            profiler.slack = 0;
            profiler.stacks.limit = 0;
            profiler.chains.limit = 0;
            profiler
        }

        fn trie_nodes(&self) -> usize {
            self.stacks.nodes.len() + self.chains.nodes.len()
        }
    }

    fn assert_same_profile(label: &str, a: &ProfileData, b: &ProfileData) {
        assert!(a.deps == b.deps, "{label}: `deps` differs");
        assert!(a.region_deps == b.region_deps, "{label}: `region_deps` differs");
        assert!(a.loop_access_lines == b.loop_access_lines, "{label}: `loop_access_lines` differs");
        assert!(a.cross_loop_pairs == b.cross_loop_pairs, "{label}: `cross_loop_pairs` differs");
        assert_eq!(a.loop_stats, b.loop_stats, "{label}: `loop_stats` differs");
        assert_eq!(a.inst_counts, b.inst_counts, "{label}: `inst_counts` differs");
        assert_eq!(a.total_insts, b.total_insts, "{label}: `total_insts` differs");
        assert_eq!(a.runs, b.runs, "{label}: `runs` differs");
    }

    #[test]
    fn eager_compaction_changes_no_profile() {
        let models = parpat_suite::all_apps().into_iter().chain(parpat_suite::synthetic_apps());
        let mut cases: Vec<(String, String, ExecLimits)> = models
            .map(|app| (app.name.to_owned(), app.model.to_owned(), ExecLimits::default()))
            .collect();
        assert_eq!(cases.len(), 19);
        let limits = ExecLimits { max_insts: 400_000, ..ExecLimits::default() };
        for seed in 0x00D1_FF00..0x00D1_FF00 + 200u64 {
            cases.push((
                format!("seed {seed:#x}"),
                parpat_minilang::genprog::generate(seed),
                limits,
            ));
        }
        let (mut eager_nodes, mut default_nodes) = (0, 0);
        for (label, src, limits) in &cases {
            let ast = parpat_minilang::parse_checked(src).unwrap();
            let ir = parpat_ir::lower(&ast);
            let entry = ir.entry.unwrap();
            let mut eager = DependenceProfiler::compacting_eagerly(&ir);
            let eager_outcome = run_function(&ir, entry, &[], &mut eager, *limits).map(|o| o.insts);
            let mut default = DependenceProfiler::new(&ir);
            let outcome = run_function(&ir, entry, &[], &mut default, *limits).map(|o| o.insts);
            assert_eq!(eager_outcome, outcome, "{label}: outcomes differ");
            eager_nodes += eager.trie_nodes();
            default_nodes += default.trie_nodes();
            assert_same_profile(label, &eager.into_data(), &default.into_data());
        }
        assert!(eager_nodes < default_nodes, "eager compaction dropped no node");
    }

    #[test]
    fn tries_stay_bounded_over_a_long_loop() {
        // Each iteration makes a loop-stack node, 200k in all without
        // compaction.
        let ir =
            compile("fn main() { let s = 0; for i in 0..200000 { s += 1; } return s; }").unwrap();
        let mut profiler = DependenceProfiler::new(&ir);
        run_function(&ir, ir.entry.unwrap(), &[], &mut profiler, ExecLimits::default()).unwrap();
        assert!(
            profiler.stacks.nodes.len() <= 2 * COMPACT_SLACK,
            "{}",
            profiler.stacks.nodes.len()
        );
        assert!(
            profiler.chains.nodes.len() <= 2 * COMPACT_SLACK,
            "{}",
            profiler.chains.nodes.len()
        );
    }

    #[test]
    fn shadow_entries_are_small_copy_values() {
        fn copy<T: Copy>() {}
        copy::<AccessRec>();
        copy::<Shadow>();
        assert!(std::mem::size_of::<Shadow>() <= 44);
    }

    #[test]
    fn inst_counts_sum_to_total() {
        let (data, _) = profile_src("fn main() { let s = 0; for i in 0..5 { s += i; } }");
        assert_eq!(data.inst_counts.iter().sum::<u64>(), data.total_insts);
        assert!(data.total_insts > 0);
    }
}
