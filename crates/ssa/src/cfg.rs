//! Basic-block CFG lowered from the structured tree IR.
//!
//! The lowering is semantics-preserving with respect to the tree
//! interpreter, instruction for instruction where it matters:
//!
//! - **`for` machinery** uses a *hidden* counter slot: the tree interpreter
//!   rewrites the induction variable from its private counter on every
//!   iteration, so a body that assigns the induction variable must not
//!   perturb iteration. The CFG mirrors that by incrementing the hidden
//!   counter and re-copying it into the user slot at the top of each
//!   iteration. Loop bounds are evaluated once, before the loop.
//! - **short-circuit `&&`/`||`** become control flow through a synthetic
//!   temp slot (promoted to a phi by SSA construction), so the right-hand
//!   side's side effects are skipped exactly when the interpreter skips
//!   them.
//! - **array addressing** is an explicit [`Op::ElemAddr`] instruction that
//!   truncates and bounds-checks *before* a store's value operand is
//!   evaluated — the same fault ordering as the interpreter.
//!
//! Every instruction carries the originating tree [`InstId`], which is how
//! runtime errors keep their source lines and how the static analyzer maps
//! array accesses back onto SSA subscript values.

use parpat_ir::ir::{Builtin, IrExpr, IrFunction, IrStmt, LoopKind};
use parpat_ir::{ArrayId, FuncId, InstId, IrProgram, LoopId};
use parpat_minilang::ast::{BinOp, UnOp};

/// Index of a basic block within its function.
pub type BlockId = usize;
/// An SSA value: the index of the instruction that defines it.
pub type ValId = u32;

/// An instruction operation. Instructions *are* values: the defining
/// instruction's index is the value's id.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Numeric literal.
    Const(f64),
    /// Boolean literal.
    BoolConst(bool),
    /// The `k`-th function parameter (entry block only; seeds renaming).
    Param(usize),
    /// Read a scalar slot. Exists only before SSA promotion.
    GetSlot(usize),
    /// Write a scalar slot. Exists only before SSA promotion. No result.
    SetSlot(usize, ValId),
    /// SSA phi for a promoted slot; `args` parallels the block's
    /// predecessor list.
    Phi {
        /// The slot this phi merges (provenance only after promotion).
        slot: usize,
        /// One incoming value per predecessor, in predecessor order.
        args: Vec<ValId>,
    },
    /// Unary arithmetic/logic.
    Un(UnOp, ValId),
    /// Binary arithmetic/comparison. `&&`/`||` never appear — they are
    /// lowered to control flow.
    Bin(BinOp, ValId, ValId),
    /// Builtin call (`sqrt`, `abs`, `min`, `max`, `floor`).
    Builtin(Builtin, Vec<ValId>),
    /// Resolve (truncate + bounds-check) an element address of a global
    /// array. Faults on out-of-range or NaN subscripts.
    ElemAddr {
        /// The global array.
        array: ArrayId,
        /// One subscript value per dimension.
        idx: Vec<ValId>,
    },
    /// Load the element a prior [`Op::ElemAddr`] resolved.
    Load {
        /// The resolved address value.
        addr: ValId,
    },
    /// Store to the element a prior [`Op::ElemAddr`] resolved. No result.
    Store {
        /// The resolved address value.
        addr: ValId,
        /// The value stored.
        val: ValId,
    },
    /// Call a user function.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument values.
        args: Vec<ValId>,
    },
    /// A removed instruction. Never a member of any block; never used.
    Dead,
}

impl Op {
    /// Does this operation define a value?
    pub fn has_result(&self) -> bool {
        !matches!(self, Op::SetSlot(..) | Op::Store { .. } | Op::Dead)
    }

    /// Pure and fault-free: safe to merge (CSE) *and* to speculate (LICM).
    /// `Div`/`Rem` fault on zero divisors and [`Op::ElemAddr`] faults on
    /// bad subscripts, so they are excluded here and handled case-by-case
    /// by the passes.
    pub fn is_speculable(&self) -> bool {
        match self {
            Op::Const(_) | Op::BoolConst(_) | Op::Un(..) | Op::Builtin(..) => true,
            Op::Bin(op, ..) => !matches!(op, BinOp::Div | BinOp::Rem),
            _ => false,
        }
    }

    /// Pure (result depends only on operands, no memory, no observable
    /// side effect), though possibly faulting. Superset of
    /// [`Op::is_speculable`] used by CSE, where the dominating occurrence
    /// already executed.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Op::Const(_)
                | Op::BoolConst(_)
                | Op::Param(_)
                | Op::Un(..)
                | Op::Bin(..)
                | Op::Builtin(..)
                | Op::ElemAddr { .. }
        )
    }

    /// Visit every operand value mutably (phi args included).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut ValId)) {
        match self {
            Op::Const(_) | Op::BoolConst(_) | Op::Param(_) | Op::GetSlot(_) | Op::Dead => {}
            Op::SetSlot(_, v) | Op::Un(_, v) | Op::Load { addr: v } => f(v),
            Op::Bin(_, a, b) => {
                f(a);
                f(b);
            }
            Op::Store { addr, val } => {
                f(addr);
                f(val);
            }
            Op::Phi { args, .. } => args.iter_mut().for_each(f),
            Op::Builtin(_, args) | Op::Call { args, .. } => args.iter_mut().for_each(f),
            Op::ElemAddr { idx, .. } => idx.iter_mut().for_each(f),
        }
    }

    /// The operand values in [`Op::for_each_operand_mut`]'s order (phi
    /// args included), read in place.
    pub fn operands(&self) -> impl Iterator<Item = ValId> + '_ {
        let (fixed, list): ([Option<ValId>; 2], &[ValId]) = match self {
            Op::Const(_) | Op::BoolConst(_) | Op::Param(_) | Op::GetSlot(_) | Op::Dead => {
                ([None, None], &[])
            }
            Op::SetSlot(_, v) | Op::Un(_, v) | Op::Load { addr: v } => ([Some(*v), None], &[]),
            Op::Bin(_, a, b) | Op::Store { addr: a, val: b } => ([Some(*a), Some(*b)], &[]),
            Op::Phi { args, .. }
            | Op::Builtin(_, args)
            | Op::Call { args, .. }
            | Op::ElemAddr { idx: args, .. } => ([None, None], args),
        };
        fixed.into_iter().flatten().chain(list.iter().copied())
    }
}

/// An instruction: operation plus tree-IR provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// The tree-IR instruction this was lowered from (source of line
    /// numbers and the static analyzer's access mapping).
    pub src: InstId,
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way branch on a boolean value.
    Branch {
        /// The condition value.
        cond: ValId,
        /// Successor when true.
        then_bb: BlockId,
        /// Successor when false.
        else_bb: BlockId,
    },
    /// Function return; `None` returns the default `0.0`.
    Ret(Option<ValId>),
}

impl Term {
    /// Successor blocks in edge order.
    pub fn succs(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Term::Jump(b) => (Some(b), None),
            Term::Branch { then_bb, else_bb, .. } => (Some(then_bb), Some(else_bb)),
            Term::Ret(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// A basic block: ordered instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Instruction ids in execution order (phis form a prefix after SSA
    /// promotion).
    pub insts: Vec<ValId>,
    /// The terminator.
    pub term: Term,
    /// Predecessors, in the deterministic order phi arguments follow.
    pub preds: Vec<BlockId>,
}

/// Loop kind captured during lowering.
#[derive(Debug, Clone)]
pub enum CfgLoopKind {
    /// A counted `for` loop.
    For {
        /// The user-visible induction slot.
        user_slot: usize,
        /// The hidden counter slot driving iteration.
        hidden_slot: usize,
        /// Value of the (once-evaluated) start bound.
        start: ValId,
        /// Value of the (once-evaluated) end bound.
        end: ValId,
        /// The hidden counter's header phi, filled by SSA promotion. This
        /// *is* the induction value: `[start, end)` stepping by one.
        ind_phi: Option<ValId>,
    },
    /// A `while` loop.
    While,
}

/// A natural loop, recorded structurally during lowering (the input is a
/// statement tree, so loop extents are known exactly — no back-edge
/// discovery required).
#[derive(Debug, Clone)]
pub struct CfgLoop {
    /// The tree-IR loop id this region was lowered from.
    pub id: LoopId,
    /// Dedicated preheader: the unique forward predecessor of `header`,
    /// where LICM parks hoisted instructions.
    pub preheader: BlockId,
    /// Loop header (condition evaluation starts here; back edges land
    /// here).
    pub header: BlockId,
    /// The block holding the back edge, if the body can fall through.
    pub latch: Option<BlockId>,
    /// The loop exit join block.
    pub exit: BlockId,
    /// Every block of the loop, nested loops included (header region and
    /// latch included; preheader and exit excluded).
    pub blocks: Vec<BlockId>,
    /// Enclosing loop's index in [`SsaFunc::loops`], if any.
    pub parent: Option<usize>,
    /// Loop kind + induction info.
    pub kind: CfgLoopKind,
}

/// A function lowered to CFG (and, after [`crate::promote_to_ssa`], SSA)
/// form.
#[derive(Debug, Clone)]
pub struct SsaFunc {
    /// The tree-IR function id.
    pub func: FuncId,
    /// Function name (diagnostics).
    pub name: String,
    /// Declaration line.
    pub line: u32,
    /// Parameter count (parameters occupy the first slots).
    pub n_params: usize,
    /// Slot count of the tree function (user-visible slots).
    pub n_user_slots: usize,
    /// Total slots including hidden loop counters and short-circuit temps.
    pub n_slots: usize,
    /// All instructions, indexed by [`ValId`].
    pub insts: Vec<Inst>,
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Structural loop table, outermost first.
    pub loops: Vec<CfgLoop>,
    /// Has SSA promotion run (no `GetSlot`/`SetSlot` remain, phis placed)?
    pub in_ssa: bool,
}

/// A whole program in CFG/SSA form. Functions are indexed by the tree
/// [`FuncId`], exactly like [`IrProgram::functions`].
#[derive(Debug, Clone)]
pub struct SsaProgram {
    /// One lowered function per tree function, in id order.
    pub funcs: Vec<SsaFunc>,
}

impl SsaFunc {
    /// Lower one tree function into (pre-SSA) CFG form.
    pub fn build(ir: &IrProgram, func: FuncId) -> SsaFunc {
        Builder::lower(ir, &ir.functions[func])
    }

    /// The instruction defining `v`.
    pub fn inst(&self, v: ValId) -> &Inst {
        &self.insts[v as usize]
    }

    /// Append an instruction to a block, returning its value id.
    pub fn push_inst(&mut self, block: BlockId, op: Op, src: InstId) -> ValId {
        let v = self.insts.len() as ValId;
        self.insts.push(Inst { op, src });
        self.blocks[block].insts.push(v);
        v
    }

    /// The block each instruction lives in (`None` for dead instructions).
    pub fn block_of_insts(&self) -> Vec<Option<BlockId>> {
        let mut owner = vec![None; self.insts.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for &v in &blk.insts {
                owner[v as usize] = Some(b);
            }
        }
        owner
    }
}

/// Lowering context for one function.
struct Builder<'a> {
    ir: &'a IrProgram,
    f: SsaFunc,
    cur: BlockId,
    /// Stack of in-progress loops: (index into `f.loops`, exit block).
    loop_stack: Vec<(usize, BlockId)>,
    /// `true` once the current block has been sealed by `break`/`return`;
    /// remaining statements in the source block are unreachable and are
    /// not lowered (the tree interpreter never executes them either).
    terminated: bool,
}

impl<'a> Builder<'a> {
    fn lower(ir: &'a IrProgram, func: &IrFunction) -> SsaFunc {
        let mut b = Builder {
            ir,
            f: SsaFunc {
                func: func.id,
                name: func.name.clone(),
                line: func.line,
                n_params: func.n_params,
                n_user_slots: func.n_slots,
                n_slots: func.n_slots,
                insts: Vec::new(),
                blocks: vec![Block { insts: Vec::new(), term: Term::Ret(None), preds: Vec::new() }],
                loops: Vec::new(),
                in_ssa: false,
            },
            cur: 0,
            loop_stack: Vec::new(),
            terminated: false,
        };
        b.stmts(&func.body);
        if !b.terminated {
            b.f.blocks[b.cur].term = Term::Ret(None);
        }
        b.finalize()
    }

    fn fresh_slot(&mut self) -> usize {
        let s = self.f.n_slots;
        self.f.n_slots += 1;
        s
    }

    fn new_block(&mut self) -> BlockId {
        let id = self.f.blocks.len();
        self.f.blocks.push(Block { insts: Vec::new(), term: Term::Ret(None), preds: Vec::new() });
        // Register the block with every loop currently open.
        for &(li, _) in &self.loop_stack {
            self.f.loops[li].blocks.push(id);
        }
        id
    }

    fn emit(&mut self, op: Op, src: InstId) -> ValId {
        let cur = self.cur;
        self.f.push_inst(cur, op, src)
    }

    fn seal(&mut self, term: Term) {
        self.f.blocks[self.cur].term = term;
    }

    fn stmts(&mut self, body: &[IrStmt]) {
        for s in body {
            if self.terminated {
                return;
            }
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &IrStmt) {
        match s {
            IrStmt::StoreLocal { slot, value, inst } => {
                let v = self.expr(value);
                self.emit(Op::SetSlot(*slot, v), *inst);
            }
            IrStmt::StoreIndex { array, indices, value, inst } => {
                // Address first (fault ordering), then the stored value.
                let idx: Vec<ValId> = indices.iter().map(|e| self.expr(e)).collect();
                let addr = self.emit(Op::ElemAddr { array: *array, idx }, *inst);
                let v = self.expr(value);
                self.emit(Op::Store { addr, val: v }, *inst);
            }
            IrStmt::Loop { id, kind, body, inst } => self.lower_loop(*id, kind, body, *inst),
            IrStmt::If { cond, then_body, else_body, inst: _ } => {
                let c = self.expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                self.seal(Term::Branch { cond: c, then_bb, else_bb });

                self.cur = then_bb;
                self.terminated = false;
                self.stmts(then_body);
                let then_end = (!self.terminated).then_some(self.cur);

                self.cur = else_bb;
                self.terminated = false;
                self.stmts(else_body);
                let else_end = (!self.terminated).then_some(self.cur);

                match (then_end, else_end) {
                    (None, None) => self.terminated = true,
                    _ => {
                        let join = self.new_block();
                        if let Some(t) = then_end {
                            self.f.blocks[t].term = Term::Jump(join);
                        }
                        if let Some(e) = else_end {
                            self.f.blocks[e].term = Term::Jump(join);
                        }
                        self.cur = join;
                        self.terminated = false;
                    }
                }
            }
            IrStmt::Return { value, inst: _ } => {
                let v = value.as_ref().map(|e| self.expr(e));
                self.seal(Term::Ret(v));
                self.terminated = true;
            }
            IrStmt::Break { inst: _ } => {
                let &(_, exit) = self.loop_stack.last().expect("break inside a loop");
                self.seal(Term::Jump(exit));
                self.terminated = true;
            }
            IrStmt::ExprStmt { expr, inst: _ } => {
                self.expr(expr);
            }
        }
    }

    fn lower_loop(&mut self, id: LoopId, kind: &LoopKind, body: &[IrStmt], inst: InstId) {
        match kind {
            LoopKind::For { slot, start, end } => {
                // Bounds are evaluated once, outside the loop.
                let vs = self.expr(start);
                let ve = self.expr(end);
                let hidden = self.fresh_slot();
                self.emit(Op::SetSlot(hidden, vs), inst);

                let preheader = self.new_block();
                self.seal(Term::Jump(preheader));

                let li = self.f.loops.len();
                self.f.loops.push(CfgLoop {
                    id,
                    preheader,
                    header: 0, // patched below
                    latch: None,
                    exit: 0, // patched below
                    blocks: Vec::new(),
                    parent: self.loop_stack.last().map(|&(p, _)| p),
                    kind: CfgLoopKind::For {
                        user_slot: *slot,
                        hidden_slot: hidden,
                        start: vs,
                        end: ve,
                        ind_phi: None,
                    },
                });

                // Exit is created outside the loop region.
                let exit = self.new_block();
                self.loop_stack.push((li, exit));
                let header = self.new_block();
                self.f.loops[li].header = header;
                self.f.loops[li].exit = exit;
                self.f.blocks[preheader].term = Term::Jump(header);

                self.cur = header;
                let ih = self.emit(Op::GetSlot(hidden), inst);
                let cond = self.emit(Op::Bin(BinOp::Lt, ih, ve), inst);
                let body_bb = self.new_block();
                self.seal(Term::Branch { cond, then_bb: body_bb, else_bb: exit });

                self.cur = body_bb;
                self.terminated = false;
                // Refresh the user-visible induction slot from the hidden
                // counter: body writes to it must not survive into the
                // next iteration (tree-interpreter semantics).
                let cur_i = self.emit(Op::GetSlot(hidden), inst);
                self.emit(Op::SetSlot(*slot, cur_i), inst);
                self.stmts(body);

                if !self.terminated {
                    let latch = self.new_block();
                    self.seal(Term::Jump(latch));
                    self.cur = latch;
                    let iv = self.emit(Op::GetSlot(hidden), inst);
                    let one = self.emit(Op::Const(1.0), inst);
                    let next = self.emit(Op::Bin(BinOp::Add, iv, one), inst);
                    self.emit(Op::SetSlot(hidden, next), inst);
                    self.seal(Term::Jump(header));
                    self.f.loops[li].latch = Some(latch);
                }

                self.loop_stack.pop();
                self.cur = exit;
                self.terminated = false;
            }
            LoopKind::While { cond } => {
                let preheader = self.new_block();
                self.seal(Term::Jump(preheader));

                let li = self.f.loops.len();
                self.f.loops.push(CfgLoop {
                    id,
                    preheader,
                    header: 0,
                    latch: None,
                    exit: 0,
                    blocks: Vec::new(),
                    parent: self.loop_stack.last().map(|&(p, _)| p),
                    kind: CfgLoopKind::While,
                });

                let exit = self.new_block();
                self.loop_stack.push((li, exit));
                // The condition re-evaluates every iteration, so it lives
                // *inside* the loop: the header region may span several
                // blocks when the condition short-circuits.
                let header = self.new_block();
                self.f.loops[li].header = header;
                self.f.loops[li].exit = exit;
                self.f.blocks[preheader].term = Term::Jump(header);

                self.cur = header;
                self.terminated = false;
                let c = self.expr(cond);
                let body_bb = self.new_block();
                self.seal(Term::Branch { cond: c, then_bb: body_bb, else_bb: exit });

                self.cur = body_bb;
                self.stmts(body);
                if !self.terminated {
                    let latch = self.cur;
                    self.seal(Term::Jump(header));
                    self.f.loops[li].latch = Some(latch);
                }

                self.loop_stack.pop();
                self.cur = exit;
                self.terminated = false;
            }
        }
    }

    fn expr(&mut self, e: &IrExpr) -> ValId {
        match e {
            IrExpr::Const { value, inst } => self.emit(Op::Const(*value), *inst),
            IrExpr::Bool { value, inst } => self.emit(Op::BoolConst(*value), *inst),
            IrExpr::LoadLocal { slot, inst } => self.emit(Op::GetSlot(*slot), *inst),
            IrExpr::LoadIndex { array, indices, inst } => {
                let idx: Vec<ValId> = indices.iter().map(|ix| self.expr(ix)).collect();
                let addr = self.emit(Op::ElemAddr { array: *array, idx }, *inst);
                self.emit(Op::Load { addr }, *inst)
            }
            IrExpr::CallFn { func, args, inst } => {
                let vals: Vec<ValId> = args.iter().map(|a| self.expr(a)).collect();
                self.emit(Op::Call { func: *func, args: vals }, *inst)
            }
            IrExpr::CallBuiltin { builtin, args, inst } => {
                let vals: Vec<ValId> = args.iter().map(|a| self.expr(a)).collect();
                self.emit(Op::Builtin(*builtin, vals), *inst)
            }
            IrExpr::Unary { op, operand, inst } => {
                let v = self.expr(operand);
                self.emit(Op::Un(*op, v), *inst)
            }
            IrExpr::Binary { op, lhs, rhs, inst } if matches!(op, BinOp::And | BinOp::Or) => {
                // Short-circuit: control flow through a synthetic temp slot.
                let l = self.expr(lhs);
                let t = self.fresh_slot();
                let rhs_bb = self.new_block();
                let short_bb = self.new_block();
                let join = self.new_block();
                let (then_bb, else_bb) = match op {
                    BinOp::And => (rhs_bb, short_bb),
                    _ => (short_bb, rhs_bb),
                };
                self.seal(Term::Branch { cond: l, then_bb, else_bb });

                self.cur = rhs_bb;
                let r = self.expr(rhs);
                self.emit(Op::SetSlot(t, r), *inst);
                self.seal(Term::Jump(join));

                self.cur = short_bb;
                self.emit(Op::SetSlot(t, l), *inst);
                self.seal(Term::Jump(join));

                self.cur = join;
                self.emit(Op::GetSlot(t), *inst)
            }
            IrExpr::Binary { op, lhs, rhs, inst } => {
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                self.emit(Op::Bin(*op, l, r), *inst)
            }
        }
    }

    /// Prune unreachable blocks, renumber, and compute predecessor lists.
    fn finalize(mut self) -> SsaFunc {
        let n = self.f.blocks.len();
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reachable[b], true) {
                continue;
            }
            for s in self.f.blocks[b].term.succs() {
                if !reachable[s] {
                    stack.push(s);
                }
            }
        }
        let mut remap = vec![usize::MAX; n];
        let mut kept = 0usize;
        for (b, &r) in reachable.iter().enumerate() {
            if r {
                remap[b] = kept;
                kept += 1;
            }
        }
        let old_blocks = std::mem::take(&mut self.f.blocks);
        let mut blocks: Vec<Block> = Vec::with_capacity(kept);
        for (b, mut blk) in old_blocks.into_iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            match &mut blk.term {
                Term::Jump(t) => *t = remap[*t],
                Term::Branch { then_bb, else_bb, .. } => {
                    *then_bb = remap[*then_bb];
                    *else_bb = remap[*else_bb];
                }
                Term::Ret(_) => {}
            }
            blocks.push(blk);
        }
        // Predecessors in deterministic (block, edge) order.
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); kept];
        for (b, blk) in blocks.iter().enumerate() {
            for s in blk.term.succs() {
                preds[s].push(b);
            }
        }
        for (b, p) in preds.into_iter().enumerate() {
            blocks[b].preds = p;
        }
        self.f.blocks = blocks;

        // Remap the loop table; drop loops whose header died (unreachable
        // loop bodies — e.g. code after an unconditional `return`).
        let mut loops = std::mem::take(&mut self.f.loops);
        loops.retain(|l| reachable[l.header]);
        for l in &mut loops {
            l.preheader = remap[l.preheader];
            l.header = remap[l.header];
            l.exit = remap[l.exit];
            l.latch = l.latch.and_then(|b| reachable[b].then(|| remap[b]));
            l.blocks.retain(|&b| reachable[b]);
            for b in &mut l.blocks {
                *b = remap[*b];
            }
        }
        // Parent indices survive only if the parent survived; recompute by
        // header containment (cheap, loops are few).
        let old = loops.clone();
        for l in &mut loops {
            l.parent = old
                .iter()
                .enumerate()
                .filter(|(_, p)| p.id != l.id && p.blocks.contains(&l.header))
                .map(|(i, _)| i)
                .next_back();
        }
        self.f.loops = loops;
        let _ = self.ir;
        self.f
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use parpat_minilang::parse_checked;

    fn build(src: &str) -> (IrProgram, SsaFunc) {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let f = ir.entry.unwrap();
        let func = SsaFunc::build(&ir, f);
        (ir, func)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (_, f) = build("fn main() { let x = 1; let y = x + 2; return y; }");
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Term::Ret(Some(_))));
    }

    #[test]
    fn if_produces_diamond() {
        let (_, f) =
            build("fn main() { let x = 1; if x > 0 { x = 2; } else { x = 3; } return x; }");
        // entry, then, else, join.
        assert_eq!(f.blocks.len(), 4);
        let joins = f.blocks.iter().filter(|b| b.preds.len() == 2).count();
        assert_eq!(joins, 1);
    }

    #[test]
    fn for_loop_shape_has_preheader_header_body_latch_exit() {
        let (_, f) = build("global a[8]; fn main() { for i in 0..8 { a[i] = i; } }");
        assert_eq!(f.loops.len(), 1);
        let l = &f.loops[0];
        // Preheader jumps to header; header branches body/exit; latch jumps
        // back to header.
        assert_eq!(f.blocks[l.preheader].term, Term::Jump(l.header));
        assert!(matches!(f.blocks[l.header].term, Term::Branch { .. }));
        assert_eq!(f.blocks[l.latch.unwrap()].term, Term::Jump(l.header));
        assert!(l.blocks.contains(&l.header));
        assert!(!l.blocks.contains(&l.preheader));
        assert!(!l.blocks.contains(&l.exit));
    }

    #[test]
    fn hidden_counter_slot_is_allocated() {
        let (ir, f) = build("fn main() { for i in 0..4 { let x = i; } }");
        let tree_slots = ir.functions[f.func].n_slots;
        assert_eq!(f.n_user_slots, tree_slots);
        assert!(f.n_slots > tree_slots, "for loop must allocate a hidden counter");
    }

    #[test]
    fn nested_loops_record_parents() {
        let (_, f) =
            build("global m[4][4]; fn main() { for i in 0..4 { for j in 0..4 { m[i][j] = 0; } } }");
        assert_eq!(f.loops.len(), 2);
        assert_eq!(f.loops[0].parent, None);
        assert_eq!(f.loops[1].parent, Some(0));
        // The inner loop's blocks are a subset of the outer's.
        for b in &f.loops[1].blocks {
            assert!(f.loops[0].blocks.contains(b));
        }
        assert!(f.loops[0].blocks.contains(&f.loops[1].preheader));
    }

    #[test]
    fn short_circuit_lowers_to_control_flow() {
        let (_, f) = build("fn main() { let a = 1; if a > 0 && a < 5 { a = 2; } return a; }");
        assert!(
            !f.insts
                .iter()
                .any(|i| matches!(i.op, Op::Bin(BinOp::And, ..) | Op::Bin(BinOp::Or, ..))),
            "&&/|| must not survive as binary instructions"
        );
        assert!(f.blocks.len() >= 6, "short-circuit creates rhs/short/join blocks");
    }

    #[test]
    fn break_jumps_to_loop_exit() {
        let (_, f) = build("fn main() { while true { break; } return 1; }");
        let l = &f.loops[0];
        assert_eq!(l.latch, None, "unconditional break leaves no back edge");
        assert!(f.blocks.iter().any(|b| matches!(b.term, Term::Jump(t) if t == l.exit)));
    }

    #[test]
    fn unreachable_code_is_pruned() {
        let (_, f) = build("fn main() { return 1; }");
        assert_eq!(f.blocks.len(), 1);
        let (_, g) = build("fn main() { let x = 1; if x > 0 { return 1; } else { return 2; } }");
        // No join block survives: both arms return.
        for b in &g.blocks {
            assert!(!b.preds.is_empty() || std::ptr::eq(b, &g.blocks[0]));
        }
    }

    #[test]
    fn store_address_resolves_before_value() {
        let (_, f) = build("global a[4]; fn main() { a[1] = 2 + 3; }");
        let b = &f.blocks[0];
        let addr_pos =
            b.insts.iter().position(|&v| matches!(f.inst(v).op, Op::ElemAddr { .. })).unwrap();
        let val_pos =
            b.insts.iter().position(|&v| matches!(f.inst(v).op, Op::Bin(BinOp::Add, ..))).unwrap();
        assert!(addr_pos < val_pos, "bounds check precedes value evaluation");
    }
}
