//! The standard pass roster: constant folding, dominator-scoped CSE,
//! copy propagation (trivial-phi elimination), loop-invariant code motion,
//! and value-range analysis.
//!
//! Every transformation here is gated on the same safety rule: it must be
//! impossible to observe a difference through the tree interpreter's
//! semantics, *faults included*. Concretely:
//!
//! - folding never touches `/` or `%` with a zero (or non-constant)
//!   divisor — a fold must not erase a structured runtime error;
//! - LICM speculates only fault-free instructions (no loads, no address
//!   resolution, no division by anything non-constant), because a hoisted
//!   instruction executes even when the loop would have run zero times;
//! - CSE may merge faulting instructions (`ElemAddr`, `Div`) only because
//!   the surviving occurrence dominates the duplicate: on every path the
//!   survivor executes first, so the fault (if any) happens at the same
//!   program point either way.

use crate::cfg::{BlockId, CfgLoopKind, Op, SsaFunc, Term, ValId};
use crate::dom::DomTree;
use crate::pass::Pass;
use parpat_ir::ir::Builtin;
use parpat_minilang::ast::{BinOp, UnOp};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Stable names of the standard roster, in run order.
pub const PASS_NAMES: [&str; 5] = ["const_fold", "cse", "copy_prop", "licm", "range"];

/// The standard roster in run order.
pub fn standard_pipeline() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(ConstFold),
        Box::new(Cse),
        Box::new(CopyProp),
        Box::new(Licm),
        Box::new(RangePass::default()),
    ]
}

/// Follow a replacement map to the surviving value.
fn resolve(replace: &[Option<ValId>], mut v: ValId) -> ValId {
    let mut hops = 0usize;
    while let Some(r) = replace[v as usize] {
        if r == v || hops > replace.len() {
            break;
        }
        v = r;
        hops += 1;
    }
    v
}

/// Rewrite every use in `f` (instruction operands, phi args, terminators,
/// loop metadata) through `replace`, then drop `Op::Dead` instructions from
/// all block lists.
fn apply_replacements(f: &mut SsaFunc, replace: &[Option<ValId>]) {
    let all: Vec<ValId> = f.blocks.iter().flat_map(|b| b.insts.iter().copied()).collect();
    for v in all {
        let vi = v as usize;
        if matches!(f.insts[vi].op, Op::Dead) {
            continue;
        }
        let mut op = std::mem::replace(&mut f.insts[vi].op, Op::Dead);
        op.for_each_operand_mut(|o| *o = resolve(replace, *o));
        f.insts[vi].op = op;
    }
    for blk in &mut f.blocks {
        match &mut blk.term {
            Term::Branch { cond, .. } => *cond = resolve(replace, *cond),
            Term::Ret(Some(v)) => *v = resolve(replace, *v),
            _ => {}
        }
    }
    for l in &mut f.loops {
        if let CfgLoopKind::For { start, end, ind_phi, .. } = &mut l.kind {
            *start = resolve(replace, *start);
            *end = resolve(replace, *end);
            if let Some(p) = ind_phi {
                *p = resolve(replace, *p);
            }
        }
    }
    let (blocks, insts) = (&mut f.blocks, &f.insts);
    for blk in blocks {
        blk.insts.retain(|&v| !matches!(insts[v as usize].op, Op::Dead));
    }
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold instructions whose operands are all literal constants, using the
/// interpreter's own arithmetic so folded results are bit-identical to
/// runtime results. Division and modulo fold only when the divisor is a
/// non-zero constant; a zero divisor stays in the program to fault at
/// runtime exactly as the tree would.
pub struct ConstFold;

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const_fold"
    }

    fn run(&mut self, f: &mut SsaFunc) -> bool {
        let dom = DomTree::build(f);
        let mut changed = false;
        for &b in &dom.rpo {
            for i in 0..f.blocks[b].insts.len() {
                let v = f.blocks[b].insts[i];
                let num = |x: ValId| match f.insts[x as usize].op {
                    Op::Const(c) => Some(c),
                    _ => None,
                };
                let boolean = |x: ValId| match f.insts[x as usize].op {
                    Op::BoolConst(c) => Some(c),
                    _ => None,
                };
                let folded: Option<Op> = match &f.insts[v as usize].op {
                    Op::Un(UnOp::Neg, a) => num(*a).map(|c| Op::Const(-c)),
                    Op::Un(UnOp::Not, a) => boolean(*a).map(|c| Op::BoolConst(!c)),
                    Op::Bin(op, a, b) => match (num(*a), num(*b)) {
                        (Some(l), Some(r)) => match op {
                            BinOp::Add => Some(Op::Const(l + r)),
                            BinOp::Sub => Some(Op::Const(l - r)),
                            BinOp::Mul => Some(Op::Const(l * r)),
                            // A zero divisor must fault at runtime, not
                            // vanish into a folded constant.
                            BinOp::Div if r != 0.0 => Some(Op::Const(l / r)),
                            BinOp::Rem if r != 0.0 => Some(Op::Const(l.rem_euclid(r))),
                            BinOp::Div | BinOp::Rem => None,
                            BinOp::Eq => Some(Op::BoolConst(l == r)),
                            BinOp::Ne => Some(Op::BoolConst(l != r)),
                            BinOp::Lt => Some(Op::BoolConst(l < r)),
                            BinOp::Le => Some(Op::BoolConst(l <= r)),
                            BinOp::Gt => Some(Op::BoolConst(l > r)),
                            BinOp::Ge => Some(Op::BoolConst(l >= r)),
                            BinOp::And | BinOp::Or => None,
                        },
                        _ => None,
                    },
                    Op::Builtin(bi, args) => {
                        let vals: Option<Vec<f64>> = args.iter().map(|&x| num(x)).collect();
                        vals.map(|xs| Op::Const(bi.eval(&xs)))
                    }
                    _ => None,
                };
                if let Some(op) = folded {
                    f.insts[v as usize].op = op;
                    changed = true;
                }
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Common subexpression elimination (dominator-scoped value numbering)
// ---------------------------------------------------------------------------

/// Hashable identity of a pure instruction. Constants hash by bit pattern
/// (`0.0` and `-0.0` stay distinct), and no commutative canonicalization is
/// attempted: only syntactically identical computations merge, which keeps
/// results bit-identical under IEEE semantics.
#[derive(Hash, PartialEq, Eq)]
enum Key {
    C(u64),
    B(bool),
    P(usize),
    U(u8, ValId),
    Bi(u8, ValId, ValId),
    F(u8, Vec<ValId>),
    E(usize, Vec<ValId>),
}

fn key_of(op: &Op) -> Option<Key> {
    if !op.is_pure() {
        return None;
    }
    Some(match op {
        Op::Const(c) => Key::C(c.to_bits()),
        Op::BoolConst(b) => Key::B(*b),
        Op::Param(k) => Key::P(*k),
        Op::Un(u, a) => Key::U(*u as u8, *a),
        Op::Bin(b, x, y) => Key::Bi(*b as u8, *x, *y),
        Op::Builtin(bi, args) => Key::F(*bi as u8, args.clone()),
        Op::ElemAddr { array, idx } => Key::E(*array, idx.clone()),
        _ => return None,
    })
}

/// Merge identical pure computations when one dominates the other. This is
/// also what makes the symbolic dependence path in `parpat-static` work:
/// two loops bounded by the same `0..n` end up *sharing* the bound values,
/// so "same iteration space" becomes a `ValId` comparison.
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, f: &mut SsaFunc) -> bool {
        let children = DomTree::build(f).children();
        let mut replace: Vec<Option<ValId>> = vec![None; f.insts.len()];
        // Each key's latest computation and its block. The computation is
        // available while its block is open, on the preorder path and so
        // dominating the block being walked; a key whose block has closed
        // is overwritten by the next computation of it.
        let mut map: HashMap<Key, (ValId, BlockId)> = HashMap::new();
        let mut open = vec![false; f.blocks.len()];
        let mut changed = false;
        // Preorder over the dominator tree: (block, next child).
        let mut frames: Vec<(BlockId, usize)> = vec![(0, 0)];
        while let Some(frame) = frames.last_mut() {
            let (b, next) = *frame;
            if next == 0 {
                open[b] = true;
                for i in 0..f.blocks[b].insts.len() {
                    let v = f.blocks[b].insts[i];
                    let vi = v as usize;
                    if matches!(f.insts[vi].op, Op::Phi { .. }) {
                        continue; // back-edge args resolve in the final sweep
                    }
                    let mut op = std::mem::replace(&mut f.insts[vi].op, Op::Dead);
                    op.for_each_operand_mut(|o| *o = resolve(&replace, *o));
                    if let Some(key) = key_of(&op) {
                        match map.entry(key) {
                            Entry::Occupied(e) if open[e.get().1] => {
                                replace[vi] = Some(e.get().0);
                                changed = true;
                                continue; // op stays Dead; dropped in the sweep
                            }
                            entry => *entry.or_insert((v, b)) = (v, b),
                        }
                    }
                    f.insts[vi].op = op;
                }
            }
            if let Some(&c) = children[b].get(next) {
                frame.1 += 1;
                frames.push((c, 0));
            } else {
                open[b] = false;
                frames.pop();
            }
        }
        if changed {
            apply_replacements(f, &replace);
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Copy propagation (trivial-phi elimination)
// ---------------------------------------------------------------------------

/// Remove phis that merge a single distinct value (`phi(x, x)` or
/// `phi(x, self)`), replacing every use with that value. Cascades until no
/// trivial phi remains — promotion places phis pessimistically, so this is
/// the pass that cleans up straight-line merges.
pub struct CopyProp;

impl Pass for CopyProp {
    fn name(&self) -> &'static str {
        "copy_prop"
    }

    fn run(&mut self, f: &mut SsaFunc) -> bool {
        let mut replace: Vec<Option<ValId>> = vec![None; f.insts.len()];
        let mut changed = false;
        loop {
            let mut round = false;
            for b in 0..f.blocks.len() {
                for &v in &f.blocks[b].insts.clone() {
                    let vi = v as usize;
                    let Op::Phi { args, .. } = &f.insts[vi].op else { continue };
                    let mut distinct: Option<ValId> = None;
                    let mut ok = true;
                    for &a in args {
                        let r = resolve(&replace, a);
                        if r == v {
                            continue; // self-reference
                        }
                        match distinct {
                            None => distinct = Some(r),
                            Some(d) if d == r => {}
                            Some(_) => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        if let Some(d) = distinct {
                            replace[vi] = Some(d);
                            f.insts[vi].op = Op::Dead;
                            changed = true;
                            round = true;
                        }
                    }
                }
            }
            if !round {
                break;
            }
        }
        if changed {
            apply_replacements(f, &replace);
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Loop-invariant code motion
// ---------------------------------------------------------------------------

/// Hoist fault-free instructions whose operands are defined outside the
/// loop into the loop's dedicated preheader. Inner loops are processed
/// first so invariants bubble outward one level per loop. `Div`/`Rem`
/// hoist only with a constant non-zero divisor; memory and address
/// instructions never hoist (a zero-trip loop must not fault or observe).
pub struct Licm;

impl Pass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&mut self, f: &mut SsaFunc) -> bool {
        let mut owner = f.block_of_insts();
        let mut changed = false;
        for li in (0..f.loops.len()).rev() {
            let blocks = f.loops[li].blocks.clone();
            let preheader = f.loops[li].preheader;
            let in_loop: std::collections::HashSet<BlockId> = blocks.iter().copied().collect();
            loop {
                let mut moved = false;
                for &b in &blocks {
                    for &v in &f.blocks[b].insts.clone() {
                        let vi = v as usize;
                        let op = &f.insts[vi].op;
                        let hoistable = op.is_speculable()
                            || matches!(op, Op::Bin(BinOp::Div | BinOp::Rem, _, d)
                                if matches!(f.insts[*d as usize].op, Op::Const(c) if c != 0.0));
                        if !hoistable {
                            continue;
                        }
                        let invariant = f.insts[vi]
                            .op
                            .operands()
                            .all(|o| !owner[o as usize].is_some_and(|ob| in_loop.contains(&ob)));
                        if !invariant {
                            continue;
                        }
                        f.blocks[b].insts.retain(|&x| x != v);
                        f.blocks[preheader].insts.push(v);
                        owner[vi] = Some(preheader);
                        moved = true;
                        changed = true;
                    }
                }
                if !moved {
                    break;
                }
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// Value-range analysis
// ---------------------------------------------------------------------------

/// Integer bounds are only tracked while every value stays within ±2⁵³,
/// the range where `f64` arithmetic on integers is exact — outside it the
/// runtime's floating-point results could drift from `i64` interval
/// arithmetic, so the analysis declines rather than risks an unsound bound.
const EXACT: i64 = 1 << 53;

/// Inclusive integer ranges for SSA values, where provable.
///
/// `for` induction phis get `[start_lo, max(start_hi, end_hi − 1)]` from
/// the loop's once-evaluated bounds; everything else propagates through
/// checked interval arithmetic. `None` means "no claim" — the consumer
/// (Banerjee-style bounds in `parpat-static`) must treat it as unbounded.
#[derive(Debug, Clone)]
pub struct ValueRanges {
    ranges: Vec<Option<(i64, i64)>>,
}

impl ValueRanges {
    /// The provable inclusive range of `v`, if any.
    pub fn get(&self, v: ValId) -> Option<(i64, i64)> {
        self.ranges.get(v as usize).copied().flatten()
    }

    /// Compute ranges for every value of `f` in one reverse-postorder pass.
    /// Loop-carried phis other than `for` induction phis are unbounded.
    pub fn compute(f: &SsaFunc) -> ValueRanges {
        let dom = DomTree::build(f);
        let mut r: Vec<Option<(i64, i64)>> = vec![None; f.insts.len()];
        let ind: HashMap<ValId, (ValId, ValId)> = f
            .loops
            .iter()
            .filter_map(|l| match l.kind {
                CfgLoopKind::For { ind_phi: Some(p), start, end, .. } => Some((p, (start, end))),
                _ => None,
            })
            .collect();
        let clamp = |lo: i64, hi: i64| -> Option<(i64, i64)> {
            (lo.abs() <= EXACT && hi.abs() <= EXACT && lo <= hi).then_some((lo, hi))
        };
        for &b in &dom.rpo {
            for &v in &f.blocks[b].insts {
                let vi = v as usize;
                let get = |x: ValId| r[x as usize];
                r[vi] = match &f.insts[vi].op {
                    Op::Const(c) => int_of(*c).map(|i| (i, i)),
                    Op::Phi { .. } if ind.contains_key(&v) => {
                        let (s, e) = ind[&v];
                        match (get(s), get(e)) {
                            (Some((sl, sh)), Some((_, eh))) => eh
                                .checked_sub(1)
                                .map(|top| top.max(sh))
                                .and_then(|hi| clamp(sl, hi)),
                            _ => None,
                        }
                    }
                    Op::Phi { args, .. } => {
                        let mut acc: Option<(i64, i64)> = None;
                        let mut all = true;
                        for &a in args {
                            match get(a) {
                                Some((lo, hi)) => {
                                    acc = Some(match acc {
                                        None => (lo, hi),
                                        Some((l, h)) => (l.min(lo), h.max(hi)),
                                    });
                                }
                                None => {
                                    all = false;
                                    break;
                                }
                            }
                        }
                        if all {
                            acc
                        } else {
                            None
                        }
                    }
                    Op::Un(UnOp::Neg, a) => get(*a).and_then(|(lo, hi)| clamp(-hi, -lo)),
                    Op::Bin(op, a, b) => match (get(*a), get(*b)) {
                        (Some((al, ah)), Some((bl, bh))) => match op {
                            BinOp::Add => al
                                .checked_add(bl)
                                .zip(ah.checked_add(bh))
                                .and_then(|(lo, hi)| clamp(lo, hi)),
                            BinOp::Sub => al
                                .checked_sub(bh)
                                .zip(ah.checked_sub(bl))
                                .and_then(|(lo, hi)| clamp(lo, hi)),
                            BinOp::Mul => {
                                let corners = [
                                    al.checked_mul(bl),
                                    al.checked_mul(bh),
                                    ah.checked_mul(bl),
                                    ah.checked_mul(bh),
                                ];
                                let mut lo = i64::MAX;
                                let mut hi = i64::MIN;
                                let mut ok = true;
                                for c in corners {
                                    match c {
                                        Some(x) => {
                                            lo = lo.min(x);
                                            hi = hi.max(x);
                                        }
                                        None => {
                                            ok = false;
                                            break;
                                        }
                                    }
                                }
                                if ok {
                                    clamp(lo, hi)
                                } else {
                                    None
                                }
                            }
                            _ => None,
                        },
                        _ => None,
                    },
                    Op::Builtin(Builtin::Floor, args) => args.first().and_then(|&a| get(a)),
                    Op::Builtin(Builtin::Abs, args) => {
                        args.first().and_then(|&a| get(a)).and_then(|(lo, hi)| {
                            if lo >= 0 {
                                Some((lo, hi))
                            } else if hi <= 0 {
                                clamp(-hi, -lo)
                            } else {
                                clamp(0, (-lo).max(hi))
                            }
                        })
                    }
                    Op::Builtin(Builtin::Min, args) => match (args.first(), args.get(1)) {
                        (Some(&a), Some(&b)) => match (get(a), get(b)) {
                            (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.min(bh))),
                            _ => None,
                        },
                        _ => None,
                    },
                    Op::Builtin(Builtin::Max, args) => match (args.first(), args.get(1)) {
                        (Some(&a), Some(&b)) => match (get(a), get(b)) {
                            (Some((al, ah)), Some((bl, bh))) => Some((al.max(bl), ah.max(bh))),
                            _ => None,
                        },
                        _ => None,
                    },
                    _ => None,
                };
            }
        }
        ValueRanges { ranges: r }
    }
}

fn int_of(c: f64) -> Option<i64> {
    (c.fract() == 0.0 && c.abs() <= EXACT as f64).then_some(c as i64)
}

/// The roster's analysis pass: computes [`ValueRanges`] under the pass
/// manager's timer. Transforms nothing; the static analyzer recomputes
/// ranges on demand via [`ValueRanges::compute`].
#[derive(Default)]
pub struct RangePass {
    /// The most recent result, for callers that hold the pass.
    pub last: Option<ValueRanges>,
}

impl Pass for RangePass {
    fn name(&self) -> &'static str {
        "range"
    }

    fn run(&mut self, f: &mut SsaFunc) -> bool {
        self.last = Some(ValueRanges::compute(f));
        false
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::cfg::SsaFunc;
    use crate::ssa::promote_to_ssa;
    use crate::verify::verify_func;
    use parpat_minilang::parse_checked;

    fn ssa(src: &str) -> SsaFunc {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let mut f = SsaFunc::build(&ir, ir.entry.unwrap());
        promote_to_ssa(&mut f);
        f
    }

    fn run_pass(f: &mut SsaFunc, p: &mut dyn Pass) -> bool {
        let changed = p.run(f);
        assert_eq!(verify_func(f), Vec::new(), "verifier after {}", p.name());
        changed
    }

    fn count_ops(f: &SsaFunc, pred: impl Fn(&Op) -> bool) -> usize {
        f.blocks.iter().flat_map(|b| &b.insts).filter(|&&v| pred(&f.inst(v).op)).count()
    }

    #[test]
    fn const_fold_folds_arithmetic_chains() {
        let mut f = ssa("fn main() { return 1 + 2 * 3 - 4; }");
        assert!(run_pass(&mut f, &mut ConstFold));
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Bin(..))), 0);
        assert!(count_ops(&f, |o| matches!(o, Op::Const(c) if *c == 3.0)) > 0);
    }

    #[test]
    fn const_fold_never_folds_zero_divisors() {
        let mut f = ssa("fn main() { return 1 / 0; }");
        assert!(!run_pass(&mut f, &mut ConstFold));
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Bin(BinOp::Div, ..))), 1);
        let mut g = ssa("fn main() { return 7 % (2 - 2); }");
        run_pass(&mut g, &mut ConstFold); // folds 2-2 but must keep the %
        assert_eq!(count_ops(&g, |o| matches!(o, Op::Bin(BinOp::Rem, ..))), 1);
    }

    #[test]
    fn cse_merges_identical_pure_exprs() {
        let mut f = ssa("fn main() { let x = 3; let y = 4; return x * y + x * y; }");
        let before = count_ops(&f, |o| matches!(o, Op::Bin(BinOp::Mul, ..)));
        assert_eq!(before, 2);
        assert!(run_pass(&mut f, &mut Cse));
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Bin(BinOp::Mul, ..))), 1);
    }

    #[test]
    fn cse_does_not_merge_loads() {
        // a[0] is read twice with a store in between; the loads must both
        // survive (memory is not a pure value).
        let mut f = ssa("global a[2]; fn main() { let x = a[0]; a[0] = x + 1; return a[0]; }");
        run_pass(&mut f, &mut Cse);
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Load { .. })), 2);
    }

    #[test]
    fn copy_prop_removes_trivial_phis() {
        // `x = x` creates a join phi whose arguments are the same SSA value
        // on both edges — the canonical trivial phi.
        let mut f = ssa("fn main() { let x = 7; if x > 0 { x = x; } return x; }");
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Phi { .. })), 1);
        assert!(run_pass(&mut f, &mut CopyProp));
        assert_eq!(count_ops(&f, |o| matches!(o, Op::Phi { .. })), 0);
    }

    #[test]
    fn licm_hoists_invariant_multiply() {
        let mut f = ssa(
            "global a[16]; fn main() { let x = 3; let y = 4; for i in 0..16 { a[i] = x * y; } }",
        );
        assert!(run_pass(&mut f, &mut Licm));
        let l = &f.loops[0];
        let mul_in_pre = f.blocks[l.preheader]
            .insts
            .iter()
            .any(|&v| matches!(f.inst(v).op, Op::Bin(BinOp::Mul, ..)));
        assert!(mul_in_pre, "x * y should live in the preheader");
        for &b in &l.blocks {
            assert!(
                !f.blocks[b].insts.iter().any(|&v| matches!(f.inst(v).op, Op::Bin(BinOp::Mul, ..))),
                "no multiply left inside the loop"
            );
        }
    }

    #[test]
    fn licm_never_hoists_faulting_or_memory_ops() {
        // 1/x may fault (x could be 0) and a[0] is memory: neither may move
        // out of a loop that might run zero times.
        let mut f = ssa(
            "global a[4]; fn main() { let x = 0; let n = 0; for i in 0..n { let q = 1 / x; let m = a[0]; } return 1; }",
        );
        run_pass(&mut f, &mut Licm);
        let l = &f.loops[0];
        let pre = &f.blocks[l.preheader].insts;
        assert!(
            !pre.iter().any(|&v| matches!(
                f.inst(v).op,
                Op::Bin(BinOp::Div, ..) | Op::Load { .. } | Op::ElemAddr { .. }
            )),
            "faulting/memory ops must stay in the loop body"
        );
    }

    #[test]
    fn licm_hoists_div_by_nonzero_constant() {
        let mut f = ssa("global a[8]; fn main() { let x = 5; for i in 0..8 { a[i] = x / 2; } }");
        run_pass(&mut f, &mut Licm);
        let l = &f.loops[0];
        assert!(f.blocks[l.preheader]
            .insts
            .iter()
            .any(|&v| matches!(f.inst(v).op, Op::Bin(BinOp::Div, ..))));
    }

    #[test]
    fn ranges_track_induction_and_arithmetic() {
        let f = ssa("global a[8]; fn main() { for i in 0..8 { a[i] = i + 1; } }");
        let r = ValueRanges::compute(&f);
        let CfgLoopKind::For { ind_phi: Some(phi), .. } = f.loops[0].kind else {
            panic!("for loop expected");
        };
        assert_eq!(r.get(phi), Some((0, 7)));
        let add = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find(|&&v| matches!(f.inst(v).op, Op::Bin(BinOp::Add, ..)))
            .copied();
        // The only Add besides the hidden counter increment is i + 1; both
        // have known ranges, so whichever we found must be bounded.
        assert!(r.get(add.unwrap()).is_some());
    }

    #[test]
    fn ranges_decline_past_the_exact_window() {
        let f = ssa("fn main() { return 9007199254740992 * 9007199254740992; }");
        let r = ValueRanges::compute(&f);
        for blk in &f.blocks {
            for &v in &blk.insts {
                if matches!(f.inst(v).op, Op::Bin(BinOp::Mul, ..)) {
                    assert_eq!(r.get(v), None, "2^53 * 2^53 must not claim a range");
                }
            }
        }
    }

    #[test]
    fn full_roster_is_differential_safe_on_a_tricky_program() {
        // Induction-variable writes + short-circuit + break + nested loops.
        let src = "global a[6]; fn main() { let s = 0; for i in 0..6 { if i > 2 && s < 40 { s = s + i * 2; } a[i] = s; i = 99; } return s; }";
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let (prog, _) = crate::build_optimized(&ir).unwrap();
        let cap = crate::exec::run_ssa(
            &ir,
            &prog,
            ir.entry.unwrap(),
            &[],
            crate::exec::SsaLimits::default(),
        )
        .unwrap();
        let tree = parpat_ir::run_function_captured(
            &ir,
            ir.entry.unwrap(),
            &[],
            &mut parpat_ir::event::NullObserver,
            parpat_ir::ExecLimits::default(),
            None,
        )
        .unwrap();
        assert_eq!(cap.return_value, tree.outcome.return_value);
        assert_eq!(cap.globals, tree.globals);
    }
}
