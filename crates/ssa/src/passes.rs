//! The standard pass roster: dominator-scoped CSE, then loop-invariant code
//! motion.
//!
//! The roster exists for the symbolic dependence tests in `parpat-static`,
//! and a pass stays in it only while it changes what they prove. CSE makes
//! sibling loops over the same bounds share their bound values, so equal
//! bounds are equal `ValId`s; LICM hoists an inner loop's constant bounds
//! out of the outer loop, so they read as invariant there.
//! `crates/static/tests/roster.rs` fails when the roster without any one of
//! its passes proves as much as the full roster.
//!
//! Every transformation here is gated on the same safety rule: it must be
//! impossible to observe a difference through the tree interpreter's
//! semantics, *faults included*. Concretely:
//!
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
use parpat_minilang::ast::BinOp;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Stable names of the standard roster, in run order.
pub const PASS_NAMES: [&str; 2] = ["cse", "licm"];

/// The standard roster in run order.
pub fn standard_pipeline() -> Vec<Box<dyn Pass>> {
    vec![Box::new(Cse), Box::new(Licm)]
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
