//! SSA promotion: phi placement on iterated dominance frontiers followed
//! by stack-based renaming over the dominator tree.
//!
//! Every scalar slot — user locals, parameters, hidden loop counters and
//! short-circuit temps — is promoted. After promotion no `GetSlot` or
//! `SetSlot` instructions remain; parameters surface as [`Op::Param`] and
//! every other slot is seeded with a shared `Const(0.0)` in the entry block
//! (the interpreter zero-initializes locals, so the seed is the semantics,
//! not a placeholder).

use crate::cfg::{CfgLoopKind, Op, SsaFunc, ValId};
use crate::dom::DomTree;

/// Sentinel for phi arguments not yet filled by renaming.
const UNFILLED: ValId = ValId::MAX;

/// Promote all scalar slots of `f` to SSA form. Idempotent in effect but
/// asserts it runs on a freshly lowered (non-SSA) function.
pub fn promote_to_ssa(f: &mut SsaFunc) {
    assert!(!f.in_ssa, "promote_to_ssa on an already promoted function");
    let dom = DomTree::build(f);
    let n_blocks = f.blocks.len();
    let n_slots = f.n_slots;

    // The entry seeds every slot: parameters as Param(k), the rest as one
    // shared zero constant.
    let src = f.blocks[0].insts.first().map(|&v| f.inst(v).src).unwrap_or(0);
    let mut seed_vals: Vec<ValId> = Vec::with_capacity(n_slots);
    let mut seeds: Vec<ValId> = Vec::new();
    let mut zero: Option<ValId> = None;
    for s in 0..n_slots {
        if s < f.n_params {
            let v = f.insts.len() as ValId;
            f.insts.push(crate::cfg::Inst { op: Op::Param(s), src });
            seeds.push(v);
            seed_vals.push(v);
        } else {
            let z = *zero.get_or_insert_with(|| {
                let v = f.insts.len() as ValId;
                f.insts.push(crate::cfg::Inst { op: Op::Const(0.0), src });
                seeds.push(v);
                v
            });
            seed_vals.push(z);
        }
    }
    f.blocks[0].insts.splice(0..0, seeds);

    // Definition sites per slot (entry defines everything via the seeds).
    let mut def_blocks: Vec<Vec<usize>> = vec![vec![0]; n_slots];
    for (b, blk) in f.blocks.iter().enumerate() {
        for &v in &blk.insts {
            if let Op::SetSlot(s, _) = f.insts[v as usize].op {
                if def_blocks[s].last() != Some(&b) {
                    def_blocks[s].push(b);
                }
            }
        }
    }

    // Phi placement on the iterated dominance frontier of each slot's defs.
    // One pair of per-block marks serves every slot: `has_phi[d] == s`
    // means slot `s` has its phi in `d`, `is_def[d] == s` that `d` defines
    // `s` (originally or through that phi).
    let frontier = dom.frontiers(f);
    let mut phis_of_block: Vec<Vec<ValId>> = vec![Vec::new(); n_blocks];
    let mut has_phi = vec![usize::MAX; n_blocks];
    let mut is_def = vec![usize::MAX; n_blocks];
    let mut work: Vec<usize> = Vec::new();
    for (s, defs) in def_blocks.iter().enumerate() {
        for &b in defs {
            is_def[b] = s;
        }
        work.extend_from_slice(defs);
        while let Some(b) = work.pop() {
            for &d in &frontier[b] {
                if has_phi[d] == s {
                    continue;
                }
                has_phi[d] = s;
                let v = f.insts.len() as ValId;
                f.insts.push(crate::cfg::Inst {
                    op: Op::Phi { slot: s, args: vec![UNFILLED; f.blocks[d].preds.len()] },
                    src,
                });
                phis_of_block[d].push(v);
                if is_def[d] != s {
                    is_def[d] = s;
                    work.push(d);
                }
            }
        }
    }
    for (b, phis) in phis_of_block.into_iter().enumerate() {
        f.blocks[b].insts.splice(0..0, phis);
    }

    // Renaming: dominator-tree preorder with per-slot value stacks. Every
    // push is logged in `pushed`; a block's frame pops back to its mark.
    let children = dom.children();
    let mut stacks: Vec<Vec<ValId>> = seed_vals.into_iter().map(|v| vec![v]).collect();
    let mut replace: Vec<Option<ValId>> = vec![None; f.insts.len()];
    let mut dead = vec![false; f.insts.len()];
    let mut pushed: Vec<usize> = Vec::new();
    // (block, next child index, length of `pushed` on entry)
    let mut frames: Vec<(usize, usize, usize)> = vec![(0, 0, 0)];
    let mut entered = vec![false; n_blocks];
    while let Some(frame) = frames.last_mut() {
        let b = frame.0;
        if !std::mem::replace(&mut entered[b], true) {
            for &v in &f.blocks[b].insts {
                let vi = v as usize;
                let mut op = std::mem::replace(&mut f.insts[vi].op, Op::Dead);
                if !matches!(op, Op::Phi { .. }) {
                    op.for_each_operand_mut(|o| {
                        if let Some(r) = replace[*o as usize] {
                            *o = r;
                        }
                    });
                }
                match op {
                    Op::Phi { slot, .. } => {
                        stacks[slot].push(v);
                        pushed.push(slot);
                        f.insts[vi].op = op;
                    }
                    Op::GetSlot(s) => {
                        let cur = *stacks[s].last().expect("slot stack never empty");
                        replace[vi] = Some(cur);
                        dead[vi] = true;
                    }
                    Op::SetSlot(s, x) => {
                        stacks[s].push(x);
                        pushed.push(s);
                        dead[vi] = true;
                    }
                    _ => f.insts[vi].op = op,
                }
            }
            if let crate::cfg::Term::Branch { cond, .. } = &mut f.blocks[b].term {
                if let Some(r) = replace[*cond as usize] {
                    *cond = r;
                }
            }
            if let crate::cfg::Term::Ret(Some(v)) = &mut f.blocks[b].term {
                if let Some(r) = replace[*v as usize] {
                    *v = r;
                }
            }
            // Fill phi arguments in successors.
            for succ in f.blocks[b].term.succs() {
                let succ_blk = &f.blocks[succ];
                for &v in &succ_blk.insts {
                    if let Op::Phi { slot, args } = &mut f.insts[v as usize].op {
                        let top = *stacks[*slot].last().expect("slot stack never empty");
                        for (arg, &p) in args.iter_mut().zip(&succ_blk.preds) {
                            if p == b {
                                *arg = top;
                            }
                        }
                    }
                }
            }
        }
        if let Some(&c) = children[b].get(frame.1) {
            frame.1 += 1;
            frames.push((c, 0, pushed.len()));
        } else {
            for s in pushed.drain(frame.2..).rev() {
                stacks[s].pop();
            }
            frames.pop();
        }
    }

    // Drop the dead Get/SetSlot shells from the block lists.
    for blk in &mut f.blocks {
        blk.insts.retain(|&v| !dead[v as usize]);
    }

    // Loop metadata: resolve once-evaluated bounds through the rename map
    // and locate each `for` loop's induction phi (the hidden counter's
    // header phi).
    for li in 0..f.loops.len() {
        let header = f.loops[li].header;
        if let CfgLoopKind::For { hidden_slot, start, end, ind_phi, .. } = &mut f.loops[li].kind {
            if let Some(r) = replace[*start as usize] {
                *start = r;
            }
            if let Some(r) = replace[*end as usize] {
                *end = r;
            }
            let hs = *hidden_slot;
            *ind_phi =
                f.blocks[header].insts.iter().copied().find(
                    |&v| matches!(f.insts[v as usize].op, Op::Phi { slot, .. } if slot == hs),
                );
        }
    }

    f.in_ssa = true;
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::cfg::{SsaFunc, Term};
    use parpat_minilang::parse_checked;

    fn ssa(src: &str) -> SsaFunc {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let mut f = SsaFunc::build(&ir, ir.entry.unwrap());
        promote_to_ssa(&mut f);
        f
    }

    fn live_ops(f: &SsaFunc) -> Vec<&Op> {
        f.blocks.iter().flat_map(|b| b.insts.iter().map(|&v| &f.inst(v).op)).collect()
    }

    #[test]
    fn no_slot_ops_survive() {
        let f = ssa("fn main() { let x = 1; if x > 0 { x = 2; } return x; }");
        assert!(f.in_ssa);
        for op in live_ops(&f) {
            assert!(!matches!(op, Op::GetSlot(_) | Op::SetSlot(..)), "left {op:?}");
        }
    }

    #[test]
    fn diamond_gets_a_phi_at_the_join() {
        let f = ssa("fn main() { let x = 1; if x > 0 { x = 2; } else { x = 3; } return x; }");
        let join = (0..f.blocks.len()).find(|&b| f.blocks[b].preds.len() == 2).unwrap();
        let phis: Vec<_> = f.blocks[join]
            .insts
            .iter()
            .filter(|&&v| matches!(f.inst(v).op, Op::Phi { .. }))
            .collect();
        assert!(!phis.is_empty());
        // The returned value is that phi.
        let ret_block = f.blocks.iter().find(|b| matches!(b.term, Term::Ret(Some(_)))).unwrap();
        if let Term::Ret(Some(v)) = ret_block.term {
            assert!(matches!(f.inst(v).op, Op::Phi { .. }));
        }
    }

    #[test]
    fn for_loop_exposes_an_induction_phi() {
        let f = ssa("global a[8]; fn main() { for i in 0..8 { a[i] = i; } }");
        let l = &f.loops[0];
        let crate::cfg::CfgLoopKind::For { ind_phi, start, end, .. } = &l.kind else {
            panic!("expected a for loop");
        };
        let phi = ind_phi.expect("induction phi");
        let Op::Phi { args, .. } = &f.inst(phi).op else { panic!("not a phi") };
        assert_eq!(args.len(), f.blocks[l.header].preds.len());
        // One arg is the start value, the other the increment.
        assert!(args.contains(start));
        assert!(matches!(f.inst(*end).op, Op::Const(c) if c == 8.0));
    }

    #[test]
    fn params_become_param_values() {
        let f = ssa("fn add(a, b) { return a + b; } fn main() { return add(1, 2); }");
        // main is entry; check the `add` function instead via full build.
        let ir = parpat_ir::lower(
            &parse_checked("fn add(a, b) { return a + b; } fn main() { return add(1, 2); }")
                .unwrap(),
        );
        let add = ir.function_named("add").unwrap().id;
        let mut g = SsaFunc::build(&ir, add);
        promote_to_ssa(&mut g);
        let params = g
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|&&v| matches!(g.inst(v).op, Op::Param(_)))
            .count();
        assert_eq!(params, 2);
        drop(f);
    }

    #[test]
    fn phi_args_are_all_filled() {
        let f = ssa(
            "fn main() { let s = 0; for i in 0..9 { if i > 4 { s = s + i; } else { s = s - 1; } } return s; }",
        );
        for op in live_ops(&f) {
            if let Op::Phi { args, .. } = op {
                assert!(args.iter().all(|&a| a != super::UNFILLED));
            }
        }
    }
}
