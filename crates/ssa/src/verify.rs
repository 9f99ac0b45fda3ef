//! Structural verification of CFG/SSA functions.
//!
//! Runs after lowering, after promotion, and after *every* pass (the
//! [`crate::PassManager`] insists). The three violation kinds surface as
//! stable diagnostic codes V007–V009 in `parpat-static`.

use crate::cfg::{BlockId, Op, SsaFunc, Term, ValId};
use crate::dom::DomTree;

/// What went structurally wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsaViolationKind {
    /// A value is used in a position its definition does not dominate.
    UseNotDominated,
    /// A phi's argument count differs from its block's predecessor count.
    PhiArityMismatch,
    /// Broken CFG plumbing: dangling edges, inconsistent predecessor
    /// lists, instructions in multiple blocks, dead ops in block lists,
    /// phis after non-phis, slot ops surviving SSA promotion, or blocks
    /// unreachable from the entry.
    MalformedCfg,
}

/// A verification failure with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsaViolation {
    /// The invariant violated.
    pub kind: SsaViolationKind,
    /// The function it was found in.
    pub func: String,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for SsaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.func, self.detail)
    }
}

fn viol(out: &mut Vec<SsaViolation>, f: &SsaFunc, kind: SsaViolationKind, detail: String) {
    out.push(SsaViolation { kind, func: f.name.clone(), detail });
}

/// Check every structural invariant of `f`, returning all violations
/// (empty means the function is well-formed).
///
/// On a well-formed function this allocates only its per-function tables
/// (a cursor per block, a place per instruction, the immediate
/// dominators): nothing per instruction or operand, and no text.
pub fn verify_func(f: &SsaFunc) -> Vec<SsaViolation> {
    let mut out = Vec::new();
    let n = f.blocks.len();
    if n == 0 {
        viol(&mut out, f, SsaViolationKind::MalformedCfg, "function has no blocks".into());
        return out;
    }

    // Edge coherence: terminator targets in range, pred lists exactly match
    // the incoming edges in deterministic (block, edge) order. `matched[s]`
    // walks `s`'s list along those edges, or is `usize::MAX` once an edge
    // disagrees with it.
    let mut matched = vec![0usize; n];
    for (b, blk) in f.blocks.iter().enumerate() {
        for s in blk.term.succs() {
            if s >= n {
                viol(
                    &mut out,
                    f,
                    SsaViolationKind::MalformedCfg,
                    format!("block b{b} jumps to nonexistent block b{s}"),
                );
                return out;
            }
            let k = matched[s];
            matched[s] = if f.blocks[s].preds.get(k) == Some(&b) { k + 1 } else { usize::MAX };
        }
    }
    for (b, blk) in f.blocks.iter().enumerate() {
        if matched[b] != blk.preds.len() {
            let edges: Vec<BlockId> = (0..n)
                .flat_map(|p| f.blocks[p].term.succs().filter(move |&s| s == b).map(move |_| p))
                .collect();
            viol(
                &mut out,
                f,
                SsaViolationKind::MalformedCfg,
                format!("block b{b} predecessor list {:?} != actual edges {:?}", blk.preds, edges),
            );
        }
    }
    if !out.is_empty() {
        return out;
    }

    // Instruction ownership: each listed instruction exists, is live, and
    // appears in exactly one block. `place[v]` is v's (block, position).
    let mut place: Vec<Option<(BlockId, usize)>> = vec![None; f.insts.len()];
    for (b, blk) in f.blocks.iter().enumerate() {
        let mut seen_non_phi = false;
        for (i, &v) in blk.insts.iter().enumerate() {
            let vi = v as usize;
            if vi >= f.insts.len() {
                viol(
                    &mut out,
                    f,
                    SsaViolationKind::MalformedCfg,
                    format!("block b{b} lists nonexistent value v{v}"),
                );
                return out;
            }
            if let Some((prev, _)) = place[vi] {
                viol(
                    &mut out,
                    f,
                    SsaViolationKind::MalformedCfg,
                    format!("v{v} appears in both b{prev} and b{b}"),
                );
            }
            place[vi] = Some((b, i));
            match &f.insts[vi].op {
                Op::Dead => viol(
                    &mut out,
                    f,
                    SsaViolationKind::MalformedCfg,
                    format!("dead instruction v{v} listed in b{b}"),
                ),
                Op::Phi { .. } if seen_non_phi => viol(
                    &mut out,
                    f,
                    SsaViolationKind::MalformedCfg,
                    format!("phi v{v} after non-phi instructions in b{b}"),
                ),
                Op::Phi { .. } => {}
                Op::GetSlot(_) | Op::SetSlot(..) if f.in_ssa => {
                    viol(
                        &mut out,
                        f,
                        SsaViolationKind::MalformedCfg,
                        format!("slot instruction v{v} survived SSA promotion in b{b}"),
                    );
                    seen_non_phi = true;
                }
                _ => seen_non_phi = true,
            }
        }
    }
    if !out.is_empty() {
        return out;
    }

    // Phi arity.
    for (b, blk) in f.blocks.iter().enumerate() {
        for &v in &blk.insts {
            if let Op::Phi { args, .. } = &f.inst(v).op {
                if args.len() != blk.preds.len() {
                    viol(
                        &mut out,
                        f,
                        SsaViolationKind::PhiArityMismatch,
                        format!(
                            "phi v{v} in b{b} has {} args for {} predecessors",
                            args.len(),
                            blk.preds.len()
                        ),
                    );
                }
            }
        }
    }
    if !out.is_empty() {
        return out;
    }

    // Reachability: dominance is defined only over blocks the entry
    // reaches.
    let dom = DomTree::build(f);
    for b in (0..n).filter(|&b| !dom.reachable(b)) {
        viol(
            &mut out,
            f,
            SsaViolationKind::MalformedCfg,
            format!("block b{b} is unreachable from the entry"),
        );
    }
    if !out.is_empty() {
        return out;
    }

    // Dominance: every use dominated by its def. Phi args must be defined
    // at the *end of the matching predecessor*; ordinary operands at their
    // own position. `at` names the use site; it, like every message, is
    // formatted only for a violation.
    let def = |a: ValId, at: &dyn Fn() -> String, out: &mut Vec<SsaViolation>| {
        let d = place.get(a as usize).copied().flatten().filter(|_| f.inst(a).op.has_result());
        if d.is_none() {
            viol(
                out,
                f,
                SsaViolationKind::MalformedCfg,
                format!("{} references v{a}, which defines no value", at()),
            );
        }
        d
    };
    let not_dominated = |a: ValId, db: BlockId, at: &dyn Fn() -> String, out: &mut Vec<_>| {
        viol(
            out,
            f,
            SsaViolationKind::UseNotDominated,
            format!("{} uses v{a} defined in b{db}, which does not dominate it", at()),
        );
    };
    for (b, blk) in f.blocks.iter().enumerate() {
        for (i, &v) in blk.insts.iter().enumerate() {
            match &f.inst(v).op {
                Op::Phi { args, .. } => {
                    let at = || format!("phi v{v} in b{b}");
                    for (&a, &pred) in args.iter().zip(&blk.preds) {
                        let Some((db, _)) = def(a, &at, &mut out) else { continue };
                        if !dom.dominates(db, pred) {
                            viol(
                                &mut out,
                                f,
                                SsaViolationKind::UseNotDominated,
                                format!(
                                    "phi v{v} arg v{a} (from b{pred}) is defined in b{db}, which does not dominate the edge"
                                ),
                            );
                        }
                    }
                }
                op => {
                    let at = || format!("v{v} in b{b}");
                    for a in op.operands() {
                        let Some((db, pos)) = def(a, &at, &mut out) else { continue };
                        let dominated = if db == b { pos < i } else { dom.dominates(db, b) };
                        if !dominated {
                            not_dominated(a, db, &at, &mut out);
                        }
                    }
                }
            }
        }
        let term_use = match blk.term {
            Term::Branch { cond, .. } => Some(cond),
            Term::Ret(v) => v,
            Term::Jump(_) => None,
        };
        if let Some(a) = term_use {
            let at = || format!("terminator of b{b}");
            if let Some((db, _)) = def(a, &at, &mut out) {
                if db != b && !dom.dominates(db, b) {
                    not_dominated(a, db, &at, &mut out);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::cfg::SsaFunc;
    use crate::ssa::promote_to_ssa;
    use parpat_minilang::parse_checked;

    fn ssa(src: &str) -> SsaFunc {
        let ir = parpat_ir::lower(&parse_checked(src).unwrap());
        let mut f = SsaFunc::build(&ir, ir.entry.unwrap());
        promote_to_ssa(&mut f);
        f
    }

    #[test]
    fn well_formed_functions_verify_clean() {
        for src in [
            "fn main() { return 1; }",
            "fn main() { let x = 1; if x > 0 { x = 2; } return x; }",
            "global a[8]; fn main() { for i in 0..8 { a[i] = i * 2; } }",
            "fn main() { let s = 0; let i = 0; while i < 5 { s = s + i; i = i + 1; } return s; }",
        ] {
            let f = ssa(src);
            assert_eq!(verify_func(&f), Vec::new(), "source: {src}");
        }
    }

    #[test]
    fn pre_ssa_form_also_verifies() {
        let ir = parpat_ir::lower(
            &parse_checked("fn main() { let x = 1; if x > 0 { x = 2; } return x; }").unwrap(),
        );
        let f = SsaFunc::build(&ir, ir.entry.unwrap());
        assert_eq!(verify_func(&f), Vec::new());
    }

    #[test]
    fn detects_phi_arity_mismatch() {
        let mut f = ssa("fn main() { let x = 1; if x > 0 { x = 2; } return x; }");
        for blk in &mut f.blocks {
            for &v in &blk.insts.clone() {
                if let Op::Phi { args, .. } = &mut f.insts[v as usize].op {
                    args.pop();
                }
            }
        }
        let vs = verify_func(&f);
        assert!(vs.iter().any(|v| v.kind == SsaViolationKind::PhiArityMismatch), "{vs:?}");
    }

    #[test]
    fn detects_use_not_dominated() {
        let mut f = ssa("fn main() { let x = 1; if x > 0 { x = 2; } else { x = 3; } return x; }");
        // Rewire the returned phi to use a value defined in one arm only.
        let join = (0..f.blocks.len()).find(|&b| f.blocks[b].preds.len() == 2).unwrap();
        let arm = f.blocks[join].preds[0];
        let arm_def = *f.blocks[arm]
            .insts
            .iter()
            .find(|&&v| f.inst(v).op.has_result())
            .expect("arm defines a value");
        if let crate::cfg::Term::Ret(slot) = &mut f.blocks[join].term {
            *slot = Some(arm_def);
        } else {
            // Return happens in the join block in this shape; if not, force it.
            f.blocks[join].term = crate::cfg::Term::Ret(Some(arm_def));
        }
        let vs = verify_func(&f);
        assert!(vs.iter().any(|v| v.kind == SsaViolationKind::UseNotDominated), "{vs:?}");
    }

    #[test]
    fn detects_malformed_edges() {
        let mut f = ssa("fn main() { return 1; }");
        f.blocks[0].preds.push(0);
        let vs = verify_func(&f);
        assert!(vs.iter().any(|v| v.kind == SsaViolationKind::MalformedCfg), "{vs:?}");
    }

    #[test]
    fn an_unreachable_block_is_a_violation_not_a_panic() {
        let mut f = ssa("fn main() { let x = 1; return x; }");
        f.blocks.push(crate::cfg::Block { insts: vec![], term: Term::Ret(None), preds: vec![] });
        let vs = verify_func(&f);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].kind, SsaViolationKind::MalformedCfg);
        assert_eq!(vs[0].detail, "block b1 is unreachable from the entry");
    }

    // ---- pinned messages --------------------------------------------------
    //
    // Each test below seeds violations into a hand-built function and pins
    // every reported (kind, detail) pair, in order: the details are part of
    // the V007–V009 diagnostics' text.

    use crate::cfg::{Block, Inst, ValId};
    use parpat_ir::ir::Builtin;
    use parpat_minilang::ast::{BinOp, UnOp};
    use SsaViolationKind::{MalformedCfg, PhiArityMismatch, UseNotDominated};

    /// A function named `f` over `ops` (value `i` is `ops[i]`) and blocks
    /// given as (instructions, terminator, predecessor list).
    fn hand_built(ops: Vec<Op>, blocks: Vec<(Vec<ValId>, Term, Vec<usize>)>) -> SsaFunc {
        SsaFunc {
            func: 0,
            name: "f".into(),
            line: 1,
            n_params: 0,
            n_user_slots: 1,
            n_slots: 1,
            insts: ops.into_iter().map(|op| Inst { op, src: 0 }).collect(),
            blocks: blocks
                .into_iter()
                .map(|(insts, term, preds)| Block { insts, term, preds })
                .collect(),
            loops: Vec::new(),
            in_ssa: true,
        }
    }

    fn pinned(f: &SsaFunc) -> Vec<(SsaViolationKind, String)> {
        verify_func(f)
            .into_iter()
            .map(|v| {
                assert_eq!(v.func, "f");
                (v.kind, v.detail)
            })
            .collect()
    }

    fn expect(pairs: &[(SsaViolationKind, &str)]) -> Vec<(SsaViolationKind, String)> {
        pairs.iter().map(|&(k, d)| (k, d.to_string())).collect()
    }

    #[test]
    fn pinned_message_for_a_function_without_blocks() {
        let f = hand_built(vec![], vec![]);
        assert_eq!(pinned(&f), expect(&[(MalformedCfg, "function has no blocks")]));
    }

    #[test]
    fn pinned_message_for_a_dangling_edge_stops_verification() {
        // b1's predecessor list is wrong too, but a dangling edge ends the
        // check before predecessor lists are compared.
        let f = hand_built(
            vec![Op::Const(1.0)],
            vec![(vec![0], Term::Jump(3), vec![]), (vec![], Term::Ret(None), vec![0])],
        );
        assert_eq!(pinned(&f), expect(&[(MalformedCfg, "block b0 jumps to nonexistent block b3")]));
    }

    #[test]
    fn pinned_messages_for_predecessor_list_mismatches() {
        let f = hand_built(
            vec![Op::BoolConst(true)],
            vec![
                (vec![0], Term::Branch { cond: 0, then_bb: 1, else_bb: 2 }, vec![]),
                (vec![], Term::Jump(2), vec![]),
                (vec![], Term::Ret(None), vec![1, 0]),
            ],
        );
        assert_eq!(
            pinned(&f),
            expect(&[
                (MalformedCfg, "block b1 predecessor list [] != actual edges [0]"),
                (MalformedCfg, "block b2 predecessor list [1, 0] != actual edges [0, 1]"),
            ])
        );
    }

    #[test]
    fn pinned_messages_for_instruction_ownership() {
        let f = hand_built(
            vec![
                Op::Const(1.0),
                Op::Dead,
                Op::Const(2.0),
                Op::Phi { slot: 0, args: vec![] },
                Op::GetSlot(0),
                Op::SetSlot(0, 0),
            ],
            vec![
                (vec![0, 1, 3, 4, 5], Term::Jump(1), vec![]),
                (vec![0, 2], Term::Ret(None), vec![0]),
            ],
        );
        assert_eq!(
            pinned(&f),
            expect(&[
                (MalformedCfg, "dead instruction v1 listed in b0"),
                (MalformedCfg, "phi v3 after non-phi instructions in b0"),
                (MalformedCfg, "slot instruction v4 survived SSA promotion in b0"),
                (MalformedCfg, "slot instruction v5 survived SSA promotion in b0"),
                (MalformedCfg, "v0 appears in both b0 and b1"),
            ])
        );
    }

    #[test]
    fn pinned_message_for_a_nonexistent_value_stops_verification() {
        let f = hand_built(
            vec![Op::Const(1.0)],
            vec![(vec![0], Term::Jump(1), vec![]), (vec![0, 9, 0], Term::Ret(None), vec![0])],
        );
        assert_eq!(
            pinned(&f),
            expect(&[
                (MalformedCfg, "v0 appears in both b0 and b1"),
                (MalformedCfg, "block b1 lists nonexistent value v9"),
            ])
        );
    }

    #[test]
    fn pinned_messages_for_phi_arity() {
        let f = hand_built(
            vec![
                Op::BoolConst(true),
                Op::Phi { slot: 0, args: vec![0, 0] },
                Op::Phi { slot: 0, args: vec![0] },
            ],
            vec![
                (vec![0], Term::Branch { cond: 0, then_bb: 1, else_bb: 2 }, vec![]),
                (vec![1], Term::Jump(2), vec![0]),
                (vec![2], Term::Ret(None), vec![0, 1]),
            ],
        );
        assert_eq!(
            pinned(&f),
            expect(&[
                (PhiArityMismatch, "phi v1 in b1 has 2 args for 1 predecessors"),
                (PhiArityMismatch, "phi v2 in b2 has 1 args for 2 predecessors"),
            ])
        );
    }

    #[test]
    fn pinned_messages_for_undefined_and_undominated_uses() {
        // A diamond b0 -> {b1, b2} -> b3. v9 is listed in no block, v99 does
        // not exist, and the store v2 defines no value.
        let f = hand_built(
            vec![
                Op::BoolConst(true),                       // v0, b0
                Op::Const(1.0),                            // v1, b1
                Op::Store { addr: 1, val: 1 },             // v2, b1
                Op::Const(2.0),                            // v3, b2
                Op::Phi { slot: 0, args: vec![1, 1] },     // v4, b3
                Op::Bin(BinOp::Add, 3, 2),                 // v5, b3
                Op::Bin(BinOp::Add, 7, 4),                 // v6, b3
                Op::Const(3.0),                            // v7, b3
                Op::Un(UnOp::Neg, 9),                      // v8, b3
                Op::Const(9.0),                            // v9, unlisted
                Op::Phi { slot: 0, args: vec![9, 0] },     // v10, b3
                Op::Builtin(Builtin::Min, vec![0, 3, 10]), // v11, b3
                Op::Load { addr: 99 },                     // v12, b3
            ],
            vec![
                (vec![0], Term::Branch { cond: 9, then_bb: 1, else_bb: 2 }, vec![]),
                (vec![1, 2], Term::Jump(3), vec![0]),
                (vec![3], Term::Jump(3), vec![0]),
                (vec![4, 10, 5, 6, 7, 8, 11, 12], Term::Ret(Some(1)), vec![1, 2]),
            ],
        );
        assert_eq!(
            pinned(&f),
            expect(&[
                (MalformedCfg, "terminator of b0 references v9, which defines no value"),
                (
                    UseNotDominated,
                    "phi v4 arg v1 (from b2) is defined in b1, which does not dominate the edge"
                ),
                (MalformedCfg, "phi v10 in b3 references v9, which defines no value"),
                (UseNotDominated, "v5 in b3 uses v3 defined in b2, which does not dominate it"),
                (MalformedCfg, "v5 in b3 references v2, which defines no value"),
                (UseNotDominated, "v6 in b3 uses v7 defined in b3, which does not dominate it"),
                (MalformedCfg, "v8 in b3 references v9, which defines no value"),
                (UseNotDominated, "v11 in b3 uses v3 defined in b2, which does not dominate it"),
                (MalformedCfg, "v12 in b3 references v99, which defines no value"),
                (
                    UseNotDominated,
                    "terminator of b3 uses v1 defined in b1, which does not dominate it"
                ),
            ])
        );
    }
}
