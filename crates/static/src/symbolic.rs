//! Symbolic subscript dependence tests over SSA names.
//!
//! The affine model in [`crate::subscript`] gives up on any subscript that
//! is not affine in the *analyzed* loop's induction variable — which is
//! exactly what inner-loop sweeps (`s[j]` under an outer `i` loop) and
//! triangular patterns (`x[j]` with `j < i`) look like from the outer
//! loop. SSA names ([`parpat_ssa`]) make those decidable: two bounds that
//! resolve to the same [`ValId`] provably denote the same value, and a
//! value whose defining block lies outside the analyzed loop's body is
//! provably invariant across its iterations.
//!
//! Each subscript dimension is classified as `SymDim::Outer` (the
//! existing affine form), `SymDim::Inner` (an inner counted loop's
//! induction plus a constant), or `SymDim::Opaque`. Two rules then map
//! dimension pairs onto the shared [`DimRel`] lattice so the per-pair
//! conjunction in [`crate::subscript::pair_dep`] is reused verbatim:
//!
//! - **R1 (inner sweep)**: write `a[j + c]` against read `a[j' + c]`
//!   where the inner loops have ValId-identical bounds defined outside
//!   the analyzed loop — every outer iteration sweeps the same element
//!   window on both sides → [`DimRel::AllPairs`].
//! - **R2 (triangular)**: write `a[i + cw]` against read `a[j + cr]`
//!   with `j ∈ [ilo, i + c_end)`, recognized by decomposing the inner
//!   `end` bound as the outer loop's SSA induction phi plus a constant.
//!   Every forward pair `(i_w < i_r)` collides when `cw − cr ≤ c_end`
//!   and `olo + cw ≥ ilo + cr` → [`DimRel::AllPairs`]; the mirrored
//!   write-inside/read-after case disproves all forward collisions when
//!   `c_end + cw − cr ≤ 1` → [`DimRel::NeverForward`].
//!
//! The symbolic path only ever *adds* proven dependences (or sound
//! disproofs inside a pair conjunction). It never suppresses the affine
//! path's unknown-reasons, so loops it cannot resolve keep their
//! original diagnostics byte for byte.

use std::collections::BTreeSet;

use parpat_ir::ir::{IrExpr, IrFunction, IrStmt, LoopKind};
use parpat_ir::{ArrayId, InstId, IrProgram, LoopId};
use parpat_minilang::ast::BinOp;
use parpat_ssa::cfg::CfgLoopKind;
use parpat_ssa::{BlockId, CfgLoop, Op, SsaFunc, ValId};

use crate::loops::{render_affine, ArrayDep};
use crate::subscript::{affine_of, const_int, int_of, pair_dep, Affine, DimRel, PairDep};

/// One subscript dimension, classified relative to the analyzed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymDim {
    /// Affine in the analyzed loop's induction variable.
    Outer(Affine),
    /// An inner counted loop's induction variable plus a constant.
    Inner {
        /// The inner loop's tree id.
        lp: LoopId,
        /// The inner induction slot (for rendering).
        slot: usize,
        /// Constant offset added to the induction value.
        offset: i64,
    },
    /// Not classifiable: no relation can be derived.
    Opaque,
}

/// An array access with symbolically classified dimensions.
struct SymAccess {
    inst: InstId,
    dims: Vec<SymDim>,
}

/// SSA-side context for one analyzed loop.
struct SymCtx<'a> {
    ssa: &'a SsaFunc,
    owner: Vec<Option<BlockId>>,
    outer: &'a CfgLoop,
}

impl<'a> SymCtx<'a> {
    fn new(ssa: &'a SsaFunc, outer_id: LoopId) -> Option<SymCtx<'a>> {
        let outer = ssa.loops.iter().find(|l| l.id == outer_id)?;
        Some(SymCtx { ssa, owner: ssa.block_of_insts(), outer })
    }

    fn cfg_loop(&self, id: LoopId) -> Option<&CfgLoop> {
        self.ssa.loops.iter().find(|l| l.id == id)
    }

    fn const_of(&self, v: ValId) -> Option<i64> {
        match self.ssa.inst(v).op {
            Op::Const(c) => int_of(c),
            _ => None,
        }
    }

    /// Is `v` computed before the analyzed loop is entered (and therefore
    /// the same value on every one of its iterations)?
    fn outer_invariant(&self, v: ValId) -> bool {
        self.owner
            .get(v as usize)
            .copied()
            .flatten()
            .is_some_and(|b| !self.outer.blocks.contains(&b))
    }

    /// Bounds `(start, end)` of a counted loop, as SSA values.
    fn for_bounds(&self, id: LoopId) -> Option<(ValId, ValId)> {
        match self.cfg_loop(id)?.kind {
            CfgLoopKind::For { start, end, .. } => Some((start, end)),
            CfgLoopKind::While => None,
        }
    }

    /// The analyzed loop's SSA induction value, when counted.
    fn outer_ind(&self) -> Option<ValId> {
        match self.outer.kind {
            CfgLoopKind::For { ind_phi, .. } => ind_phi,
            CfgLoopKind::While => None,
        }
    }

    /// Decompose `v` as the analyzed loop's induction value plus a
    /// constant, returning the constant.
    fn offset_from_outer_ind(&self, v: ValId) -> Option<i64> {
        let ind = self.outer_ind()?;
        if v == ind {
            return Some(0);
        }
        match &self.ssa.inst(v).op {
            Op::Bin(BinOp::Add, a, b) if *a == ind => self.const_of(*b),
            Op::Bin(BinOp::Add, a, b) if *b == ind => self.const_of(*a),
            Op::Bin(BinOp::Sub, a, b) if *a == ind => self.const_of(*b).and_then(i64::checked_neg),
            _ => None,
        }
    }
}

/// Resolve the dependence pairs the affine path could not, returning any
/// newly proven loop-carried flow dependences.
///
/// `residues` holds the [`InstId`]s of accesses whose subscripts were not
/// affine in the analyzed loop's induction variable; only pairs touching
/// at least one residue are examined (the affine path already decided the
/// rest). `outer_start` is the analyzed loop's constant start bound, when
/// counted with a constant start.
#[allow(clippy::too_many_arguments)]
pub(crate) fn symbolic_array_deps(
    ir: &IrProgram,
    f: &IrFunction,
    ssa: &SsaFunc,
    outer_id: LoopId,
    kind: &LoopKind,
    body: &[IrStmt],
    induction: Option<usize>,
    invariant: &dyn Fn(usize) -> bool,
    outer_start: Option<i64>,
    bounds: Option<(i64, i64)>,
    residues: &BTreeSet<InstId>,
) -> Vec<ArrayDep> {
    if residues.is_empty() {
        return Vec::new();
    }
    let Some(ctx) = SymCtx::new(ssa, outer_id) else {
        return Vec::new();
    };
    let mut reads: Vec<(ArrayId, SymAccess)> = Vec::new();
    let mut writes: Vec<(ArrayId, SymAccess)> = Vec::new();
    let mut stack: Vec<(LoopId, usize)> = Vec::new();
    if let LoopKind::While { cond } = kind {
        walk_expr(cond, &mut stack, &mut reads, induction, invariant);
    }
    walk_stmts(body, &mut stack, &mut reads, &mut writes, induction, invariant);

    let ind_name = induction.map(|s| f.slot_names[s].as_str());
    let mut out = Vec::new();
    for (wa, w) in &writes {
        for (ra, r) in &reads {
            if wa != ra || w.dims.len() != r.dims.len() {
                continue;
            }
            if !residues.contains(&w.inst) && !residues.contains(&r.inst) {
                continue;
            }
            let dims: Vec<DimRel> = w
                .dims
                .iter()
                .zip(&r.dims)
                .map(|(a, b)| dim_rel_sym(&ctx, *a, *b, bounds, outer_start))
                .collect();
            if let PairDep::Raw(distance) = pair_dep(&dims, bounds) {
                let name = &ir.globals[*wa].name;
                out.push(ArrayDep {
                    array: name.clone(),
                    write: render_sym(name, &w.dims, ind_name, f),
                    read: render_sym(name, &r.dims, ind_name, f),
                    write_line: ir.line_of(w.inst),
                    read_line: ir.line_of(r.inst),
                    distance,
                });
            }
        }
    }
    out
}

/// Relate one write dimension to one read dimension.
fn dim_rel_sym(
    ctx: &SymCtx,
    w: SymDim,
    r: SymDim,
    bounds: Option<(i64, i64)>,
    outer_start: Option<i64>,
) -> DimRel {
    match (w, r) {
        (SymDim::Outer(a), SymDim::Outer(b)) => crate::subscript::dim_rel_in(a, b, bounds),
        (SymDim::Inner { lp: lw, offset: ow, .. }, SymDim::Inner { lp: lr, offset: or_, .. })
            if ow == or_ =>
        {
            same_window(ctx, lw, lr)
        }
        (SymDim::Outer(a), SymDim::Inner { lp, offset, .. }) if a.coef == 1 && a.sym.is_none() => {
            triangular_forward(ctx, a.offset, lp, offset, outer_start)
        }
        (SymDim::Inner { lp, offset, .. }, SymDim::Outer(a)) if a.coef == 1 && a.sym.is_none() => {
            triangular_reverse(ctx, lp, offset, a.offset)
        }
        _ => DimRel::Unknown,
    }
}

/// R1: both sides sweep `[start, end)` of counted inner loops whose bounds
/// are the same SSA values, fixed before the analyzed loop runs. Every
/// outer iteration then writes and reads the identical element window.
fn same_window(ctx: &SymCtx, lw: LoopId, lr: LoopId) -> DimRel {
    let Some((sw, ew)) = ctx.for_bounds(lw) else {
        return DimRel::Unknown;
    };
    let Some((sr, er)) = ctx.for_bounds(lr) else {
        return DimRel::Unknown;
    };
    if sw == sr && ew == er && ctx.outer_invariant(sw) && ctx.outer_invariant(ew) {
        DimRel::AllPairs
    } else {
        DimRel::Unknown
    }
}

/// R2: write `i + cw` in the outer body, read `j + cr` with
/// `j ∈ [ilo, i + c_end)`. For any `i_w < i_r`, the written element
/// `i_w + cw` lies inside the read window at `i_r` when
/// `cw − cr ≤ c_end` (upper end, worst case `i_r = i_w + 1`) and
/// `olo + cw ≥ ilo + cr` (lower end, worst case `i_w = olo`).
fn triangular_forward(
    ctx: &SymCtx,
    cw: i64,
    inner: LoopId,
    cr: i64,
    outer_start: Option<i64>,
) -> DimRel {
    let Some((istart, iend)) = ctx.for_bounds(inner) else {
        return DimRel::Unknown;
    };
    let (Some(ilo), Some(c_end), Some(olo)) =
        (ctx.const_of(istart), ctx.offset_from_outer_ind(iend), outer_start)
    else {
        return DimRel::Unknown;
    };
    let (cw, cr, c_end) = (i128::from(cw), i128::from(cr), i128::from(c_end));
    if cw - cr <= c_end && i128::from(olo) + cw >= i128::from(ilo) + cr {
        DimRel::AllPairs
    } else {
        DimRel::Unknown
    }
}

/// R2 mirrored: write `j + cw` with `j ∈ [ilo, i + c_end)`, read `i + cr`
/// in the outer body. A forward collision needs
/// `i_r − i_w ≤ c_end + cw − cr − 1`, impossible for `i_r > i_w` when
/// `c_end + cw − cr ≤ 1`.
fn triangular_reverse(ctx: &SymCtx, inner: LoopId, cw: i64, cr: i64) -> DimRel {
    let Some((_, iend)) = ctx.for_bounds(inner) else {
        return DimRel::Unknown;
    };
    let Some(c_end) = ctx.offset_from_outer_ind(iend) else {
        return DimRel::Unknown;
    };
    if i128::from(c_end) + i128::from(cw) - i128::from(cr) <= 1 {
        DimRel::NeverForward
    } else {
        DimRel::Unknown
    }
}

fn classify_dims(
    indices: &[IrExpr],
    stack: &[(LoopId, usize)],
    induction: Option<usize>,
    invariant: &dyn Fn(usize) -> bool,
) -> Vec<SymDim> {
    indices.iter().map(|ix| classify(ix, stack, induction, invariant)).collect()
}

fn classify(
    ix: &IrExpr,
    stack: &[(LoopId, usize)],
    induction: Option<usize>,
    invariant: &dyn Fn(usize) -> bool,
) -> SymDim {
    if let Some(a) = affine_of(ix, induction, invariant) {
        return SymDim::Outer(a);
    }
    if let Some((slot, offset)) = ind_plus_const(ix) {
        if let Some(&(lp, _)) = stack.iter().rev().find(|(_, s)| *s == slot) {
            return SymDim::Inner { lp, slot, offset };
        }
    }
    SymDim::Opaque
}

/// Match `slot`, `slot ± c`, or `c + slot` and return `(slot, ±c)`.
fn ind_plus_const(e: &IrExpr) -> Option<(usize, i64)> {
    match e {
        IrExpr::LoadLocal { slot, .. } => Some((*slot, 0)),
        IrExpr::Binary { op: BinOp::Add, lhs, rhs, .. } => match (lhs.as_ref(), rhs.as_ref()) {
            (IrExpr::LoadLocal { slot, .. }, c) => const_int(c).map(|k| (*slot, k)),
            (c, IrExpr::LoadLocal { slot, .. }) => const_int(c).map(|k| (*slot, k)),
            _ => None,
        },
        IrExpr::Binary { op: BinOp::Sub, lhs, rhs, .. } => match (lhs.as_ref(), rhs.as_ref()) {
            (IrExpr::LoadLocal { slot, .. }, c) => {
                const_int(c).and_then(i64::checked_neg).map(|k| (*slot, k))
            }
            _ => None,
        },
        _ => None,
    }
}

fn walk_stmts(
    stmts: &[IrStmt],
    stack: &mut Vec<(LoopId, usize)>,
    reads: &mut Vec<(ArrayId, SymAccess)>,
    writes: &mut Vec<(ArrayId, SymAccess)>,
    induction: Option<usize>,
    invariant: &dyn Fn(usize) -> bool,
) {
    for s in stmts {
        match s {
            IrStmt::StoreLocal { value, .. } => {
                walk_expr(value, stack, reads, induction, invariant);
            }
            IrStmt::StoreIndex { array, indices, value, inst } => {
                writes.push((
                    *array,
                    SymAccess {
                        inst: *inst,
                        dims: classify_dims(indices, stack, induction, invariant),
                    },
                ));
                for ix in indices {
                    walk_expr(ix, stack, reads, induction, invariant);
                }
                walk_expr(value, stack, reads, induction, invariant);
            }
            IrStmt::Loop { id, kind, body, .. } => {
                match kind {
                    LoopKind::For { slot, start, end } => {
                        // Bounds are evaluated before the loop is entered:
                        // classify them against the current nesting.
                        walk_expr(start, stack, reads, induction, invariant);
                        walk_expr(end, stack, reads, induction, invariant);
                        stack.push((*id, *slot));
                        walk_stmts(body, stack, reads, writes, induction, invariant);
                        stack.pop();
                    }
                    LoopKind::While { cond } => {
                        walk_expr(cond, stack, reads, induction, invariant);
                        walk_stmts(body, stack, reads, writes, induction, invariant);
                    }
                }
            }
            IrStmt::If { cond, then_body, else_body, .. } => {
                walk_expr(cond, stack, reads, induction, invariant);
                walk_stmts(then_body, stack, reads, writes, induction, invariant);
                walk_stmts(else_body, stack, reads, writes, induction, invariant);
            }
            IrStmt::Return { value, .. } => {
                if let Some(v) = value {
                    walk_expr(v, stack, reads, induction, invariant);
                }
            }
            IrStmt::Break { .. } => {}
            IrStmt::ExprStmt { expr, .. } => {
                walk_expr(expr, stack, reads, induction, invariant);
            }
        }
    }
}

fn walk_expr(
    e: &IrExpr,
    stack: &mut Vec<(LoopId, usize)>,
    reads: &mut Vec<(ArrayId, SymAccess)>,
    induction: Option<usize>,
    invariant: &dyn Fn(usize) -> bool,
) {
    match e {
        IrExpr::Const { .. } | IrExpr::Bool { .. } | IrExpr::LoadLocal { .. } => {}
        IrExpr::LoadIndex { array, indices, inst } => {
            reads.push((
                *array,
                SymAccess {
                    inst: *inst,
                    dims: classify_dims(indices, stack, induction, invariant),
                },
            ));
            for ix in indices {
                walk_expr(ix, stack, reads, induction, invariant);
            }
        }
        IrExpr::CallFn { args, .. } | IrExpr::CallBuiltin { args, .. } => {
            for a in args {
                walk_expr(a, stack, reads, induction, invariant);
            }
        }
        IrExpr::Unary { operand, .. } => walk_expr(operand, stack, reads, induction, invariant),
        IrExpr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, stack, reads, induction, invariant);
            walk_expr(rhs, stack, reads, induction, invariant);
        }
    }
}

/// Render a symbolically classified access for diagnostics, e.g. `s[j]`.
fn render_sym(name: &str, dims: &[SymDim], ind: Option<&str>, f: &IrFunction) -> String {
    let parts: Vec<String> = dims
        .iter()
        .map(|d| match d {
            SymDim::Outer(a) => render_affine(*a, ind, f),
            SymDim::Inner { slot, offset, .. } => {
                let base = f.slot_names[*slot].clone();
                match 0.cmp(offset) {
                    std::cmp::Ordering::Equal => base,
                    std::cmp::Ordering::Less => format!("{base} + {offset}"),
                    std::cmp::Ordering::Greater => format!("{base} - {}", offset.unsigned_abs()),
                }
            }
            SymDim::Opaque => "?".to_string(),
        })
        .collect();
    format!("{}[{}]", name, parts.join("]["))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use crate::{analyze_ir, Verdict};
    use parpat_ir::compile;

    fn report_for_line(src: &str, line: u32) -> crate::LoopReport {
        let ir = compile(src).unwrap();
        let rep = analyze_ir(&ir);
        rep.loops
            .iter()
            .find(|l| l.line == line)
            .unwrap_or_else(|| panic!("no loop at line {line}"))
            .clone()
    }

    #[test]
    fn inner_sweep_same_loop_is_proven_some() {
        // bicg's shape: the outer loop repeats the full `s[j]` sweep, so
        // every outer iteration rereads what the previous one wrote.
        let src = "global s[64];\nglobal A[64][64];\nglobal r[64];\nfn main() {\n    let n = 64;\n    for i in 0..n {\n        for j in 0..n {\n            s[j] = s[j] + r[i] * A[i][j];\n        }\n    }\n}";
        let l = report_for_line(src, 6);
        assert_eq!(l.verdict, Verdict::ProvenSome, "reasons: {:?}", l.unknown_reasons);
        assert_eq!(l.array_deps.len(), 1);
        assert_eq!(l.array_deps[0].write, "s[j]");
        assert_eq!(l.array_deps[0].read, "s[j]");
        assert_eq!(l.array_deps[0].distance, None);
    }

    #[test]
    fn inner_sweep_across_sibling_loops() {
        // fdtd-2d's shape: sibling inner loops with identical, invariant
        // bounds exchange whole arrays across outer (time) iterations.
        let src = "global a[64];\nglobal b[64];\nfn main() {\n    let n = 64;\n    for t in 0..8 {\n        for i in 0..n {\n            a[i] = a[i] + b[i];\n        }\n        for i in 0..n {\n            b[i] = a[i];\n        }\n    }\n}";
        let l = report_for_line(src, 5);
        assert_eq!(l.verdict, Verdict::ProvenSome, "reasons: {:?}", l.unknown_reasons);
        // a: self-carry in the first loop + cross-loop read in the second;
        // b: written in the second loop, reread in the first.
        assert!(l.array_deps.len() >= 3, "deps: {:?}", l.array_deps);
        assert!(l
            .array_deps
            .iter()
            .any(|d| d.array == "a" && d.write_line == 7 && d.read_line == 10));
        assert!(l
            .array_deps
            .iter()
            .any(|d| d.array == "b" && d.write_line == 10 && d.read_line == 7));
    }

    #[test]
    fn triangular_sweep_is_proven_some() {
        // ludcmp's back-substitution shape: `x[i]` written at the end of
        // outer iteration `i` is read by every later iteration's `j < i`
        // sweep.
        let src = "global A[8][8];\nglobal x[8];\nglobal y[8];\nfn main() {\n    for i in 0..8 {\n        let s = 0;\n        for j in 0..i {\n            s = s + A[i][j] * x[j];\n        }\n        x[i] = y[i] - s;\n    }\n}";
        let l = report_for_line(src, 5);
        assert_eq!(l.verdict, Verdict::ProvenSome, "reasons: {:?}", l.unknown_reasons);
        assert_eq!(l.array_deps.len(), 1, "deps: {:?}", l.array_deps);
        assert_eq!(l.array_deps[0].write, "x[i]");
        assert_eq!(l.array_deps[0].read, "x[j]");
    }

    #[test]
    fn triangular_reverse_disproves_forward_writes() {
        // Writes stay strictly below the outer induction (`j < i`), so a
        // later iteration's `x[i]` read can never see them; the only
        // carried flow dependence is outer-write → inner-read.
        let src = "global x[8];\nfn main() {\n    for i in 0..8 {\n        for j in 0..i {\n            x[j] = x[j] + 1;\n        }\n        x[i] = x[i] + 2;\n    }\n}";
        let l = report_for_line(src, 3);
        assert_eq!(l.verdict, Verdict::ProvenSome, "reasons: {:?}", l.unknown_reasons);
        assert_eq!(l.array_deps.len(), 1, "deps: {:?}", l.array_deps);
        assert_eq!(l.array_deps[0].write, "x[i]");
        assert_eq!(l.array_deps[0].read, "x[j]");
        assert_eq!(l.array_deps[0].write_line, 7);
        assert_eq!(l.array_deps[0].read_line, 5);
    }

    #[test]
    fn varying_inner_bounds_stay_unknown() {
        // The inner window moves with the outer iteration: R1 must not
        // fire (the windows of two outer iterations need not intersect).
        let src = "global a[16];\nfn main() {\n    for i in 0..8 {\n        for j in i..i + 1 {\n            a[j] = a[j] + 1;\n        }\n    }\n}";
        let l = report_for_line(src, 3);
        assert_eq!(l.verdict, Verdict::Unknown);
        assert!(l.array_deps.is_empty());
    }

    #[test]
    fn loop_stored_scalar_subscript_stays_opaque() {
        // kmeans' shape: the subscript is a scalar reassigned every
        // iteration — no symbolic rule applies.
        let src = "global assign[16];\nglobal csum[4];\nfn main() {\n    for p in 0..16 {\n        let a = assign[p];\n        csum[a] = csum[a] + 1;\n    }\n}";
        let l = report_for_line(src, 4);
        assert_eq!(l.verdict, Verdict::Unknown);
        assert!(l.array_deps.is_empty());
    }

    #[test]
    fn two_symbol_subscripts_stay_opaque() {
        // sort's shape: `data[lo + i]` mixes an invariant symbol with an
        // inner induction — outside both the affine and symbolic models.
        let src = "global data[64];\nfn main() {\n    let lo = 8;\n    for pass in 0..8 {\n        for i in 0..8 {\n            if data[lo + i] > data[lo + i + 1] {\n                data[lo + i] = data[lo + i + 1];\n            }\n        }\n    }\n}";
        let l = report_for_line(src, 4);
        assert_eq!(l.verdict, Verdict::Unknown);
        assert!(l.array_deps.is_empty());
    }
}
