//! Every pass of the standard SSA roster earns its keep.
//!
//! The SSA form exists only so the symbolic dependence tests can decide
//! verdicts the affine model cannot, so a pass that changes no verdict
//! costs time and proves nothing. For each pass of
//! [`standard_pipeline`], the roster without that pass must prove strictly
//! less on fixed shapes than the full roster. A pass that stops deciding
//! anything fails here; delete it rather than keep paying for it.

#![allow(clippy::unwrap_used)]

use parpat_ir::ir::{IrProgram, IrStmt};
use parpat_ssa::{promote_to_ssa, standard_pipeline, verify_func, PassManager, SsaFunc};
use parpat_static::loops::analyze_loop;
use parpat_static::{LoopReport, Verdict};

/// Shapes whose verdicts depend on the roster, one statement per line.
const SHAPES: [&str; 2] = [
    // fdtd-2d: sibling inner loops over `0..n` exchange whole arrays across
    // the time loop. CSE makes both inner loops share their bound values.
    "global a[64];\nglobal b[64];\nfn main() {\n    let n = 64;\n    for t in 0..8 {\n        for i in 0..n {\n            a[i] = a[i] + b[i];\n        }\n        for i in 0..n {\n            b[i] = a[i];\n        }\n    }\n}",
    // An inner sweep over constant bounds. LICM hoists `1` and `7` out of
    // the outer loop, so they read as invariant there.
    "global a[64];\nfn main() {\n    for i in 0..4 {\n        for j in 1..7 {\n            a[j + 2] = a[j + 2] + i;\n        }\n    }\n}",
];

/// Every loop report of `src`, each function optimized by the passes of
/// the standard roster whose index `keep` accepts.
fn reports(src: &str, keep: impl Fn(usize) -> bool) -> Vec<LoopReport> {
    let ir = parpat_ir::compile(src).unwrap();
    let mut out = Vec::new();
    for func in &ir.functions {
        let mut f = SsaFunc::build(&ir, func.id);
        promote_to_ssa(&mut f);
        assert_eq!(verify_func(&f), Vec::new());
        let roster = standard_pipeline()
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| keep(i).then_some(p))
            .collect();
        PassManager::new(roster).run(&mut f).unwrap();
        collect_loops(&ir, &func.body, &f, &mut out);
    }
    out
}

/// Analyze every loop under `stmts`, as `parpat_static::analyze_function`
/// does.
fn collect_loops(ir: &IrProgram, stmts: &[IrStmt], ssa: &SsaFunc, out: &mut Vec<LoopReport>) {
    for s in stmts {
        match s {
            IrStmt::Loop { id, kind, body, .. } => {
                out.push(analyze_loop(ir, *id, kind, body, Some(ssa)));
                collect_loops(ir, body, ssa, out);
            }
            IrStmt::If { then_body, else_body, .. } => {
                collect_loops(ir, then_body, ssa, out);
                collect_loops(ir, else_body, ssa, out);
            }
            _ => {}
        }
    }
}

/// What a roster proves on every shape: decisive verdicts plus proven
/// array dependences.
fn score(keep: impl Fn(usize) -> bool) -> Vec<usize> {
    SHAPES
        .iter()
        .map(|src| {
            reports(src, &keep)
                .iter()
                .map(|l| usize::from(l.verdict != Verdict::Unknown) + l.array_deps.len())
                .sum()
        })
        .collect()
}

#[test]
fn every_roster_pass_changes_what_the_dependence_tests_prove() {
    let full = score(|_| true);
    for (k, pass) in standard_pipeline().iter().enumerate() {
        let without = score(|i| i != k);
        assert!(
            without.iter().sum::<usize>() < full.iter().sum::<usize>(),
            "the roster without `{}` proves as much as the full roster \
             (per shape {without:?} against {full:?}): it decides no verdict",
            pass.name()
        );
    }
}
