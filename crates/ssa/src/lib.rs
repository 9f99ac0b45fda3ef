//! Basic-block CFG in SSA form over the parpat tree IR.
//!
//! [`parpat_ir`] keeps programs as structured statement trees — the right
//! shape for the paper's region/loop detectors, the wrong shape for serious
//! dataflow. This crate lowers each [`parpat_ir::ir::IrFunction`] into a
//! classical compiler midsection:
//!
//! 1. [`mod@cfg`] — basic blocks + explicit terminators, lowered directly from
//!    the statement tree (short-circuit `&&`/`||` become control flow,
//!    `for` machinery gets a hidden counter slot so user writes to the
//!    induction variable cannot perturb iteration — exactly the tree
//!    interpreter's semantics);
//! 2. [`dom`] — dominator tree (Cooper–Harvey–Kennedy) and dominance
//!    frontiers;
//! 3. [`ssa`] — phi placement on the iterated dominance frontier and
//!    stack-based renaming, promoting every scalar slot to SSA values;
//! 4. [`pass`] — a [`Pass`] trait and [`PassManager`] that verifies the
//!    function after every pass and records per-pass wall time;
//! 5. [`passes`] — the roster: dominator-scoped value numbering (CSE),
//!    then loop-invariant code motion, the two passes that change a
//!    static dependence verdict;
//! 6. [`verify`] — structural invariants (every use dominated by its def,
//!    phi arity matching predecessors, coherent edges);
//! 7. [`exec`] — an SSA executor with the tree interpreter's exact
//!    semantics, so the differential oracle can run every program through
//!    both pipelines and flag any divergence as a miscompile.
//!
//! `crates/static` consumes the SSA form for its symbolic subscript path:
//! SSA names make "these two subscripts are the same value" and "this value
//! is invariant in that loop" decidable where the tree-level affine model
//! gives up.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cfg;
pub mod dom;
pub mod exec;
pub mod pass;
pub mod passes;
pub mod ssa;
pub mod verify;

pub use cfg::{Block, BlockId, CfgLoop, Inst, Op, SsaFunc, SsaProgram, Term, ValId};
pub use dom::DomTree;
pub use exec::{run_ssa, SsaCapture, SsaExecError, SsaLimits};
pub use pass::{Pass, PassManager, PassTiming};
pub use passes::{standard_pipeline, PASS_NAMES};
pub use ssa::promote_to_ssa;
pub use verify::{verify_func, SsaViolation, SsaViolationKind};

/// Lower a whole program and promote every function to optimized SSA with
/// the standard pass pipeline, returning the program plus the per-pass
/// timings accumulated across all functions.
///
/// This is the one-call entry the static analyzer and the CLI use; tests
/// that need to inspect intermediate states call the stages directly.
pub fn build_optimized(
    ir: &parpat_ir::IrProgram,
) -> Result<(SsaProgram, Vec<PassTiming>), SsaViolation> {
    let mut funcs = Vec::with_capacity(ir.functions.len());
    let mut timings: Vec<PassTiming> = Vec::new();
    for f in &ir.functions {
        let (func, t) = build_optimized_func(ir, f.id)?;
        funcs.push(func);
        merge_timings(&mut timings, t);
    }
    Ok((SsaProgram { funcs }, timings))
}

/// Lower one function, promote it to SSA, and run the standard pipeline.
pub fn build_optimized_func(
    ir: &parpat_ir::IrProgram,
    func: parpat_ir::FuncId,
) -> Result<(SsaFunc, Vec<PassTiming>), SsaViolation> {
    let mut f = SsaFunc::build(ir, func);
    promote_to_ssa(&mut f);
    if let Some(v) = verify::verify_func(&f).into_iter().next() {
        return Err(v);
    }
    let mut pm = PassManager::standard();
    pm.run(&mut f)?;
    Ok((f, pm.into_timings()))
}

/// Fold a function's pass timings into a program-wide accumulator, keyed by
/// pass name (the roster is identical per function, so this is positional).
pub fn merge_timings(acc: &mut Vec<PassTiming>, run: Vec<PassTiming>) {
    if acc.is_empty() {
        *acc = run;
        return;
    }
    for (a, r) in acc.iter_mut().zip(run) {
        debug_assert_eq!(a.name, r.name);
        a.nanos += r.nanos;
        a.runs += r.runs;
        a.changed |= r.changed;
    }
}
