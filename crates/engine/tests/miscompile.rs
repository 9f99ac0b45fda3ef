//! End-to-end verification-subsystem tests: a seeded miscompile (IR
//! corrupted after lowering) must be caught by the differential oracle,
//! classified as [`ErrorKind::Miscompile`], counted separately from
//! ordinary errors, and must NOT produce a degraded static report — the
//! static artifacts of a miscompiled program are equally untrustworthy.

use std::sync::Arc;

use parpat_engine::{
    BatchInput, Engine, EngineConfig, ErrorKind, FaultMode, FaultPlan, Stage,
    SANITIZER_REJECT_PREFIX,
};

fn engine_with(config: EngineConfig) -> Arc<Engine> {
    Arc::new(Engine::new(config).expect("engine"))
}

/// A program whose result depends on a `+` actually adding: swapping the
/// add for a subtract changes both the return value and the global state.
fn seeded_input() -> BatchInput {
    BatchInput {
        name: "seeded".into(),
        source: "global acc[4];\nfn main() {\n    let s = 0;\n    for i in 0..4 {\n        acc[i] = i + 10;\n        s += acc[i];\n    }\n    return s;\n}"
            .into(),
    }
}

#[test]
fn seeded_miscompile_is_caught_by_the_oracle() {
    let plan = FaultPlan::at(Stage::Lower, 0, FaultMode::Miscompile);
    let engine = engine_with(EngineConfig { faults: vec![plan], ..Default::default() });
    let batch = engine.batch(vec![seeded_input()], 1);

    let outcome = &batch.outcomes[0].outcome;
    let err = outcome.error().expect("corrupted IR must not analyze cleanly");
    assert_eq!(err.kind, ErrorKind::Miscompile);
    // SwapAddSub is structurally valid, so the verifier stays silent and
    // the oracle catches the divergence at the profile stage.
    assert_eq!(err.stage, Stage::Profile);
    assert!(err.detail.contains("differential oracle"), "detail: {}", err.detail);

    // No degraded report: the toolchain, not the program, is at fault.
    assert!(outcome.degraded().is_none(), "miscompiles must not degrade to static results");

    assert_eq!(batch.stats.miscompiles, 1);
    assert_eq!(batch.stats.sanitizer_rejects, 0);
    assert_eq!(batch.stats.verified, 1, "the corrupted IR still passed the structural verifier");
    assert_eq!(batch.stats.errors, 1);
    assert_eq!(batch.stats.degraded, 0);
}

#[test]
fn a_reference_fault_where_the_interpreter_succeeds_is_a_miscompile() {
    // Swapping the add makes the IR read `a[2]`, in bounds, while the
    // reference evaluator follows the source to `a[4]` and faults.
    let plan = FaultPlan::at(Stage::Lower, 0, FaultMode::Miscompile);
    let engine = engine_with(EngineConfig { faults: vec![plan], ..Default::default() });
    let input = BatchInput {
        name: "oob".into(),
        source: "global a[4];\nfn main() {\n    let x = 3 + 1;\n    return a[x];\n}".into(),
    };
    let batch = engine.batch(vec![input], 1);

    let outcome = &batch.outcomes[0].outcome;
    let err = outcome.error().expect("the oracle must reject the run");
    assert_eq!(err.kind, ErrorKind::Miscompile);
    assert_eq!(err.stage, Stage::Profile);
    assert_eq!(
        err.detail,
        "differential oracle: reference evaluation faulted (evaluation error at line 4: index 4 \
         out of bounds for dimension 0 of `a` (size 4)) where the interpreter succeeded"
    );
    assert!(outcome.degraded().is_none(), "miscompiles must not degrade to static results");
    assert_eq!(batch.stats.miscompiles, 1);
}

#[test]
fn clean_programs_verify_and_pass_the_sanitizer() {
    let engine = engine_with(EngineConfig { sanitize: true, ..Default::default() });
    let inputs = vec![
        seeded_input(),
        BatchInput {
            name: "reduce".into(),
            source: "fn main() { let s = 0; for i in 0..8 { s += i; } return s; }".into(),
        },
    ];
    let batch = engine.batch(inputs, 2);

    for o in &batch.outcomes {
        assert!(o.outcome.is_ok(), "{} failed: {:?}", o.name, o.outcome.error());
    }
    assert_eq!(batch.stats.verified, 2);
    assert_eq!(batch.stats.miscompiles, 0);
    assert_eq!(batch.stats.sanitizer_rejects, 0);
}

#[test]
fn miscompile_fault_without_an_add_is_harmless() {
    // The corruption applies only when the IR has an Add site; a program
    // without one analyzes cleanly even with the plan armed.
    let plan = FaultPlan::at(Stage::Lower, 0, FaultMode::Miscompile);
    let engine = engine_with(EngineConfig { faults: vec![plan], ..Default::default() });
    let input = BatchInput {
        name: "no-add".into(),
        source: "fn main() { let x = 6; for i in 0..3 { x = x * 2; } return x; }".into(),
    };
    let batch = engine.batch(vec![input], 1);
    assert!(batch.outcomes[0].outcome.is_ok());
    assert_eq!(batch.stats.miscompiles, 0);
    assert_eq!(batch.stats.verified, 1);
}

#[test]
fn miscompile_outcomes_survive_a_journal_resume() {
    // A miscompile recorded in the journal must restore with the same kind
    // and detail, and must be re-accounted into `miscompiles` — the same
    // guarantee the resume suite gives every other error class. The
    // sanitizer prefix contract is what keeps the reject/miscompile split
    // stable across that round-trip.
    assert!(SANITIZER_REJECT_PREFIX.starts_with("trace sanitizer"));

    let dir = std::env::temp_dir().join(format!("parpat-miscompile-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let plan = FaultPlan::at(Stage::Lower, 0, FaultMode::Miscompile);
    let config = |resume| EngineConfig {
        faults: vec![plan],
        cache_dir: Some(dir.clone()),
        resume,
        ..Default::default()
    };

    let first = engine_with(config(false)).batch(vec![seeded_input()], 1);
    assert_eq!(first.stats.miscompiles, 1);

    // Same inputs, resume on: the outcome restores from the journal.
    let second = engine_with(config(true)).batch(vec![seeded_input()], 1);
    assert_eq!(second.stats.resumed, 1, "the journaled outcome must restore");
    assert_eq!(second.stats.miscompiles, 1, "restored miscompiles are re-accounted");
    let err = second.outcomes[0].outcome.error().expect("restored outcome is still an error");
    assert_eq!(err.kind, ErrorKind::Miscompile);
    assert!(err.detail.contains("differential oracle"), "detail survives: {}", err.detail);

    let _ = std::fs::remove_dir_all(&dir);
}
