//! The fault-injection harness: proves the batch engine completes — with
//! correct slot ordering, byte-identical healthy reports, intact cache
//! state, and accurate stats counters — under injected failures, panics,
//! and stalls at every stage, for both serial and parallel scheduling.

use std::path::PathBuf;
use std::sync::Arc;

use parpat_engine::{
    xorshift64, BatchInput, Engine, EngineConfig, ErrorKind, FaultMode, FaultPlan, Stage,
};
use parpat_ir::ExecLimits;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Six small, distinct programs — enough to exercise scheduling without
/// paying for the full suite in every matrix cell.
fn small_inputs() -> Vec<BatchInput> {
    (0..6)
        .map(|i| {
            let n = 16 + 4 * i;
            BatchInput {
                name: format!("prog{i}"),
                source: format!(
                    "global a[{n}];\nfn main() {{\n    for i in 0..{n} {{ a[i] = i * {}; }}\n}}",
                    i + 1
                ),
            }
        })
        .collect()
}

fn engine_with(faults: Vec<FaultPlan>) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig { faults, ..Default::default() }).expect("engine"))
}

/// Clean-run baseline reports for `inputs` (all must analyze Ok).
fn baseline(inputs: &[BatchInput]) -> Vec<parpat_engine::ProgramReport> {
    let batch = engine_with(Vec::new()).batch(inputs.to_vec(), 1);
    batch
        .outcomes
        .iter()
        .map(|o| o.outcome.report().expect("baseline input analyzes cleanly").clone())
        .collect()
}

#[test]
fn every_stage_and_mode_completes_the_batch_under_both_job_counts() {
    let inputs = small_inputs();
    let clean = baseline(&inputs);
    let mut rng = 0xD1CE_F00D_u64;

    for stage in Stage::ALL {
        for mode in [FaultMode::Fail(ErrorKind::Runtime), FaultMode::Panic] {
            for jobs in [1usize, 8] {
                // Deterministic xorshift selection of the victim input.
                let victim = (xorshift64(&mut rng) as usize) % inputs.len();
                let plan = FaultPlan::at(stage, victim, mode);
                let batch = engine_with(vec![plan]).batch(inputs.clone(), jobs);

                // The batch completes with every slot filled, in order.
                assert_eq!(batch.outcomes.len(), inputs.len());
                for (input, o) in inputs.iter().zip(&batch.outcomes) {
                    assert_eq!(input.name, o.name, "slot order under {plan:?} jobs={jobs}");
                }

                // The victim fails with the right taxonomy...
                let fault = &batch.outcomes[victim];
                let err = fault.outcome.error().unwrap_or_else(|| {
                    panic!("victim survived {plan:?} jobs={jobs}");
                });
                assert_eq!(err.stage, stage);
                match mode {
                    FaultMode::Fail(kind) => assert_eq!(err.kind, kind),
                    FaultMode::Panic => assert_eq!(err.kind, ErrorKind::Panic),
                    FaultMode::Stall(_) | FaultMode::Transient(_) | FaultMode::Miscompile => {
                        unreachable!()
                    }
                }
                // ...degrading to static results exactly when the failure
                // is confined to the dynamic stages.
                assert_eq!(
                    fault.outcome.is_degraded(),
                    stage.is_dynamic(),
                    "degradation rule under {plan:?}"
                );
                if let Some(d) = fault.outcome.degraded() {
                    assert!(d.loops >= 1, "static loop structure present");
                    assert!(d.cus >= 1, "static CU graph present");
                    assert!(!d.doall_candidates.is_empty(), "the loop writes a[i]");
                    assert!(d.summary.contains("degraded analysis"));
                }

                // Healthy programs are byte-identical to a clean run.
                for (i, o) in batch.outcomes.iter().enumerate() {
                    if i != victim {
                        let r = o.outcome.report().unwrap_or_else(|| {
                            panic!("{} not Ok under {plan:?} jobs={jobs}", o.name)
                        });
                        assert_eq!(*r, clean[i], "{} report drifted", o.name);
                    }
                }

                // Counters see exactly one fault of the right class.
                let stats = &batch.stats;
                assert_eq!(stats.panics, u64::from(mode == FaultMode::Panic));
                assert_eq!(stats.degraded, u64::from(stage.is_dynamic()));
                assert_eq!(stats.errors, u64::from(!stage.is_dynamic()));
                assert_eq!(stats.budget_exceeded, 0);
            }
        }
    }
}

#[test]
fn stalled_stages_complete_instead_of_failing() {
    let inputs = small_inputs();
    let clean = baseline(&inputs);
    for jobs in [1usize, 8] {
        let plan = FaultPlan::at(Stage::Profile, 2, FaultMode::Stall(30));
        let batch = engine_with(vec![plan]).batch(inputs.clone(), jobs);
        assert_eq!(batch.stats.errors + batch.stats.degraded, 0);
        for (i, o) in batch.outcomes.iter().enumerate() {
            assert_eq!(*o.outcome.report().expect("stall is slow, not fatal"), clean[i]);
        }
        // The stall shows up as profile wall time, not as a failure.
        assert!(batch.stats.stage(Stage::Profile).wall >= std::time::Duration::from_millis(30));
    }
}

#[test]
fn injected_cache_corrupt_failures_render_the_full_taxonomy() {
    // The CacheCorrupt kind flows through the same isolation path as the
    // rest of the taxonomy when injected at a dynamic stage.
    let inputs = small_inputs();
    let plan = FaultPlan::at(Stage::Rank, 1, FaultMode::Fail(ErrorKind::CacheCorrupt));
    let batch = engine_with(vec![plan]).batch(inputs, 4);
    let err = batch.outcomes[1].outcome.error().expect("victim fails");
    assert_eq!(err.kind, ErrorKind::CacheCorrupt);
    assert!(err.to_string().contains("cache corruption at rank stage"));
    assert!(batch.outcomes[1].outcome.is_degraded(), "rank is dynamic");
}

/// The acceptance scenario from the issue: a batch mixing one
/// infinite-loop program (stopped by the instruction budget), one
/// panicking program, and 15 healthy suite apps completes with the right
/// outcome split, byte-identical healthy reports, and nonzero fault
/// counters.
#[test]
fn acceptance_mixed_batch_with_budget_and_panic_faults() {
    let healthy: Vec<BatchInput> = parpat_suite::all_apps()
        .iter()
        .take(15)
        .map(|a| BatchInput { name: a.name.to_owned(), source: a.model.to_owned() })
        .collect();
    assert_eq!(healthy.len(), 15);

    // Clean run first: baseline reports, and the instruction budget the
    // healthy apps actually need.
    let clean = engine_with(Vec::new()).batch(healthy.clone(), 4);
    let clean_reports: Vec<_> =
        clean.outcomes.iter().map(|o| o.outcome.report().expect("healthy").clone()).collect();
    let max_insts = clean_reports.iter().map(|r| r.insts).max().expect("nonempty");

    let mut inputs = healthy.clone();
    inputs.push(BatchInput {
        name: "spinner".to_owned(),
        source: "fn main() {\n    let x = 0;\n    while true { x += 1; }\n    return x;\n}"
            .to_owned(),
    });
    // The panicky program must share no artifact with a healthy one: were it
    // a copy of one, whichever copy reached the memory tier first would
    // answer the other from the cache, and the armed Detect panic would
    // only fire when `panicky` happened to run first. An uncalled extra
    // function changes the IR (and so every stage key) but not the run.
    let panicky_source =
        format!("{}\nfn panicky_only() {{\n    return 1;\n}}\n", healthy[0].source);
    inputs.push(BatchInput { name: "panicky".to_owned(), source: panicky_source });
    let spinner_idx = 15;
    let panicky_idx = 16;

    // Budget: double the heaviest healthy app, so only the spinner trips.
    let mut cfg = EngineConfig {
        faults: vec![FaultPlan::at(Stage::Detect, panicky_idx, FaultMode::Panic)],
        ..Default::default()
    };
    cfg.analysis.limits = ExecLimits { max_insts: max_insts * 2 + 1000, ..ExecLimits::default() };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = eng.batch(inputs, 8);

    assert_eq!(batch.outcomes.len(), 17);
    // 15 Ok with byte-identical reports.
    for (i, clean) in clean_reports.iter().enumerate() {
        let r = batch.outcomes[i].outcome.report().expect("healthy app stays Ok");
        assert_eq!(*r, *clean, "{} drifted", batch.outcomes[i].name);
    }
    // The spinner degrades on budget; its static results survive.
    let spinner = &batch.outcomes[spinner_idx].outcome;
    assert!(spinner.is_degraded(), "spinner must degrade, got {spinner:?}");
    let d = spinner.degraded().expect("degraded");
    assert_eq!(d.reason.kind, ErrorKind::Budget);
    assert_eq!(d.reason.stage, Stage::Profile);
    assert_eq!(d.loops, 1, "the while loop is still visible statically");
    // The panicking program is confined and classified.
    let panicky = &batch.outcomes[panicky_idx].outcome;
    let err = panicky.error().expect("panic recorded");
    assert_eq!(err.kind, ErrorKind::Panic);
    assert!(panicky.is_degraded(), "detect-stage panic keeps static results");

    // Counters: the acceptance wants nonzero panics and budget_exceeded.
    assert_eq!(batch.stats.panics, 1);
    assert_eq!(batch.stats.budget_exceeded, 1);
    assert_eq!(batch.stats.degraded, 2);
    assert_eq!(batch.stats.errors, 0);
}

#[test]
fn faulted_programs_are_not_cached_as_failures() {
    let dir = temp_dir("no-stale");
    let inputs = small_inputs();
    let clean = baseline(&inputs);

    // Cold run with a panic at rank for input 0, writing through to disk.
    let cfg = EngineConfig {
        cache_dir: Some(dir.clone()),
        faults: vec![FaultPlan::at(Stage::Rank, 0, FaultMode::Panic)],
        ..Default::default()
    };
    let faulty = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = faulty.batch(inputs.clone(), 4);
    assert!(batch.outcomes[0].outcome.is_degraded());

    // A clean engine over the same cache: the victim re-runs and recovers;
    // nothing stale was persisted for it.
    let cfg = EngineConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let recovered = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = recovered.batch(inputs, 4);
    for (i, o) in batch.outcomes.iter().enumerate() {
        assert_eq!(*o.outcome.report().expect("all recover"), clean[i]);
    }
    assert_eq!(batch.stats.errors + batch.stats.degraded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_disk_records_recover_in_the_batch_path() {
    let dir = temp_dir("truncated");
    let inputs = small_inputs();
    let clean = baseline(&inputs);

    let cfg = EngineConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    eng.batch(inputs.clone(), 4);

    // Truncate every record mid-payload — a crash between write and rename
    // on a non-atomic filesystem, at scale.
    let mut truncated = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "rec") {
            let bytes = std::fs::read(&path).expect("record");
            std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
            truncated += 1;
        }
    }
    assert!(truncated > 0, "cold run persisted records");

    // A fresh engine over the damaged cache completes cleanly: corrupt
    // records quarantine to misses, stages re-execute, results match.
    let cfg = EngineConfig { cache_dir: Some(dir.clone()), ..Default::default() };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = eng.batch(inputs, 4);
    for (i, o) in batch.outcomes.iter().enumerate() {
        assert_eq!(*o.outcome.report().expect("recovers"), clean[i]);
    }
    assert_eq!(batch.stats.errors + batch.stats.degraded, 0);
    assert!(batch.stats.cache.recovered > 0, "recoveries counted:\n{}", batch.stats.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_faults_succeed_after_retries_with_recorded_backoff() {
    // Transient(2) fails twice with CacheCorrupt, then succeeds; with
    // --retries 2 the program ends Ok on the third attempt, and the
    // injected clock records the deterministic exponential backoff.
    let inputs = small_inputs();
    let clean = baseline(&inputs);
    let victim = 2;
    let sleeps: Arc<std::sync::Mutex<Vec<std::time::Duration>>> = Arc::default();
    let cfg = EngineConfig {
        faults: vec![FaultPlan::at(Stage::Profile, victim, FaultMode::Transient(2))],
        retries: 2,
        backoff_base_ms: 3,
        ..Default::default()
    };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let rec = Arc::clone(&sleeps);
    eng.set_sleeper(move |d| rec.lock().expect("sleep log").push(d));
    let batch = eng.batch(inputs, 1);

    for (i, o) in batch.outcomes.iter().enumerate() {
        assert_eq!(*o.outcome.report().expect("all Ok after retries"), clean[i]);
    }
    assert_eq!(batch.stats.retries, 2);
    assert_eq!(batch.stats.errors + batch.stats.degraded, 0);
    assert_eq!(
        *sleeps.lock().expect("sleep log"),
        vec![std::time::Duration::from_millis(3), std::time::Duration::from_millis(6)],
        "backoff doubles deterministically from the base"
    );
}

#[test]
fn retry_exhaustion_surfaces_the_transient_failure() {
    // More transient trips than retries: the failure sticks, classified
    // as CacheCorrupt, and the retry counter shows the attempts made.
    let inputs = small_inputs();
    let cfg = EngineConfig {
        faults: vec![FaultPlan::at(Stage::Profile, 0, FaultMode::Transient(9))],
        retries: 2,
        backoff_base_ms: 0,
        ..Default::default()
    };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = eng.batch(inputs, 1);
    let err = batch.outcomes[0].outcome.error().expect("victim still fails");
    assert_eq!(err.kind, ErrorKind::CacheCorrupt);
    assert!(batch.outcomes[0].outcome.is_degraded(), "profile is dynamic");
    assert_eq!(batch.stats.retries, 2);
}

#[test]
fn permanent_failures_are_never_retried() {
    // A runtime fault is a deterministic property of the input; granting
    // retries must not burn attempts on it.
    let inputs = small_inputs();
    let cfg = EngineConfig {
        faults: vec![FaultPlan::at(Stage::Profile, 1, FaultMode::Fail(ErrorKind::Runtime))],
        retries: 3,
        ..Default::default()
    };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = eng.batch(inputs, 1);
    assert!(batch.outcomes[1].outcome.is_degraded());
    assert_eq!(batch.stats.retries, 0);
}

#[test]
fn stalled_jobs_are_cancelled_and_requeued_by_the_watchdog() {
    // A 10-second stall with a ~60ms staleness threshold: the watchdog
    // cancels the silent job, the scheduler requeues it, and the requeued
    // attempt finds the one-shot stall disarmed and completes — the whole
    // batch ends Ok in far less than the stall duration.
    let inputs = small_inputs();
    let clean = baseline(&inputs);
    for jobs in [1usize, 4] {
        let cfg = EngineConfig {
            faults: vec![FaultPlan::at(Stage::Profile, 1, FaultMode::Stall(10_000))],
            watchdog: Some(parpat_runtime::WatchdogConfig {
                poll: std::time::Duration::from_millis(20),
                stale_scans: 3,
            }),
            ..Default::default()
        };
        let eng = Arc::new(Engine::new(cfg).expect("engine"));
        let start = std::time::Instant::now();
        let batch = eng.batch(inputs.clone(), jobs);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(8),
            "watchdog must cut the stall short (jobs={jobs})"
        );
        for (i, o) in batch.outcomes.iter().enumerate() {
            assert_eq!(*o.outcome.report().expect("requeued job recovers"), clean[i]);
        }
        assert_eq!(batch.stats.stall_requeued, 1, "jobs={jobs}");
        assert_eq!(batch.stats.errors + batch.stats.degraded, 0, "jobs={jobs}");
    }
}

#[test]
fn a_stall_without_watchdog_still_completes() {
    // No supervision: the stall just runs its course (kept short here) and
    // the requeue counter stays at zero.
    let inputs = small_inputs();
    let cfg = EngineConfig {
        faults: vec![FaultPlan::at(Stage::CuBuild, 3, FaultMode::Stall(40))],
        ..Default::default()
    };
    let eng = Arc::new(Engine::new(cfg).expect("engine"));
    let batch = eng.batch(inputs, 2);
    assert_eq!(batch.stats.stall_requeued, 0);
    assert_eq!(batch.stats.errors + batch.stats.degraded, 0);
}

#[test]
fn xorshift_fault_campaign_is_reproducible() {
    // Two identical campaigns over xorshift-chosen (stage, victim, mode)
    // triples must produce identical outcome shapes.
    let inputs = small_inputs();
    let campaign = |seed: u64| -> Vec<String> {
        let mut rng = seed;
        let mut shapes = Vec::new();
        for round in 0..6 {
            let stage = Stage::ALL[(xorshift64(&mut rng) as usize) % Stage::ALL.len()];
            let victim = (xorshift64(&mut rng) as usize) % inputs.len();
            let mode = if xorshift64(&mut rng).is_multiple_of(2) {
                FaultMode::Panic
            } else {
                FaultMode::Fail(ErrorKind::Runtime)
            };
            let jobs = if round % 2 == 0 { 1 } else { 8 };
            let batch =
                engine_with(vec![FaultPlan::at(stage, victim, mode)]).batch(inputs.clone(), jobs);
            let shape: Vec<char> = batch
                .outcomes
                .iter()
                .map(|o| {
                    if o.outcome.is_ok() {
                        'O'
                    } else if o.outcome.is_degraded() {
                        'D'
                    } else {
                        'E'
                    }
                })
                .collect();
            shapes.push(shape.into_iter().collect());
        }
        shapes
    };
    let a = campaign(0xBADC_0FFE);
    let b = campaign(0xBADC_0FFE);
    assert_eq!(a, b);
    // Every round produced exactly one non-Ok slot.
    for shape in &a {
        assert_eq!(shape.chars().filter(|&c| c != 'O').count(), 1, "shape {shape}");
    }
}

#[test]
fn an_expired_request_deadline_degrades_without_a_requeue() {
    // An already-expired deadline: the attempt's ExecControl self-cancels
    // at the first interpreter beat, the cancellation is reclassified as
    // Deadline (not Stalled), the scheduler does NOT requeue it, and the
    // dynamic-stage failure still yields a degraded (static-only) report.
    let eng = engine_with(Vec::new());
    let session = eng.open_session();
    // The loop must run past the interpreter's cancel-poll cadence
    // (every DEADLINE_POLL_MASK + 1 instructions), or the run completes
    // before anyone looks at the cancel flag.
    let input = BatchInput {
        name: "deadline-victim".to_owned(),
        source: "global a[64];\nfn main() {\n    let x = 0;\n    for i in 0..200000 { x = x + 1; }\n    for i in 0..64 { a[i] = i * 3; }\n    return x;\n}".to_owned(),
    };
    let po = eng.analyze_in_session_before(&session, &input, Some(std::time::Instant::now()));
    let d = po.outcome.degraded().expect("static artifacts survive a profile-stage deadline");
    assert_eq!(d.reason.kind, ErrorKind::Deadline);
    assert!(d.reason.detail.starts_with("request deadline expired: "), "{}", d.reason.detail);
    let stats = eng.session_stats(&session, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.stall_requeued, 0, "deadlines are terminal, never requeued");
    assert_eq!(stats.degraded, 1);
}

#[test]
fn a_generous_deadline_changes_nothing() {
    let eng = engine_with(Vec::new());
    let session = eng.open_session();
    let inputs = small_inputs();
    let clean = baseline(&inputs);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(600);
    for (i, input) in inputs.iter().enumerate() {
        let po = eng.analyze_in_session_before(&session, input, Some(deadline));
        assert_eq!(*po.outcome.report().expect("completes well before the deadline"), clean[i]);
    }
    let stats = eng.session_stats(&session, 1);
    assert_eq!(stats.deadline_exceeded, 0);
    assert_eq!(stats.errors + stats.degraded, 0);
}
