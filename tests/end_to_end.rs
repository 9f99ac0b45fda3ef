//! Cross-crate integration tests: the full pipeline from MiniLang source
//! through profiling, CU graphs, and every detector — exercised on the
//! paper's own examples and on the complete evaluation suite.

use parpat::core::{analyze_source, AnalysisConfig};
use parpat::suite::{all_apps, synthetic_apps, ExpectedPattern};
use parpat_bench::tables::{detected_patterns, matches_paper};

/// Listing 1 of the paper, end to end: perfect pipeline + fusion.
#[test]
fn listing_1_detects_perfect_pipeline() {
    let analysis = analyze_source(
        "global a[128];
global b[128];
fn main() {
    for i in 0..128 { a[i] = i * 2; }
    for j in 0..128 { b[j] = a[j] + 1; }
}",
        &AnalysisConfig::default(),
    )
    .expect("analysis succeeds");
    assert_eq!(analysis.pipelines.len(), 1);
    let p = &analysis.pipelines[0];
    assert!((p.a - 1.0).abs() < 1e-9);
    assert!(p.b.abs() < 1e-9);
    assert!((p.e - 1.0).abs() < 0.01);
    assert_eq!(analysis.fusions.len(), 1);
}

/// The central reproduction claim: for every one of the 17 evaluation
/// applications, the pattern the paper reports is among the detected ones.
#[test]
fn every_app_detection_matches_the_paper() {
    for app in all_apps() {
        let analysis = app.analyze().unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert!(
            matches_paper(&app, &analysis),
            "{}: expected {:?}, detected {:?}",
            app.name,
            app.expected,
            detected_patterns(&analysis)
        );
    }
}

/// The synthetics both reduce; only the dynamic detector is expected to
/// find the cross-module one (checked in detail by the Table VI test).
#[test]
fn synthetics_are_reductions() {
    for app in synthetic_apps() {
        let analysis = app.analyze().unwrap();
        assert!(detected_patterns(&analysis).contains(&ExpectedPattern::Reduction), "{}", app.name);
    }
}

/// Detection is deterministic: two analyses of the same model agree on all
/// counts and coefficients.
#[test]
fn analysis_is_deterministic() {
    let app = parpat::suite::app_named("ludcmp").unwrap();
    let a1 = app.analyze().unwrap();
    let a2 = app.analyze().unwrap();
    assert_eq!(a1.pipelines.len(), a2.pipelines.len());
    for (p1, p2) in a1.pipelines.iter().zip(&a2.pipelines) {
        assert_eq!(p1.a, p2.a);
        assert_eq!(p1.b, p2.b);
        assert_eq!(p1.e, p2.e);
    }
    assert_eq!(a1.reductions, a2.reductions);
    assert_eq!(a1.profile.total_insts, a2.profile.total_insts);
}

/// Negative control: a fully sequential chain must trigger nothing.
#[test]
fn sequential_program_triggers_no_patterns() {
    let analysis = analyze_source(
        "global a[64];
fn main() {
    a[0] = 1;
    for i in 1..64 {
        a[i] = a[i - 1] * 2 % 97;
    }
}",
        &AnalysisConfig::default(),
    )
    .unwrap();
    assert!(analysis.pipelines.is_empty());
    assert!(analysis.fusions.is_empty());
    assert!(analysis.reductions.is_empty());
    assert!(analysis.geodecomp.is_empty());
    assert!(analysis.best_task_report().map(|t| t.estimated_speedup < 1.1).unwrap_or(true));
}

/// The profiler's input sensitivity is mitigated by merging runs: a
/// dependence that only one input exposes survives the merge.
#[test]
fn merged_profiles_expose_input_dependent_behavior() {
    let ir = parpat::ir::compile(
        "global a[64];
fn work(mode) {
    if mode > 0 {
        for i in 1..64 { a[i] = a[i - 1] + 1; }
    } else {
        for i in 1..64 { a[i] = i; }
    }
    return 0;
}
fn main() { work(0); }",
    )
    .unwrap();
    let f = ir.function_named("work").unwrap().id;
    // Mode 0 alone: the first loop never runs → no carried dependence seen.
    let d0 = parpat::profile::profile_function(&ir, f, &[0.0]).unwrap();
    // Merged with mode 1: the carried dependence appears.
    let merged = parpat::profile::profile_merged(&ir, f, &[vec![0.0], vec![1.0]]).unwrap();
    let carried_loops = |d: &parpat::profile::ProfileData| {
        (0..ir.loop_count() as u32).filter(|&l| d.has_carried_raw(l)).count()
    };
    assert_eq!(carried_loops(&d0), 0);
    assert_eq!(carried_loops(&merged), 1);
}

/// Every app's full summary renders without panicking and mentions its
/// pattern family.
#[test]
fn summaries_render_for_all_apps() {
    for app in all_apps() {
        let analysis = app.analyze().unwrap();
        let s = analysis.summary();
        assert!(s.contains("hotspots"), "{}", app.name);
    }
}

/// `parpat --help` into a pipe whose reader has already gone, as
/// `parpat --help | head -0` leaves it: the closed pipe is the reader's
/// choice, so the binary exits 0 and prints nothing, no panic.
#[test]
fn a_closed_stdout_exits_zero_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_parpat"))
        .arg("--help")
        .stdout(writer)
        .output()
        .expect("run parpat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
