//! Static-analysis benchmark: lint throughput over the bundled suite and
//! the per-pass wall time of the SSA optimization pipeline behind the
//! sharpened dependence tests. Writes its report to `BENCH_static.json` in
//! Cargo's per-target temporary directory (`target/tmp`), where ci.sh checks
//! it, besides the printed table.
//!
//! Lint is measured end to end (parse, lower, SSA promotion, passes,
//! dependence tests, diagnostic rendering) because that is the unit an
//! editor or CI integration invokes; the pass breakdown then shows where
//! inside the pipeline the time goes.

use std::time::{Duration, Instant};

use parpat_static::{analyze_function_timed, lint_source, merge_timings, PassTiming, PASS_NAMES};
use parpat_suite::all_apps;

/// Measured passes (the suite is small; averaging smooths scheduler noise).
const PASSES: usize = 5;

/// End-to-end lint wall time over the whole suite, averaged across
/// measured passes, plus the total diagnostic count of one pass.
fn lint_suite() -> (Duration, usize) {
    // Warm-up pass: fault in lazily-initialized app sources.
    let mut diags = 0usize;
    for app in all_apps() {
        diags += lint_source(app.model).len();
    }
    let mut total = Duration::ZERO;
    for _ in 0..PASSES {
        let start = Instant::now();
        for app in all_apps() {
            std::hint::black_box(lint_source(app.model));
        }
        total += start.elapsed();
    }
    (total / PASSES as u32, diags)
}

/// Per-pass timings of the SSA pipeline over every function of every
/// suite app, merged across the whole suite (one pass, not averaged —
/// the per-function runs already aggregate dozens of samples).
fn ssa_pass_breakdown() -> Vec<PassTiming> {
    let mut acc: Vec<PassTiming> = Vec::new();
    for app in all_apps() {
        let ir = parpat_ir::compile(app.model).expect("suite apps compile");
        for f in &ir.functions {
            let (_, timings) = analyze_function_timed(&ir, f.id);
            merge_timings(&mut acc, timings);
        }
    }
    acc
}

fn main() {
    let programs = all_apps().len();
    let (lint_wall, diags) = lint_suite();
    let lint_tput = programs as f64 / lint_wall.as_secs_f64();
    println!(
        "static/lint_suite     {programs} programs in {:>10.3} ms  ({lint_tput:>8.1} programs/s), {diags} diagnostic(s)",
        lint_wall.as_secs_f64() * 1e3
    );

    let breakdown = ssa_pass_breakdown();
    assert_eq!(
        breakdown.iter().map(|t| t.name).collect::<Vec<_>>(),
        PASS_NAMES,
        "the standard roster ran in order"
    );
    for t in &breakdown {
        assert!(t.runs > 0, "pass {} never ran", t.name);
        println!(
            "static/pass           {:<12} {:>4} run(s) in {:>10.3} ms{}",
            t.name,
            t.runs,
            t.nanos as f64 / 1e6,
            if t.changed { "  (changed code)" } else { "" }
        );
    }

    let passes_json: Vec<String> = breakdown
        .iter()
        .map(|t| {
            format!(
                "{{\"pass\": \"{}\", \"runs\": {}, \"wall_ms\": {:.3}, \"changed\": {}}}",
                t.name,
                t.runs,
                t.nanos as f64 / 1e6,
                t.changed
            )
        })
        .collect();
    let json = format!(
        "{{\"programs\": {programs}, \"passes\": {PASSES}, \
         \"lint\": {{\"wall_ms\": {:.3}, \"programs_per_sec\": {:.2}, \"diagnostics\": {diags}}}, \
         \"ssa_passes\": [{}]}}\n",
        lint_wall.as_secs_f64() * 1e3,
        lint_tput,
        passes_json.join(", "),
    );
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_static.json");
    std::fs::write(&out, json).expect("write BENCH_static.json");
    println!("static/report         {}", out.display());

    assert!(diags > 0, "the suite produces diagnostics");
    assert!(
        lint_wall / programs as u32 <= Duration::from_millis(50),
        "linting a suite program averages under 50 ms, got {lint_wall:?} for {programs}"
    );
}
