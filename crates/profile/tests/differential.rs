//! Differential gate for the dependence profiler.
//!
//! `reference/mod.rs` keeps the profiler as it was before its tables were
//! flattened and its inserts deduplicated. Every input here runs twice
//! under the same limits, once under each profiler, and the two
//! [`ProfileData`] values must agree field for field. Runs that fault
//! (a runtime error or an exhausted budget) must fault identically and
//! still agree on everything recorded up to the fault. Every profile of a
//! completed run must also pass [`sanitize_profile`].
//!
//! Inputs: the 17 bundled apps, 200 generated programs (the seeds of the
//! SSA differential gate), and hand-written shapes that stress the tables'
//! bookkeeping: one loop id stacked many times by recursion, one callee
//! loop reached from two call sites, parameter stores, and inner loops
//! re-entered across outer iterations.

mod reference;

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

use parpat_ir::event::Observer;
use parpat_ir::{run_function, ExecLimits, IrProgram, RuntimeError};
use parpat_minilang::{genprog, parse_checked};
use parpat_profile::{sanitize_profile, DependenceProfiler, ProfileData};

/// Run `main` under `obs`; the return value or the fault.
fn run(ir: &IrProgram, obs: &mut dyn Observer, limits: ExecLimits) -> Result<f64, RuntimeError> {
    let entry = ir.entry.expect("program has `main`");
    run_function(ir, entry, &[], obs, limits).map(|o| o.return_value)
}

/// Panic with the first few elements only one side of a set holds.
fn same_set<T: Eq + Hash + Debug>(label: &str, field: &str, new: &HashSet<T>, old: &HashSet<T>) {
    if new != old {
        let extra: Vec<_> = new.difference(old).take(5).collect();
        let missing: Vec<_> = old.difference(new).take(5).collect();
        panic!("{label}: `{field}` differs: only new {extra:?}, only reference {missing:?}");
    }
}

fn same_profile(label: &str, new: &ProfileData, old: &ProfileData) {
    same_set(label, "deps", &new.deps, &old.deps);
    same_set(label, "region_deps", &new.region_deps, &old.region_deps);
    assert!(new.loop_access_lines == old.loop_access_lines, "{label}: `loop_access_lines` differs");
    assert!(new.cross_loop_pairs == old.cross_loop_pairs, "{label}: `cross_loop_pairs` differs");
    assert_eq!(new.loop_stats, old.loop_stats, "{label}: `loop_stats` differs");
    assert!(new.inst_counts == old.inst_counts, "{label}: `inst_counts` differs");
    assert_eq!(new.total_insts, old.total_insts, "{label}: `total_insts` differs");
    assert_eq!(new.runs, old.runs, "{label}: `runs` differs");
}

/// Profile `src` with both profilers and compare. Returns the new
/// profile when the run completed, `None` when it faulted.
fn differential(label: &str, src: &str, limits: ExecLimits) -> Option<ProfileData> {
    let ast = parse_checked(src).unwrap_or_else(|e| panic!("{label} does not compile: {e}"));
    let ir = parpat_ir::lower(&ast);

    let mut new = DependenceProfiler::new(&ir);
    let new_outcome = run(&ir, &mut new, limits);
    let new = new.into_data();
    let mut old = reference::DependenceProfiler::new(&ir);
    let old_outcome = run(&ir, &mut old, limits);
    let old = old.into_data();

    match (&new_outcome, &old_outcome) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{label}: return values differ"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: faults differ"),
        _ => panic!("{label}: outcomes differ: {new_outcome:?} vs {old_outcome:?}"),
    }
    same_profile(label, &new, &old);
    if new_outcome.is_err() {
        return None;
    }
    let rejects = sanitize_profile(&ir, &new);
    assert!(rejects.is_empty(), "{label}: sanitizer rejects the profile: {rejects:?}");
    Some(new)
}

#[test]
fn bundled_apps_profile_identically() {
    let apps = parpat_suite::all_apps();
    assert_eq!(apps.len(), 17);
    for app in apps {
        let p = differential(app.name, app.model, ExecLimits::default())
            .unwrap_or_else(|| panic!("{} faulted", app.name));
        assert!(!p.deps.is_empty(), "{}: no dependences recorded", app.name);
    }
}

#[test]
fn generated_programs_profile_identically_including_faults() {
    let limits = ExecLimits { max_insts: 400_000, ..ExecLimits::default() };
    let mut faulted = 0;
    for case in 0..200u64 {
        let seed = 0x00D1_FF00 + case;
        let src = genprog::generate(seed);
        if differential(&format!("seed {seed}"), &src, limits).is_none() {
            faulted += 1;
        }
    }
    // Both paths must be exercised: most of the corpus completes, and some
    // of it faults (division by zero, out-of-range subscripts, budget).
    assert!(faulted > 0, "no generated program faulted");
    assert!(faulted < 100, "{faulted}/200 generated programs faulted");
}

#[test]
fn recursion_stacks_one_loop_id_many_times() {
    let p = differential(
        "recursion in a loop",
        "global a[8];
fn walk(d) {
    if d < 1 { return 0; }
    let s = 0;
    for i in 0..3 {
        a[d] = a[d] + i;
        s += walk(d - 1) + a[d - 1];
    }
    return s;
}
fn main() { return walk(5); }",
        ExecLimits::default(),
    )
    .expect("completes");
    assert!(p.has_carried_raw(0), "a[d] accumulates across iterations");
}

#[test]
fn one_callee_loop_from_two_call_sites() {
    differential(
        "callee loop from two sites",
        "global g[8];
fn fill(base) {
    for i in 0..8 { g[i] = g[i] + base; }
    return g[0];
}
fn main() {
    let t = fill(1);
    for k in 0..3 {
        t += fill(k);
        t += g[k];
    }
    return t;
}",
        ExecLimits::default(),
    )
    .expect("completes");
}

#[test]
fn parameter_stores_inside_loops() {
    let p = differential(
        "parameter stores",
        "global a[6];
fn add(x, y) { return x + y; }
fn main() {
    let s = 0;
    for i in 0..6 {
        s = add(i, s);
        a[i] = add(s, a[i]);
    }
    return s;
}",
        ExecLimits::default(),
    )
    .expect("completes");
    let lines = p.loop_access_lines.values().flat_map(|m| m.values());
    assert!(lines.into_iter().any(|l| l.var_name.starts_with("<args of")), "parameter stores");
}

#[test]
fn inner_loops_reentered_across_outer_iterations() {
    let p = differential(
        "re-entered inner loops",
        "global m[4][4];
global r[4];
fn main() {
    let n = 0;
    for t in 0..3 {
        for i in 0..4 {
            for j in 0..4 { m[i][j] = m[i][j] + r[j]; }
            r[i] = m[i][0];
        }
        for k in 0..4 { r[k] = r[k] * 2; }
        while n < t * 2 { n += 1; }
    }
    return n + r[0];
}",
        ExecLimits::default(),
    )
    .expect("completes");
    assert!(!p.cross_loop_pairs.is_empty(), "sibling loops exchange data");
}
