//! Differential gate for the reference evaluator.
//!
//! `reference/mod.rs` keeps the evaluator as it was before its scopes
//! became one binding stack and its globals one flat vector. Every input
//! here is evaluated by both under the same limits, and the two must
//! agree exactly:
//!
//! - a completed run: the return value and every global cell, compared
//!   bit for bit with any `NaN` equal to any `NaN`, and `steps`;
//! - a stopped run: the error's line, message and kind.
//!
//! Because every budget verdict depends on `steps`, equal step counts and
//! equal budget errors at many small `max_steps` show that both take the
//! same steps in the same order.
//!
//! Inputs: the 19 bundled models, 200 generated programs (the seeds of the
//! profiler's and the SSA differential gates), and hand-written shapes
//! for the bookkeeping the binding stack replaced: shadowing in nested
//! blocks, `let` redeclared in one scope, `let` in `for` and `while`
//! bodies across iterations, recursion, every fault the evaluator raises,
//! step budgets that run out, and call-depth exhaustion.

mod reference;

use parpat_minilang::{
    evaluate_with_limits, genprog, parse_checked, EvalError, EvalLimits, EvalOutcome,
};

/// Equal bits, or both `NaN`.
fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_outcome(label: &str, new: &EvalOutcome, old: &reference::EvalOutcome) {
    assert!(
        same_f64(new.return_value, old.return_value),
        "{label}: return values differ: new {}, reference {}",
        new.return_value,
        old.return_value
    );
    assert_eq!(new.globals.len(), old.globals.len(), "{label}: global cell counts differ");
    for (cell, (&a, &b)) in new.globals.iter().zip(&old.globals).enumerate() {
        assert!(same_f64(a, b), "{label}: global cell {cell} differs: new {a}, reference {b}");
    }
    assert_eq!(new.steps, old.steps, "{label}: steps differ");
}

fn same_error(label: &str, new: &EvalError, old: &reference::EvalError) {
    assert_eq!(new.line, old.line, "{label}: error lines differ");
    assert_eq!(new.message, old.message, "{label}: error messages differ");
    assert_eq!(format!("{:?}", new.kind), format!("{:?}", old.kind), "{label}: kinds differ");
}

/// Evaluate `src` with both evaluators under `limits` and compare.
/// Returns the new evaluator's result.
fn differential(label: &str, src: &str, limits: EvalLimits) -> Result<EvalOutcome, EvalError> {
    let prog = parse_checked(src).unwrap_or_else(|e| panic!("{label} does not compile: {e}"));
    let new = evaluate_with_limits(&prog, limits);
    let old = reference::evaluate_with_limits(
        &prog,
        reference::EvalLimits {
            max_steps: limits.max_steps,
            max_call_depth: limits.max_call_depth,
        },
    );
    match (&new, &old) {
        (Ok(n), Ok(o)) => same_outcome(label, n, o),
        (Err(n), Err(o)) => same_error(label, n, o),
        _ => panic!("{label}: outcomes differ: new {new:?}, reference {old:?}"),
    }
    new
}

/// The fault `src` must raise under the default limits.
fn faults_with(label: &str, src: &str, message: &str) {
    let err = differential(label, src, EvalLimits::default()).expect_err(label);
    assert!(!err.is_budget(), "{label}: {err}");
    assert!(err.message.contains(message), "{label}: {err}");
}

#[test]
fn bundled_models_evaluate_identically() {
    let apps: Vec<_> =
        parpat_suite::all_apps().into_iter().chain(parpat_suite::synthetic_apps()).collect();
    assert_eq!(apps.len(), 19);
    for app in apps {
        differential(app.name, app.model, EvalLimits::default())
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    }
}

#[test]
fn generated_programs_evaluate_identically_including_faults() {
    let limits = EvalLimits { max_steps: 1_600_000, ..EvalLimits::default() };
    let mut faulted = 0;
    for case in 0..200u64 {
        let seed = 0x00D1_FF00 + case;
        if differential(&format!("seed {seed}"), &genprog::generate(seed), limits).is_err() {
            faulted += 1;
        }
    }
    // Both paths must be exercised: most of the corpus completes, and some
    // of it faults (division by zero, out-of-range subscripts, budget).
    assert!(faulted > 0, "no generated program faulted");
    assert!(faulted < 100, "{faulted}/200 generated programs faulted");
}

#[test]
fn shadowing_in_nested_blocks() {
    let src = "fn main() {
    let x = 1;
    let s = 0;
    if true {
        let x = 2;
        s += x;
        if x > 1 {
            let x = 3;
            s += x * 10;
            x = 4;
            s += x * 100;
        }
        s += x * 1000;
    } else {
        let x = 9;
        s += x;
    }
    s += x * 10000;
    return s;
}";
    let out = differential("shadowing", src, EvalLimits::default()).expect("completes");
    assert_eq!(out.return_value, 12432.0);
}

#[test]
fn let_redeclared_in_one_scope() {
    let src = "global a[2];
fn main() {
    let x = 1;
    let x = x + 1;
    x += 1;
    let y = x;
    let x = y * 10;
    a[0] = x;
    a[1] = y;
    return x + y;
}";
    let out = differential("redeclared", src, EvalLimits::default()).expect("completes");
    assert_eq!(out.return_value, 33.0);
}

#[test]
fn let_in_loop_bodies_across_iterations() {
    // A `for` body shares one scope with its induction variable, so its
    // `let`s (one of them rebinding `i` itself) outlive an iteration; a
    // `while` body gets a fresh scope every iteration. Both shadow an
    // outer variable that must be intact after the loop.
    let src = "global a[8];
fn main() {
    let s = 0;
    let t = 1;
    for i in 0..4 {
        let t = i * 2;
        s += t;
        let t = t + 1;
        a[i] = t;
        let i = i + 100;
        s += i;
    }
    let k = 0;
    while k < 4 {
        let s = s + k * 1000;
        let u = k * 3;
        a[4 + k] = u + s;
        k += 1;
        if k == 3 {
            let s = 1000;
            a[7] = s;
            break;
        }
    }
    return s + k + t;
}";
    let out = differential("loop bodies", src, EvalLimits::default()).expect("completes");
    assert_eq!(out.return_value, 422.0);
}

#[test]
fn recursion_and_calls() {
    let src = "global memo[16];
fn fib(n) {
    if n < 2 { return n; }
    let x = fib(n - 1);
    let y = fib(n - 2);
    memo[n] = x + y;
    return x + y;
}
fn twice(a, b) {
    let a = a * 2;
    return a + b;
}
fn ack(m, n) {
    if m == 0 { return n + 1; }
    if n == 0 { return ack(m - 1, 1); }
    return ack(m - 1, ack(m, n - 1));
}
fn main() {
    let n = 12;
    let r = fib(n) + twice(fib(5), n) + min(twice(1, 2), sqrt(16));
    return r + ack(2, 3);
}";
    let out = differential("recursion", src, EvalLimits::default()).expect("completes");
    assert_eq!(out.return_value, 144.0 + 22.0 + 4.0 + 9.0);
}

#[test]
fn every_fault_is_raised_identically() {
    let cases = [
        ("negative index", "global a[4];\nfn main() {\n    return a[0 - 1];\n}", "out of bounds"),
        ("NaN index", "global a[4];\nfn main() {\n    return a[sqrt(0 - 1)];\n}", "out of bounds"),
        ("too-large index", "global a[4];\nfn main() {\n    a[4] = 1;\n}", "out of bounds"),
        (
            "too-large second index",
            "global m[2][3];\nfn main() {\n    m[1][3] += 1;\n}",
            "out of bounds",
        ),
        ("zero divisor", "fn main() {\n    let z = 0;\n    return 1 / z;\n}", "division by zero"),
        (
            "zero compound divisor",
            "fn main() {\n    let x = 4;\n    x /= 0;\n    return x;\n}",
            "division by zero",
        ),
        ("zero modulus", "fn main() {\n    return 7 % (2 - 2);\n}", "modulo by zero"),
        (
            "fault in a callee",
            "global a[2];\nfn f(i) {\n    return a[i];\n}\nfn main() {\n    return f(1) + f(2);\n}",
            "out of bounds",
        ),
    ];
    for (label, src, message) in cases {
        faults_with(label, src, message);
    }
}

#[test]
fn step_budgets_run_out_identically() {
    let src = "global a[6];
fn f(x) {
    let y = x * 2;
    return y + 1;
}
fn main() {
    let s = 0;
    for i in 0..3 {
        a[i] += f(i) + min(i, 1);
    }
    let k = 0;
    while k < 3 && s >= 0 {
        let t = k;
        s += t;
        k += 1;
    }
    return s;
}";
    let full = differential("budget: unlimited", src, EvalLimits::default()).expect("completes");
    // Every budget below the full run's step count stops it at a different
    // step; each must stop both evaluators at the same line with the same
    // message.
    for max_steps in 0..full.steps {
        let limits = EvalLimits { max_steps, ..EvalLimits::default() };
        let err = differential(&format!("budget {max_steps}"), src, limits)
            .expect_err("budget below the run's steps");
        assert!(err.is_budget(), "budget {max_steps}: {err}");
    }
    let exact = EvalLimits { max_steps: full.steps, ..EvalLimits::default() };
    differential("budget: exact", src, exact).expect("the exact budget suffices");
}

#[test]
fn call_depth_runs_out_identically() {
    let src = "fn r(n) {\n    return r(n + 1);\n}\nfn main() {\n    return r(0);\n}";
    let err =
        differential("unbounded recursion", src, EvalLimits::default()).expect_err("runs out");
    assert!(err.is_budget() && err.message.contains("call depth"), "{err}");
    let fib = "fn fib(n) {\n    if n < 2 { return n; }\n    return fib(n - 1) + fib(n - 2);\n}
fn main() {\n    return fib(6);\n}";
    for max_call_depth in 1..8 {
        let limits = EvalLimits { max_call_depth, ..EvalLimits::default() };
        let _ = differential(&format!("fib depth {max_call_depth}"), fib, limits);
    }
}
