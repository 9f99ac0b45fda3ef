//! The reference evaluator as it stood before its scopes became one
//! binding stack, kept verbatim as the reference side of the evaluator's
//! differential gate (`tests/differential.rs`). Only this doc and the
//! imports differ from the original: they name `parpat_minilang` instead
//! of `crate`. Do not optimise this file; its value is that it is the
//! obvious implementation: one `HashMap` per lexical scope, one backing
//! vector per global array.
//!
//! The original's doc, unchanged:
//!
//! Walks the AST directly: no lowering, no IR, no instrumentation, no
//! shared code with `parpat-ir`'s interpreter beyond the language
//! definition itself. Running a program through both and comparing the
//! final return value and observable global-array state catches silent
//! miscompiles — the one failure mode panic isolation and budgets cannot
//! see, because a miscompiled pipeline *succeeds* with wrong answers.
//!
//! Semantics mirrored from the language definition (and checked against
//! the interpreter by the generative differential fuzz suite):
//!
//! - all numbers are `f64`; booleans are a distinct value class;
//! - array indices truncate toward zero and are bounds-checked; negative,
//!   `NaN` and too-large indices are faults;
//! - division and modulo by zero are faults (`%` is `f64::rem_euclid`);
//! - `for` bounds are evaluated once on entry; `&&`/`||` short-circuit;
//! - compound assignment `t op= v` evaluates `t`'s indices, re-evaluates
//!   them for the old-value load, then evaluates `v` (matching the
//!   load → compute → store desugaring order of the lowering pass);
//! - a missing `return` yields `0.0`; evaluation is bounded by
//!   [`EvalLimits`] so hostile programs terminate with a budget error.

use std::collections::HashMap;

use parpat_minilang::ast::*;

/// Budgets for a reference evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Maximum number of evaluation steps (statements + expression nodes).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits { max_steps: 500_000_000, max_call_depth: 128 }
    }
}

/// Why a reference evaluation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalErrorKind {
    /// The program itself faulted (out-of-bounds index, zero divisor, …).
    Fault,
    /// An [`EvalLimits`] budget ran out — says nothing about the program.
    Budget,
}

/// A structured evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Fault vs. exhausted budget.
    pub kind: EvalErrorKind,
}

impl EvalError {
    fn fault(line: u32, message: String) -> Self {
        EvalError { line, message, kind: EvalErrorKind::Fault }
    }

    fn budget(line: u32, message: String) -> Self {
        EvalError { line, message, kind: EvalErrorKind::Budget }
    }

    /// True when the error is an exhausted budget rather than a fault.
    pub fn is_budget(&self) -> bool {
        self.kind == EvalErrorKind::Budget
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation error at line {}: {}", self.line, self.message)
    }
}

/// Result of a completed reference evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// `main`'s return value.
    pub return_value: f64,
    /// Final global-array state, arrays flattened in declaration order —
    /// the same layout the lowering pass assigns base addresses in, so the
    /// vector is directly comparable with the interpreter's backing store.
    pub globals: Vec<f64>,
    /// Evaluation steps consumed.
    pub steps: u64,
}

/// Evaluate a checked program's `main` under the default limits.
pub fn evaluate(prog: &Program) -> Result<EvalOutcome, EvalError> {
    evaluate_with_limits(prog, EvalLimits::default())
}

/// Evaluate a checked program's `main` under explicit limits.
pub fn evaluate_with_limits(prog: &Program, limits: EvalLimits) -> Result<EvalOutcome, EvalError> {
    let main = prog
        .function("main")
        .ok_or_else(|| EvalError::fault(0, "program has no `main` function".into()))?;
    let mut arrays = Vec::with_capacity(prog.globals.len());
    for g in &prog.globals {
        arrays.push(vec![0.0f64; g.len()]);
    }
    let mut ev = Evaluator { prog, arrays, steps: 0, depth: 0, limits };
    let ret = ev.call(main, &[])?;
    let mut globals = Vec::new();
    for a in &ev.arrays {
        globals.extend_from_slice(a);
    }
    Ok(EvalOutcome { return_value: ret, globals, steps: ev.steps })
}

/// Compare an [`EvalOutcome`] against an interpreter result, returning a
/// first-divergence report (`None` when the two agree). `NaN` cells are
/// considered equal to `NaN` — both sides perform the same IEEE operations,
/// so a shared `NaN` is agreement, not divergence.
pub fn divergence(
    prog: &Program,
    oracle: &EvalOutcome,
    interp_return: f64,
    interp_globals: &[f64],
) -> Option<String> {
    fn same(a: f64, b: f64) -> bool {
        a == b || (a.is_nan() && b.is_nan())
    }
    if !same(oracle.return_value, interp_return) {
        return Some(format!(
            "return value diverges: reference {} vs interpreter {}",
            oracle.return_value, interp_return
        ));
    }
    if oracle.globals.len() != interp_globals.len() {
        return Some(format!(
            "global state size diverges: reference {} cell(s) vs interpreter {}",
            oracle.globals.len(),
            interp_globals.len()
        ));
    }
    for (flat, (&a, &b)) in oracle.globals.iter().zip(interp_globals).enumerate() {
        if !same(a, b) {
            return Some(format!(
                "first divergence at {}: reference {a} vs interpreter {b}",
                cell_name(prog, flat)
            ));
        }
    }
    None
}

/// Map a flat cell offset (declaration-order layout) back to `name[i]` /
/// `name[i][j]` for reporting.
fn cell_name(prog: &Program, flat: usize) -> String {
    let mut offset = flat;
    for g in &prog.globals {
        if offset < g.len() {
            return if g.dims.len() == 2 {
                format!("{}[{}][{}]", g.name, offset / g.dims[1], offset % g.dims[1])
            } else {
                format!("{}[{offset}]", g.name)
            };
        }
        offset -= g.len();
    }
    format!("cell {flat}")
}

/// A runtime value; the same two-type discipline the interpreter enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Num(f64),
    Bool(bool),
}

impl Value {
    fn num(self, line: u32) -> Result<f64, EvalError> {
        match self {
            Value::Num(n) => Ok(n),
            Value::Bool(_) => Err(EvalError::fault(line, "expected a number".into())),
        }
    }

    fn boolean(self, line: u32) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Num(_) => Err(EvalError::fault(line, "expected a boolean".into())),
        }
    }
}

enum Flow {
    Normal,
    Break,
    Return(f64),
}

/// Lexical scopes of one activation: a stack of name → value maps.
struct Frame {
    scopes: Vec<HashMap<String, f64>>,
}

impl Frame {
    fn get(&self, name: &str) -> Option<f64> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn set(&mut self, name: &str, v: f64) -> bool {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = v;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, v: f64) {
        if let Some(s) = self.scopes.last_mut() {
            s.insert(name.to_owned(), v);
        }
    }
}

struct Evaluator<'p> {
    prog: &'p Program,
    /// One backing vector per global array, in declaration order.
    arrays: Vec<Vec<f64>>,
    steps: u64,
    depth: usize,
    limits: EvalLimits,
}

impl Evaluator<'_> {
    fn step(&mut self, line: u32) -> Result<(), EvalError> {
        self.steps += 1;
        if self.steps > self.limits.max_steps {
            return Err(EvalError::budget(
                line,
                format!("step limit of {} exceeded", self.limits.max_steps),
            ));
        }
        Ok(())
    }

    fn call(&mut self, f: &Function, args: &[f64]) -> Result<f64, EvalError> {
        if self.depth >= self.limits.max_call_depth {
            return Err(EvalError::budget(
                f.line,
                format!(
                    "call depth limit of {} exceeded entering `{}`",
                    self.limits.max_call_depth, f.name
                ),
            ));
        }
        self.depth += 1;
        let mut scope = HashMap::new();
        for (p, &v) in f.params.iter().zip(args) {
            scope.insert(p.clone(), v);
        }
        let mut frame = Frame { scopes: vec![scope] };
        let flow = self.block(&f.body, &mut frame)?;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => 0.0,
        })
    }

    fn block(&mut self, b: &Block, frame: &mut Frame) -> Result<Flow, EvalError> {
        frame.scopes.push(HashMap::new());
        let mut out = Flow::Normal;
        for s in &b.stmts {
            match self.stmt(s, frame)? {
                Flow::Normal => {}
                other => {
                    out = other;
                    break;
                }
            }
        }
        frame.scopes.pop();
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt, frame: &mut Frame) -> Result<Flow, EvalError> {
        self.step(s.line())?;
        match s {
            Stmt::Let { name, init, line } => {
                let v = self.expr(init, frame)?.num(*line)?;
                frame.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value, line } => {
                self.assign(target, *op, value, *line, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::For { var, start, end, body, line } => {
                let start = self.expr(start, frame)?.num(*line)?;
                let end = self.expr(end, frame)?.num(*line)?;
                frame.scopes.push(HashMap::new());
                frame.declare(var, start);
                let mut i = start;
                let mut out = Flow::Normal;
                'iters: while i < end {
                    self.step(*line)?;
                    frame.set(var, i);
                    for s in &body.stmts {
                        match self.stmt(s, frame)? {
                            Flow::Normal => {}
                            Flow::Break => break 'iters,
                            ret => {
                                out = ret;
                                break 'iters;
                            }
                        }
                    }
                    i += 1.0;
                }
                frame.scopes.pop();
                Ok(out)
            }
            Stmt::While { cond, body, line } => {
                let mut out = Flow::Normal;
                'iters: loop {
                    let c = self.expr(cond, frame)?.boolean(*line)?;
                    self.step(*line)?;
                    if !c {
                        break;
                    }
                    frame.scopes.push(HashMap::new());
                    for s in &body.stmts {
                        match self.stmt(s, frame)? {
                            Flow::Normal => {}
                            Flow::Break => {
                                frame.scopes.pop();
                                break 'iters;
                            }
                            ret => {
                                out = ret;
                                frame.scopes.pop();
                                break 'iters;
                            }
                        }
                    }
                    frame.scopes.pop();
                }
                Ok(out)
            }
            Stmt::If { cond, then_block, else_block, line } => {
                let c = self.expr(cond, frame)?.boolean(*line)?;
                if c {
                    self.block(then_block, frame)
                } else if let Some(e) = else_block {
                    self.block(e, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Expr { expr, .. } => {
                self.expr(expr, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => self.expr(e, frame)?.num(*line)?,
                    None => 0.0,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
        line: u32,
        frame: &mut Frame,
    ) -> Result<(), EvalError> {
        match target {
            LValue::Var(name) => {
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    frame.get(name).ok_or_else(|| {
                        EvalError::fault(line, format!("undeclared variable `{name}`"))
                    })?
                };
                let rhs = self.expr(value, frame)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                if !frame.set(name, v) {
                    return Err(EvalError::fault(
                        line,
                        format!("assignment to undeclared variable `{name}`"),
                    ));
                }
                Ok(())
            }
            LValue::Index { array, indices } => {
                // Mirror the lowering's evaluation order: store indices
                // first, then (compound only) the reload indices and old
                // value, then the right-hand side.
                let (ai, store_at) = self.element(array, indices, line, frame)?;
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    let (_, reload_at) = self.element(array, indices, line, frame)?;
                    self.arrays[ai][reload_at]
                };
                let rhs = self.expr(value, frame)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                self.arrays[ai][store_at] = v;
                Ok(())
            }
        }
    }

    /// Resolve `array[indices]` to (array number, flat element offset).
    fn element(
        &mut self,
        array: &str,
        indices: &[Expr],
        line: u32,
        frame: &mut Frame,
    ) -> Result<(usize, usize), EvalError> {
        let (ai, g) = self
            .prog
            .globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == array)
            .ok_or_else(|| EvalError::fault(line, format!("unknown array `{array}`")))?;
        if indices.len() != g.dims.len() {
            return Err(EvalError::fault(
                line,
                format!(
                    "array `{array}` has {} dimension(s) but {} index(es) were given",
                    g.dims.len(),
                    indices.len()
                ),
            ));
        }
        let dims = g.dims.clone();
        let name = g.name.clone();
        let mut resolved = [0usize; 2];
        for (k, ix) in indices.iter().enumerate() {
            let v = self.expr(ix, frame)?.num(line)?;
            let idx = v.trunc();
            let dim = dims[k];
            if idx < 0.0 || idx as usize >= dim || idx.is_nan() {
                return Err(EvalError::fault(
                    line,
                    format!("index {idx} out of bounds for dimension {k} of `{name}` (size {dim})"),
                ));
            }
            resolved[k] = idx as usize;
        }
        let row = if dims.len() == 2 { dims[1] } else { 1 };
        Ok((ai, resolved[0] * row + if indices.len() == 2 { resolved[1] } else { 0 }))
    }

    fn expr(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, EvalError> {
        self.step(e.line())?;
        match e {
            Expr::Number { value, .. } => Ok(Value::Num(*value)),
            Expr::Bool { value, .. } => Ok(Value::Bool(*value)),
            Expr::Var { name, line } => match frame.get(name) {
                Some(v) => Ok(Value::Num(v)),
                None => Err(EvalError::fault(*line, format!("undeclared variable `{name}`"))),
            },
            Expr::Index { array, indices, line } => {
                let (ai, at) = self.element(array, indices, *line, frame)?;
                Ok(Value::Num(self.arrays[ai][at]))
            }
            Expr::Call { callee, args, line } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, frame)?.num(*line)?);
                }
                if is_builtin(callee) {
                    return Ok(Value::Num(builtin(callee, &vals, *line)?));
                }
                let f = self.prog.function(callee).ok_or_else(|| {
                    EvalError::fault(*line, format!("unknown function `{callee}`"))
                })?;
                if vals.len() != f.params.len() {
                    return Err(EvalError::fault(
                        *line,
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            f.params.len(),
                            vals.len()
                        ),
                    ));
                }
                Ok(Value::Num(self.call(f, &vals)?))
            }
            Expr::Unary { op, operand, line } => {
                let v = self.expr(operand, frame)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.num(*line)?)),
                    UnOp::Not => Ok(Value::Bool(!v.boolean(*line)?)),
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                if op.is_logical() {
                    let l = self.expr(lhs, frame)?.boolean(*line)?;
                    let take_rhs = match op {
                        BinOp::And => l,
                        _ => !l,
                    };
                    let out = if take_rhs { self.expr(rhs, frame)?.boolean(*line)? } else { l };
                    return Ok(Value::Bool(out));
                }
                let l = self.expr(lhs, frame)?.num(*line)?;
                let r = self.expr(rhs, frame)?.num(*line)?;
                Ok(match op {
                    BinOp::Add => Value::Num(l + r),
                    BinOp::Sub => Value::Num(l - r),
                    BinOp::Mul => Value::Num(l * r),
                    BinOp::Div => Value::Num(arith_div(l, r, *line)?),
                    BinOp::Rem => Value::Num(arith_rem(l, r, *line)?),
                    BinOp::Eq => Value::Bool(l == r),
                    BinOp::Ne => Value::Bool(l != r),
                    BinOp::Lt => Value::Bool(l < r),
                    BinOp::Le => Value::Bool(l <= r),
                    BinOp::Gt => Value::Bool(l > r),
                    BinOp::Ge => Value::Bool(l >= r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
        }
    }
}

fn apply_assign(op: AssignOp, old: f64, rhs: f64, line: u32) -> Result<f64, EvalError> {
    Ok(match op {
        AssignOp::Set => rhs,
        AssignOp::Add => old + rhs,
        AssignOp::Sub => old - rhs,
        AssignOp::Mul => old * rhs,
        AssignOp::Div => arith_div(old, rhs, line)?,
    })
}

fn arith_div(l: f64, r: f64, line: u32) -> Result<f64, EvalError> {
    if r == 0.0 {
        return Err(EvalError::fault(line, "division by zero".into()));
    }
    Ok(l / r)
}

fn arith_rem(l: f64, r: f64, line: u32) -> Result<f64, EvalError> {
    if r == 0.0 {
        return Err(EvalError::fault(line, "modulo by zero".into()));
    }
    Ok(l.rem_euclid(r))
}

fn builtin(name: &str, args: &[f64], line: u32) -> Result<f64, EvalError> {
    let arity = match name {
        "min" | "max" => 2,
        _ => 1,
    };
    if args.len() != arity {
        return Err(EvalError::fault(
            line,
            format!("`{name}` expects {arity} argument(s), got {}", args.len()),
        ));
    }
    Ok(match name {
        "sqrt" => args[0].sqrt(),
        "abs" => args[0].abs(),
        "min" => args[0].min(args[1]),
        "max" => args[0].max(args[1]),
        "floor" => args[0].floor(),
        _ => return Err(EvalError::fault(line, format!("unknown builtin `{name}`"))),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use parpat_minilang::parse_checked;

    fn eval_src(src: &str) -> EvalOutcome {
        evaluate(&parse_checked(src).unwrap()).unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        assert_eq!(eval_src("fn main() { return (1 + 2) * 3 - 4 / 2; }").return_value, 7.0);
        assert_eq!(
            eval_src("fn main() { let s = 0; for i in 0..10 { s += i; } return s; }").return_value,
            45.0
        );
        assert_eq!(
            eval_src(
                "fn main() { let i = 0; while true { i += 1; if i >= 5 { break; } } return i; }"
            )
            .return_value,
            5.0
        );
    }

    #[test]
    fn recursion_and_builtins() {
        let fib = "fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }
fn main() { return fib(10); }";
        assert_eq!(eval_src(fib).return_value, 55.0);
        assert_eq!(
            eval_src("fn main() { return sqrt(16) + min(2, 1) + max(2, 1) + floor(1.9); }")
                .return_value,
            8.0
        );
    }

    #[test]
    fn globals_flatten_in_declaration_order() {
        let out = eval_src(
            "global a[3]; global m[2][2];
fn main() { a[1] = 5; m[1][0] = 7; return 0; }",
        );
        assert_eq!(out.globals, vec![0.0, 5.0, 0.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn faults_match_the_interpreter_contract() {
        let p = parse_checked("fn main() { return 1 / 0; }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.message.contains("division by zero"));
        assert!(!err.is_budget());

        let p = parse_checked("global a[2]; fn main() { a[5] = 1; }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.message.contains("out of bounds"));

        let p = parse_checked("fn main() { return 1 % (2 - 2); }").unwrap();
        assert!(evaluate(&p).unwrap_err().message.contains("modulo by zero"));
    }

    #[test]
    fn budgets_are_distinguishable_from_faults() {
        let p = parse_checked("fn main() { while true { let x = 1; } }").unwrap();
        let err = evaluate_with_limits(&p, EvalLimits { max_steps: 1_000, ..Default::default() })
            .unwrap_err();
        assert!(err.is_budget(), "{err}");

        let p = parse_checked("fn r(n) { return r(n + 1); } fn main() { return r(0); }").unwrap();
        let err = evaluate(&p).unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(err.message.contains("call depth"));
    }

    #[test]
    fn rem_follows_euclid() {
        assert_eq!(eval_src("fn main() { return 7 % 3; }").return_value, 1.0);
        assert_eq!(eval_src("fn main() { return (0 - 7) % 3; }").return_value, 2.0);
    }

    #[test]
    fn compound_array_assignment_loads_then_stores() {
        let out = eval_src("global a[2]; fn main() { a[0] = 3; a[0] += 4; return a[0]; }");
        assert_eq!(out.return_value, 7.0);
    }

    #[test]
    fn divergence_reports_return_value_first() {
        let p = parse_checked("fn main() { return 2; }").unwrap();
        let oracle = evaluate(&p).unwrap();
        assert_eq!(divergence(&p, &oracle, 2.0, &[]), None);
        let d = divergence(&p, &oracle, 3.0, &[]).unwrap();
        assert!(d.contains("return value diverges"), "{d}");
    }

    #[test]
    fn divergence_names_the_first_bad_cell() {
        let p = parse_checked("global a[2]; global m[2][3]; fn main() { }").unwrap();
        let oracle = evaluate(&p).unwrap();
        let mut bad = oracle.globals.clone();
        bad[2 + 4] = 9.0; // m[1][1]
        let d = divergence(&p, &oracle, 0.0, &bad).unwrap();
        assert!(d.contains("m[1][1]"), "{d}");
        let mut bad = oracle.globals.clone();
        bad[1] = 9.0;
        let d = divergence(&p, &oracle, 0.0, &bad).unwrap();
        assert!(d.contains("a[1]"), "{d}");
    }

    #[test]
    fn nan_agreement_is_not_divergence() {
        let p = parse_checked("global a[1]; fn main() { }").unwrap();
        let oracle = EvalOutcome { return_value: f64::NAN, globals: vec![f64::NAN], steps: 1 };
        assert_eq!(divergence(&p, &oracle, f64::NAN, &[f64::NAN]), None);
        assert!(divergence(&p, &oracle, 0.0, &[f64::NAN]).is_some());
    }
}
