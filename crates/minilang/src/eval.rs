//! The reference evaluator — the independent half of the differential
//! oracle.
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

use crate::ast::*;

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
    let mut bases = Vec::with_capacity(prog.globals.len());
    let mut cells = 0;
    for g in &prog.globals {
        bases.push(cells);
        cells += g.len();
    }
    let mut ev = Evaluator {
        prog,
        cells: vec![0.0; cells],
        bases,
        vars: Vec::new(),
        frame: 0,
        scope: 0,
        steps: 0,
        depth: 0,
        limits,
    };
    let ret = ev.call(main, 0)?;
    Ok(EvalOutcome { return_value: ret, globals: ev.cells, steps: ev.steps })
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

struct Evaluator<'p> {
    prog: &'p Program,
    /// Every global array's cells, flattened in declaration order.
    cells: Vec<f64>,
    /// Where each global array starts in `cells`.
    bases: Vec<usize>,
    /// The scalar bindings of every open scope of every activation,
    /// innermost last. Names borrow from the AST. Within one scope a name
    /// is bound at most once (`let` replaces), so searching from the end
    /// finds the innermost binding, as a stack of per-scope maps would.
    vars: Vec<(&'p str, f64)>,
    /// Where the current activation's bindings start in `vars`; lookups
    /// never reach below it.
    frame: usize,
    /// Where the innermost open scope's bindings start in `vars`.
    scope: usize,
    steps: u64,
    depth: usize,
    limits: EvalLimits,
}

impl<'p> Evaluator<'p> {
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

    fn get(&self, name: &str) -> Option<f64> {
        self.vars[self.frame..].iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn set(&mut self, name: &str, v: f64) -> bool {
        match self.vars[self.frame..].iter_mut().rev().find(|(n, _)| *n == name) {
            Some(slot) => {
                slot.1 = v;
                true
            }
            None => false,
        }
    }

    /// Bind `name` in the innermost scope, replacing its binding there.
    fn declare(&mut self, name: &'p str, v: f64) {
        match self.vars[self.scope..].iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.vars.push((name, v)),
        }
    }

    /// Open a scope; returns the enclosing scope's mark for [`Self::close`].
    fn open(&mut self) -> usize {
        std::mem::replace(&mut self.scope, self.vars.len())
    }

    /// Drop the innermost scope's bindings and reopen `outer`.
    fn close(&mut self, outer: usize) {
        self.vars.truncate(self.scope);
        self.scope = outer;
    }

    /// Run `f` on the arguments in `vars[args..]`, which the caller pushed
    /// unnamed and which become the bindings of `f`'s parameters.
    fn call(&mut self, f: &'p Function, args: usize) -> Result<f64, EvalError> {
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
        let caller = (self.frame, self.scope);
        (self.frame, self.scope) = (args, args);
        for (slot, p) in self.vars[args..].iter_mut().zip(&f.params) {
            slot.0 = p.as_str();
        }
        let flow = self.block(&f.body)?;
        self.vars.truncate(args);
        (self.frame, self.scope) = caller;
        self.depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => 0.0,
        })
    }

    fn block(&mut self, b: &'p Block) -> Result<Flow, EvalError> {
        let outer = self.open();
        let mut out = Flow::Normal;
        for s in &b.stmts {
            match self.stmt(s)? {
                Flow::Normal => {}
                other => {
                    out = other;
                    break;
                }
            }
        }
        self.close(outer);
        Ok(out)
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<Flow, EvalError> {
        self.step(s.line())?;
        match s {
            Stmt::Let { name, init, line } => {
                let v = self.expr(init)?.num(*line)?;
                self.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value, line } => {
                self.assign(target, *op, value, *line)?;
                Ok(Flow::Normal)
            }
            Stmt::For { var, start, end, body, line } => {
                let start = self.expr(start)?.num(*line)?;
                let end = self.expr(end)?.num(*line)?;
                // One scope for the whole loop: the body's `let`s share it
                // with the induction variable and survive across iterations.
                let outer = self.open();
                self.declare(var, start);
                let mut i = start;
                let mut out = Flow::Normal;
                'iters: while i < end {
                    self.step(*line)?;
                    self.set(var, i);
                    for s in &body.stmts {
                        match self.stmt(s)? {
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
                self.close(outer);
                Ok(out)
            }
            Stmt::While { cond, body, line } => {
                let mut out = Flow::Normal;
                'iters: loop {
                    let c = self.expr(cond)?.boolean(*line)?;
                    self.step(*line)?;
                    if !c {
                        break;
                    }
                    // A fresh scope per iteration.
                    let outer = self.open();
                    for s in &body.stmts {
                        match self.stmt(s)? {
                            Flow::Normal => {}
                            Flow::Break => {
                                self.close(outer);
                                break 'iters;
                            }
                            ret => {
                                out = ret;
                                self.close(outer);
                                break 'iters;
                            }
                        }
                    }
                    self.close(outer);
                }
                Ok(out)
            }
            Stmt::If { cond, then_block, else_block, line } => {
                let c = self.expr(cond)?.boolean(*line)?;
                if c {
                    self.block(then_block)
                } else if let Some(e) = else_block {
                    self.block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Expr { expr, .. } => {
                self.expr(expr)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, line } => {
                let v = match value {
                    Some(e) => self.expr(e)?.num(*line)?,
                    None => 0.0,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
        }
    }

    fn assign(
        &mut self,
        target: &'p LValue,
        op: AssignOp,
        value: &'p Expr,
        line: u32,
    ) -> Result<(), EvalError> {
        match target {
            LValue::Var(name) => {
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    self.get(name).ok_or_else(|| {
                        EvalError::fault(line, format!("undeclared variable `{name}`"))
                    })?
                };
                let rhs = self.expr(value)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                if !self.set(name, v) {
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
                let store_at = self.element(array, indices, line)?;
                let old = if op == AssignOp::Set {
                    0.0
                } else {
                    let reload_at = self.element(array, indices, line)?;
                    self.cells[reload_at]
                };
                let rhs = self.expr(value)?.num(line)?;
                let v = apply_assign(op, old, rhs, line)?;
                self.cells[store_at] = v;
                Ok(())
            }
        }
    }

    /// Resolve `array[indices]` to its offset in `cells`.
    fn element(&mut self, array: &str, indices: &'p [Expr], line: u32) -> Result<usize, EvalError> {
        let prog = self.prog;
        let ai = prog
            .globals
            .iter()
            .position(|g| g.name == array)
            .ok_or_else(|| EvalError::fault(line, format!("unknown array `{array}`")))?;
        let dims = &prog.globals[ai].dims;
        if indices.len() != dims.len() {
            return Err(EvalError::fault(
                line,
                format!(
                    "array `{array}` has {} dimension(s) but {} index(es) were given",
                    dims.len(),
                    indices.len()
                ),
            ));
        }
        let mut resolved = [0usize; 2];
        for (k, ix) in indices.iter().enumerate() {
            let v = self.expr(ix)?.num(line)?;
            let idx = v.trunc();
            let dim = dims[k];
            if idx < 0.0 || idx as usize >= dim || idx.is_nan() {
                let name = &prog.globals[ai].name;
                return Err(EvalError::fault(
                    line,
                    format!("index {idx} out of bounds for dimension {k} of `{name}` (size {dim})"),
                ));
            }
            resolved[k] = idx as usize;
        }
        let row = if dims.len() == 2 { dims[1] } else { 1 };
        let at = resolved[0] * row + if indices.len() == 2 { resolved[1] } else { 0 };
        Ok(self.bases[ai] + at)
    }

    fn expr(&mut self, e: &'p Expr) -> Result<Value, EvalError> {
        self.step(e.line())?;
        match e {
            Expr::Number { value, .. } => Ok(Value::Num(*value)),
            Expr::Bool { value, .. } => Ok(Value::Bool(*value)),
            Expr::Var { name, line } => match self.get(name) {
                Some(v) => Ok(Value::Num(v)),
                None => Err(EvalError::fault(*line, format!("undeclared variable `{name}`"))),
            },
            Expr::Index { array, indices, line } => {
                let at = self.element(array, indices, *line)?;
                Ok(Value::Num(self.cells[at]))
            }
            Expr::Call { callee, args, line } => {
                // Arguments go onto the binding stack unnamed, so the
                // caller's later lookups pass over them; a user callee's
                // frame opens on them and names them.
                let base = self.vars.len();
                for a in args {
                    let v = self.expr(a)?.num(*line)?;
                    self.vars.push(("", v));
                }
                if is_builtin(callee) {
                    let out = builtin(callee, &self.vars[base..], *line)?;
                    self.vars.truncate(base);
                    return Ok(Value::Num(out));
                }
                let f = self.prog.function(callee).ok_or_else(|| {
                    EvalError::fault(*line, format!("unknown function `{callee}`"))
                })?;
                if args.len() != f.params.len() {
                    return Err(EvalError::fault(
                        *line,
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            f.params.len(),
                            args.len()
                        ),
                    ));
                }
                Ok(Value::Num(self.call(f, base)?))
            }
            Expr::Unary { op, operand, line } => {
                let v = self.expr(operand)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.num(*line)?)),
                    UnOp::Not => Ok(Value::Bool(!v.boolean(*line)?)),
                }
            }
            Expr::Binary { op, lhs, rhs, line } => {
                if op.is_logical() {
                    let l = self.expr(lhs)?.boolean(*line)?;
                    let take_rhs = match op {
                        BinOp::And => l,
                        _ => !l,
                    };
                    let out = if take_rhs { self.expr(rhs)?.boolean(*line)? } else { l };
                    return Ok(Value::Bool(out));
                }
                let l = self.expr(lhs)?.num(*line)?;
                let r = self.expr(rhs)?.num(*line)?;
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

/// Apply a builtin to its arguments, as the caller pushed them unnamed.
fn builtin(name: &str, args: &[(&str, f64)], line: u32) -> Result<f64, EvalError> {
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
        "sqrt" => args[0].1.sqrt(),
        "abs" => args[0].1.abs(),
        "min" => args[0].1.min(args[1].1),
        "max" => args[0].1.max(args[1].1),
        "floor" => args[0].1.floor(),
        _ => return Err(EvalError::fault(line, format!("unknown builtin `{name}`"))),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::parse_checked;

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
