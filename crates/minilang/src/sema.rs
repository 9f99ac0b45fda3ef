//! Semantic analysis for MiniLang.
//!
//! Checks performed:
//!
//! - global arrays: unique names, 1 or 2 dimensions;
//! - functions: unique names, unique parameter names, no name collisions
//!   with globals or builtins;
//! - scalar variables are declared (`let`, parameter, or `for` induction
//!   variable) before use, and never shadow an array;
//! - array references name a declared global with the right number of
//!   indices;
//! - calls target a defined function or builtin with matching arity;
//! - `break` appears only inside a loop;
//! - a simple two-type discipline: arithmetic operates on numbers,
//!   `&&`/`||`/`!` on booleans, conditions are booleans, and statements
//!   cannot store booleans into memory.
//!
//! The checker accumulates *every* violation it can find ([`check_all`])
//! rather than stopping at the first one, so tools like `parpat lint` can
//! show a complete picture in one pass. After an expression fails to type,
//! its uses are not re-reported (cascade suppression): `Checker::ty`
//! returns `None` for "already diagnosed" and callers stay silent on it.
//! [`check`] keeps the original stop-at-first contract on top.

use std::collections::{HashMap, HashSet};

use crate::ast::*;
use crate::error::LangError;

/// The two value types of MiniLang expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Num,
    Bool,
}

/// Check a parsed program, returning an error for the first violation found.
///
/// When `require_main` is set, a zero-parameter `main` function must exist —
/// the interpreter's entry-point contract.
pub fn check(program: &Program, require_main: bool) -> Result<(), LangError> {
    match check_all(program, require_main).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Check a parsed program, returning **every** violation found, in source
/// traversal order (the first element matches what [`check`] returns).
pub fn check_all(program: &Program, require_main: bool) -> Vec<LangError> {
    let mut errors = Vec::new();

    let mut globals: HashMap<&str, &GlobalArray> = HashMap::new();
    // Lowering assigns each global a base address below the frame region at
    // 2^32; a corpus-supplied program whose arrays exceed that region must be
    // rejected here as a diagnostic, not discovered as a panic downstream.
    let mut total_cells = 0u64;
    for g in &program.globals {
        if g.dims.is_empty() || g.dims.len() > 2 {
            errors.push(LangError::sema(
                g.line,
                format!("array `{}` must have 1 or 2 dimensions", g.name),
            ));
        }
        total_cells = total_cells.saturating_add(g.len() as u64);
        if total_cells >= (1u64 << 32) {
            errors.push(LangError::sema(
                g.line,
                format!("global arrays exceed the addressable region at `{}` (2^32 cells)", g.name),
            ));
            total_cells = 0; // report once per offender, then keep counting
        }
        if is_builtin(&g.name) {
            errors.push(LangError::sema(
                g.line,
                format!("array `{}` collides with a builtin function", g.name),
            ));
        }
        if globals.insert(&g.name, g).is_some() {
            errors.push(LangError::sema(g.line, format!("duplicate global `{}`", g.name)));
        }
    }

    let mut functions: HashMap<&str, &Function> = HashMap::new();
    for f in &program.functions {
        if is_builtin(&f.name) {
            errors.push(LangError::sema(
                f.line,
                format!("function `{}` collides with a builtin", f.name),
            ));
        }
        if globals.contains_key(f.name.as_str()) {
            errors.push(LangError::sema(
                f.line,
                format!("function `{}` collides with a global array", f.name),
            ));
        }
        if functions.insert(&f.name, f).is_some() {
            errors.push(LangError::sema(f.line, format!("duplicate function `{}`", f.name)));
        }
    }

    if require_main {
        match functions.get("main") {
            None => {
                errors.push(LangError::sema(0, "program has no `main` function".into()));
            }
            Some(m) if !m.params.is_empty() => {
                errors.push(LangError::sema(m.line, "`main` must take no parameters".into()));
            }
            _ => {}
        }
    }

    for f in &program.functions {
        let mut seen = HashSet::new();
        for p in &f.params {
            if globals.contains_key(p.as_str()) {
                errors.push(LangError::sema(
                    f.line,
                    format!("parameter `{p}` of `{}` shadows a global array", f.name),
                ));
            }
            if !seen.insert(p.as_str()) {
                errors.push(LangError::sema(
                    f.line,
                    format!("duplicate parameter `{p}` in `{}`", f.name),
                ));
            }
        }
        let mut checker = Checker {
            globals: &globals,
            functions: &functions,
            scopes: vec![f.params.iter().cloned().collect()],
            loop_depth: 0,
            errors: Vec::new(),
        };
        checker.block(&f.body);
        errors.append(&mut checker.errors);
    }
    errors
}

struct Checker<'a> {
    globals: &'a HashMap<&'a str, &'a GlobalArray>,
    functions: &'a HashMap<&'a str, &'a Function>,
    scopes: Vec<HashSet<String>>,
    loop_depth: u32,
    errors: Vec<LangError>,
}

impl Checker<'_> {
    fn report(&mut self, line: u32, message: String) {
        self.errors.push(LangError::sema(line, message));
    }

    fn declared(&self, name: &str) -> bool {
        self.scopes.iter().any(|s| s.contains(name))
    }

    fn declare(&mut self, name: &str) {
        self.scopes.last_mut().expect("scope stack never empty").insert(name.to_owned());
    }

    fn block(&mut self, b: &Block) {
        self.scopes.push(HashSet::new());
        for s in &b.stmts {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { name, init, line } => {
                if self.globals.contains_key(name.as_str()) {
                    self.report(*line, format!("local `{name}` shadows a global array"));
                }
                self.expect_ty(init, Ty::Num);
                // Declare even after an error so later uses don't cascade.
                self.declare(name);
            }
            Stmt::Assign { target, value, line, .. } => {
                self.expect_ty(value, Ty::Num);
                match target {
                    LValue::Var(name) => {
                        if !self.declared(name) {
                            self.report(
                                *line,
                                format!("assignment to undeclared variable `{name}`"),
                            );
                        }
                    }
                    LValue::Index { array, indices } => self.check_index(array, indices, *line),
                }
            }
            Stmt::For { var, start, end, body, line } => {
                self.expect_ty(start, Ty::Num);
                self.expect_ty(end, Ty::Num);
                if self.globals.contains_key(var.as_str()) {
                    self.report(*line, format!("loop variable `{var}` shadows a global array"));
                }
                self.scopes.push(HashSet::new());
                self.declare(var);
                self.loop_depth += 1;
                for st in &body.stmts {
                    self.stmt(st);
                }
                self.loop_depth -= 1;
                self.scopes.pop();
            }
            Stmt::While { cond, body, .. } => {
                self.expect_ty(cond, Ty::Bool);
                self.loop_depth += 1;
                self.block(body);
                self.loop_depth -= 1;
            }
            Stmt::If { cond, then_block, else_block, .. } => {
                self.expect_ty(cond, Ty::Bool);
                self.block(then_block);
                if let Some(e) = else_block {
                    self.block(e);
                }
            }
            Stmt::Expr { expr, line } => {
                if !matches!(expr, Expr::Call { .. }) {
                    self.report(*line, "expression statements must be calls".into());
                }
                self.ty(expr);
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.expect_ty(v, Ty::Num);
                }
            }
            Stmt::Break { line } => {
                if self.loop_depth == 0 {
                    self.report(*line, "`break` outside of a loop".into());
                }
            }
        }
    }

    fn check_index(&mut self, array: &str, indices: &[Expr], line: u32) {
        match self.globals.get(array) {
            None => {
                self.report(line, format!("unknown array `{array}`"));
            }
            Some(g) if indices.len() != g.dims.len() => {
                let n_dims = g.dims.len();
                self.report(
                    line,
                    format!(
                        "array `{array}` has {} dimension(s) but {} index(es) were given",
                        n_dims,
                        indices.len()
                    ),
                );
            }
            Some(_) => {}
        }
        for ix in indices {
            self.expect_ty(ix, Ty::Num);
        }
    }

    fn expect_ty(&mut self, e: &Expr, want: Ty) {
        // `None` means the expression was already diagnosed — stay silent.
        if let Some(got) = self.ty(e) {
            if got != want {
                let name = |t| match t {
                    Ty::Num => "number",
                    Ty::Bool => "boolean",
                };
                self.report(e.line(), format!("expected a {}, found a {}", name(want), name(got)));
            }
        }
    }

    fn ty(&mut self, e: &Expr) -> Option<Ty> {
        match e {
            Expr::Number { .. } => Some(Ty::Num),
            Expr::Bool { .. } => Some(Ty::Bool),
            Expr::Var { name, line } => {
                if self.declared(name) {
                    Some(Ty::Num)
                } else if self.globals.contains_key(name.as_str()) {
                    self.report(*line, format!("array `{name}` used without an index"));
                    None
                } else {
                    self.report(*line, format!("undeclared variable `{name}`"));
                    None
                }
            }
            Expr::Index { array, indices, line } => {
                self.check_index(array, indices, *line);
                Some(Ty::Num)
            }
            Expr::Call { callee, args, line } => {
                let arity = if is_builtin(callee) {
                    Some(match callee.as_str() {
                        "min" | "max" => 2,
                        _ => 1,
                    })
                } else if let Some(f) = self.functions.get(callee.as_str()) {
                    Some(f.params.len())
                } else {
                    self.report(*line, format!("unknown function `{callee}`"));
                    None
                };
                if let Some(arity) = arity {
                    if args.len() != arity {
                        self.report(
                            *line,
                            format!("`{callee}` expects {arity} argument(s), got {}", args.len()),
                        );
                    }
                }
                for a in args {
                    self.expect_ty(a, Ty::Num);
                }
                Some(Ty::Num)
            }
            Expr::Unary { op, operand, .. } => match op {
                UnOp::Neg => {
                    self.expect_ty(operand, Ty::Num);
                    Some(Ty::Num)
                }
                UnOp::Not => {
                    self.expect_ty(operand, Ty::Bool);
                    Some(Ty::Bool)
                }
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_arithmetic() {
                    self.expect_ty(lhs, Ty::Num);
                    self.expect_ty(rhs, Ty::Num);
                    Some(Ty::Num)
                } else if op.is_comparison() {
                    self.expect_ty(lhs, Ty::Num);
                    self.expect_ty(rhs, Ty::Num);
                    Some(Ty::Bool)
                } else {
                    self.expect_ty(lhs, Ty::Bool);
                    self.expect_ty(rhs, Ty::Bool);
                    Some(Ty::Bool)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::parser::parse;

    fn ok(src: &str) {
        let p = parse(src).unwrap();
        check(&p, false).unwrap();
    }

    fn err(src: &str) -> LangError {
        let p = parse(src).unwrap();
        check(&p, false).unwrap_err()
    }

    #[test]
    fn accepts_well_formed_program() {
        ok("global a[8]; fn main() { let s = 0; for i in 0..8 { s += a[i]; } }");
    }

    #[test]
    fn rejects_duplicate_global() {
        assert!(err("global a[1]; global a[2];").message.contains("duplicate global"));
    }

    #[test]
    fn rejects_duplicate_function() {
        assert!(err("fn f() {} fn f() {}").message.contains("duplicate function"));
    }

    #[test]
    fn rejects_undeclared_variable_use() {
        assert!(err("fn f() { let x = y; }").message.contains("undeclared variable `y`"));
    }

    #[test]
    fn rejects_assignment_to_undeclared() {
        assert!(err("fn f() { x = 1; }").message.contains("undeclared variable `x`"));
    }

    #[test]
    fn rejects_unknown_array() {
        assert!(err("fn f() { a[0] = 1; }").message.contains("unknown array"));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        assert!(err("global m[2][2]; fn f() { m[0] = 1; }").message.contains("dimension"));
        assert!(err("global a[2]; fn f() { a[0][1] = 1; }").message.contains("dimension"));
    }

    #[test]
    fn rejects_unknown_function() {
        assert!(err("fn f() { g(); }").message.contains("unknown function"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(err("fn g(a) { return a; } fn f() { g(); }").message.contains("argument"));
        assert!(err("fn f() { let x = sqrt(1, 2); }").message.contains("argument"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(err("fn f() { break; }").message.contains("outside"));
    }

    #[test]
    fn accepts_break_inside_while() {
        ok("fn f() { while true { break; } }");
    }

    #[test]
    fn rejects_boolean_stored_to_memory() {
        assert!(err("fn f() { let x = true; }").message.contains("expected a number"));
    }

    #[test]
    fn rejects_number_condition() {
        assert!(err("fn f() { if 1 { } }").message.contains("expected a boolean"));
    }

    #[test]
    fn rejects_array_used_as_scalar() {
        assert!(err("global a[4]; fn f() { let x = a; }").message.contains("without an index"));
    }

    #[test]
    fn requires_main_when_asked() {
        let p = parse("fn f() {}").unwrap();
        assert!(check(&p, true).is_err());
        let p = parse("fn main(x) {}").unwrap();
        assert!(check(&p, true).is_err());
        let p = parse("fn main() {}").unwrap();
        assert!(check(&p, true).is_ok());
    }

    #[test]
    fn loop_variable_scoped_to_body() {
        assert!(err("fn f() { for i in 0..4 { } let x = i; }").message.contains("undeclared"));
    }

    #[test]
    fn let_scoped_to_block() {
        assert!(err("fn f(c) { if c > 0 { let x = 1; } let y = x; }")
            .message
            .contains("undeclared"));
    }

    #[test]
    fn recursion_is_allowed() {
        ok("fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }");
    }

    #[test]
    fn rejects_param_shadowing_global() {
        assert!(err("global a[2]; fn f(a) {}").message.contains("shadows"));
    }

    #[test]
    fn rejects_local_shadowing_global() {
        assert!(err("global a[2]; fn f() { let a = 1; }").message.contains("shadows"));
    }

    #[test]
    fn rejects_non_call_expression_statement() {
        assert!(err("fn f() { 1 + 2; }").message.contains("must be calls"));
    }

    #[test]
    fn builtin_calls_typecheck() {
        ok("fn f(x) { let y = sqrt(abs(x)) + min(x, 1) + max(x, 2) + floor(x); }");
    }

    #[test]
    fn check_all_reports_every_error_in_order() {
        let p = parse("fn f() {\n    let a = nope1;\n    let b = nope2;\n    break;\n}").unwrap();
        let errors = check_all(&p, false);
        assert_eq!(errors.len(), 3, "got: {errors:?}");
        assert!(errors[0].message.contains("nope1"));
        assert!(errors[1].message.contains("nope2"));
        assert!(errors[2].message.contains("outside"));
        assert_eq!((errors[0].line, errors[1].line, errors[2].line), (2, 3, 4));
    }

    #[test]
    fn check_all_suppresses_cascades() {
        // `y` is undeclared once; the failed init must not also produce a
        // type error, and `x` is still declared for later use.
        let p = parse("fn f() { let x = y; return x + 1; }").unwrap();
        let errors = check_all(&p, false);
        assert_eq!(errors.len(), 1, "got: {errors:?}");
    }

    #[test]
    fn check_all_matches_check_on_first_error() {
        let src = "global a[2]; fn f() { let a = 1; b = 2; }";
        let p = parse(src).unwrap();
        let all = check_all(&p, false);
        let first = check(&p, false).unwrap_err();
        assert!(all.len() >= 2);
        assert_eq!(all[0].message, first.message);
    }
}
