//! # parpat-minilang
//!
//! Front end for **MiniLang**, the small imperative language that stands in
//! for C/C++ in this reproduction of *"Automatic Parallel Pattern Detection
//! in the Algorithm Structure Design Space"* (IPPS 2016).
//!
//! The paper's DiscoPoP toolchain compiles C benchmarks with Clang and
//! analyzes LLVM IR. Here, programs are written in MiniLang, parsed into an
//! AST, and lowered (by `parpat-ir`) into a structured register IR whose
//! interpreter doubles as the instrumentation layer. MiniLang was designed so
//! that every kernel in the paper's evaluation — Polybench linear algebra,
//! BOTS recursive task programs, the Starbench/Parsec hotspot structures —
//! can be expressed directly, while keeping the memory model precise enough
//! for exact dynamic data-dependence profiling.
//!
//! ## Example
//!
//! ```
//! use parpat_minilang::{parse_checked, pretty::print_program};
//!
//! let program = parse_checked(
//!     "global a[8];
//!      fn main() {
//!          let s = 0;
//!          for i in 0..8 {
//!              s += a[i];
//!          }
//!      }",
//! )
//! .unwrap();
//! assert_eq!(program.functions.len(), 1);
//! println!("{}", print_program(&program));
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod genprog;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod token;

pub use ast::{AssignOp, BinOp, Block, Expr, Function, GlobalArray, LValue, Program, Stmt, UnOp};
pub use error::{LangError, Phase};
pub use eval::{divergence, evaluate, evaluate_with_limits, EvalError, EvalLimits, EvalOutcome};

/// Parse and semantically check MiniLang source, requiring a `main` function.
///
/// This is the entry point used throughout the workspace: models that pass
/// this function are guaranteed lowerable and executable.
pub fn parse_checked(src: &str) -> Result<Program, LangError> {
    let program = parser::parse(src)?;
    sema::check(&program, true)?;
    Ok(program)
}

/// Parse and semantically check a MiniLang fragment that need not have `main`.
pub fn parse_fragment(src: &str) -> Result<Program, LangError> {
    let program = parser::parse(src)?;
    sema::check(&program, false)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn parse_checked_requires_main() {
        assert!(parse_checked("fn f() {}").is_err());
        assert!(parse_fragment("fn f() {}").is_ok());
    }

    #[test]
    fn parse_checked_accepts_paper_listing_1_shape() {
        // Listing 1 of the paper: two loops where the second depends on the
        // first element-wise (the canonical multi-loop pipeline).
        let src = "
            global a[16];
            global b[16];
            fn main() {
                for i in 0..16 {
                    a[i] = i * 2;
                }
                for j in 0..16 {
                    b[j] = a[j] + 1;
                }
            }";
        let p = parse_checked(src).unwrap();
        assert_eq!(p.globals.len(), 2);
    }
}
