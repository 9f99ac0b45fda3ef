//! Diagnostics with stable codes, severities, and source lines.
//!
//! Every finding the static layer (or the language front-end, via
//! [`crate::lint`]) can produce is identified by a stable [`Code`], so
//! tooling can filter or gate on codes without parsing message text.
//! `L`-codes are language errors; `P`-codes are parallelism findings;
//! `V`-codes are IR verifier violations (see `parpat_ir::verify`).

use std::fmt;

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `L001` — lexical error.
    LexError,
    /// `L002` — parse error.
    ParseError,
    /// `L003` — semantic error.
    SemaError,
    /// `P001` — proven loop-carried flow dependence through an array.
    CarriedArrayDep,
    /// `P002` — proven loop-carried flow dependence through a scalar.
    CarriedScalarDep,
    /// `P003` — loop-carried dependences could not be resolved statically.
    Unresolved,
    /// `P010` — static reduction candidate (`x = x op e` on one line).
    StaticReduction,
    /// `P020` — loop statically proven free of carried flow dependences.
    ProvenDoAll,
    /// `P030` — dynamic do-all verdict contradicted by a proven static
    /// dependence: the dynamic verdict is input-sensitive.
    InputSensitive,
    /// `P031` — static proof of independence contradicted by an observed
    /// dynamic dependence: an internal consistency error.
    ConsistencyError,
    /// `V001` — IR references a local slot outside its function's frame.
    VerifySlot,
    /// `V002` — IR references a function, array, or loop that does not exist.
    VerifyTarget,
    /// `V003` — loop metadata disagrees with the loop statement it describes.
    VerifyLoopMeta,
    /// `V004` — array access rank does not match the array's declared rank.
    VerifyRank,
    /// `V005` — instruction has a missing or impossible source line.
    VerifyLine,
    /// `V006` — instruction metadata is inconsistent with the IR tree.
    VerifyMeta,
    /// `V007` — an SSA value is used where its definition does not
    /// dominate the use.
    SsaUseNotDominated,
    /// `V008` — a phi's operand count disagrees with its block's
    /// predecessor count.
    SsaPhiArity,
    /// `V009` — the control-flow graph behind the SSA form is
    /// structurally malformed.
    SsaMalformedCfg,
}

impl Code {
    /// Every stable code, in id order. The source of truth for
    /// `parpat lint --explain` and the round-trip of [`Code::from_id`].
    pub const ALL: [Code; 19] = [
        Code::LexError,
        Code::ParseError,
        Code::SemaError,
        Code::CarriedArrayDep,
        Code::CarriedScalarDep,
        Code::Unresolved,
        Code::StaticReduction,
        Code::ProvenDoAll,
        Code::InputSensitive,
        Code::ConsistencyError,
        Code::VerifySlot,
        Code::VerifyTarget,
        Code::VerifyLoopMeta,
        Code::VerifyRank,
        Code::VerifyLine,
        Code::VerifyMeta,
        Code::SsaUseNotDominated,
        Code::SsaPhiArity,
        Code::SsaMalformedCfg,
    ];

    /// Look a code up by its stable textual id (e.g. `"P001"`).
    pub fn from_id(id: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.id() == id)
    }
    /// The stable textual id, e.g. `"P001"`.
    pub fn id(self) -> &'static str {
        match self {
            Code::LexError => "L001",
            Code::ParseError => "L002",
            Code::SemaError => "L003",
            Code::CarriedArrayDep => "P001",
            Code::CarriedScalarDep => "P002",
            Code::Unresolved => "P003",
            Code::StaticReduction => "P010",
            Code::ProvenDoAll => "P020",
            Code::InputSensitive => "P030",
            Code::ConsistencyError => "P031",
            Code::VerifySlot => "V001",
            Code::VerifyTarget => "V002",
            Code::VerifyLoopMeta => "V003",
            Code::VerifyRank => "V004",
            Code::VerifyLine => "V005",
            Code::VerifyMeta => "V006",
            Code::SsaUseNotDominated => "V007",
            Code::SsaPhiArity => "V008",
            Code::SsaMalformedCfg => "V009",
        }
    }

    /// One-paragraph documentation of what the code means and what to do
    /// about it, printed by `parpat lint --explain <CODE>`.
    pub fn explain(self) -> &'static str {
        match self {
            Code::LexError => {
                "The source text contains a character or token the MiniLang lexer does not \
                 recognize. Nothing past the lexical error is analyzed; fix the reported \
                 character first."
            }
            Code::ParseError => {
                "The token stream does not form a valid MiniLang program — a delimiter, \
                 keyword, or expression is missing or misplaced at the reported line. The \
                 program is not analyzed until it parses."
            }
            Code::SemaError => {
                "The program parses but breaks a semantic rule: an undeclared variable or \
                 array, a wrong-rank array access, a duplicate definition, or a call to an \
                 unknown function. The analysis only runs on semantically valid programs."
            }
            Code::CarriedArrayDep => {
                "The dependence tests proved a loop-carried flow dependence through an array: \
                 an iteration writes an element a later iteration reads. The loop cannot run \
                 as a do-all without restructuring. When the dependence distance is constant \
                 it is reported too — a large constant distance may still permit blocked or \
                 skewed parallelization."
            }
            Code::CarriedScalarDep => {
                "A scalar written in one iteration is read in a later one (and the statement \
                 is not a recognized reduction), so the value flows across iterations and \
                 serializes the loop. Privatization does not help; consider whether the \
                 recurrence can be rewritten as a scan or a reduction."
            }
            Code::Unresolved => {
                "The dependence tests could not prove the loop independent or dependent: a \
                 subscript is not affine in the induction variable, a bound is unknown, or a \
                 call's effects are opaque. The message lists each unresolved reason. The \
                 dynamic profiler can still classify the loop for a concrete input."
            }
            Code::StaticReduction => {
                "A statement of the shape `x = x op e` (with `e` not reading `x`) accumulates \
                 into `x` on a single source line — the paper's static reduction pattern. The \
                 loop parallelizes with a privatized accumulator combined by `op` at the end."
            }
            Code::ProvenDoAll => {
                "Every pair of accesses in the loop was proven free of loop-carried flow \
                 dependences by the subscript tests (ZIV/SIV and the symbolic SSA path), so \
                 iterations are independent and the loop is a statically safe do-all \
                 candidate for any input."
            }
            Code::InputSensitive => {
                "The dynamic profile saw no cross-iteration dependence, but the static \
                 analysis proved one exists — the profiled input simply did not exercise it. \
                 Parallelizing on the strength of the dynamic verdict alone would be unsound \
                 for other inputs."
            }
            Code::ConsistencyError => {
                "The static analysis proved the loop independent, yet the dynamic trace \
                 observed a carried dependence. The two layers contradict each other, which \
                 means a bug in the toolchain itself (not in the analyzed program). Report \
                 it; `parpat shrink` can minimize the reproducer."
            }
            Code::VerifySlot => {
                "Lowered IR references a local variable slot outside its function's frame. \
                 The IR is corrupt — results from it would be meaningless, so verification \
                 fails the program."
            }
            Code::VerifyTarget => {
                "Lowered IR references a function, global array, or loop id that does not \
                 exist in the program's tables. The IR is corrupt and the program fails \
                 verification."
            }
            Code::VerifyLoopMeta => {
                "A loop's metadata record (its kind, induction slot, or bounds) disagrees \
                 with the loop statement it describes. Analyses keyed on loop metadata would \
                 reason about the wrong loop."
            }
            Code::VerifyRank => {
                "An array access uses a different number of indices than the array's \
                 declared rank, so the access cannot be mapped to memory and the dependence \
                 tests cannot reason about it."
            }
            Code::VerifyLine => {
                "An instruction carries a missing or impossible source line. Diagnostics and \
                 profiles anchor to source lines, so corrupted line metadata poisons every \
                 downstream report."
            }
            Code::VerifyMeta => {
                "Instruction-level metadata (store/loop instruction ids) is inconsistent \
                 with the IR tree, e.g. a recorded store that no statement performs. The \
                 side tables the analyses rely on do not describe this program."
            }
            Code::SsaUseNotDominated => {
                "In the SSA form built for the sharpened dependence tests, a value is used \
                 in a block its definition does not dominate — the defining computation may \
                 not have happened on some path reaching the use. The SSA construction or a \
                 pass is buggy; the analysis falls back to the affine-only path."
            }
            Code::SsaPhiArity => {
                "A phi node's operand count does not match its block's predecessor count, so \
                 at least one incoming edge has no value (or a stale one). The SSA form is \
                 unusable and the analysis falls back to the affine-only path."
            }
            Code::SsaMalformedCfg => {
                "The control-flow graph behind the SSA form is structurally broken: an edge \
                 to a nonexistent block, an unterminated block, or loop metadata naming \
                 blocks outside the loop. The SSA form is discarded and the analysis falls \
                 back to the affine-only path."
            }
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::LexError
            | Code::ParseError
            | Code::SemaError
            | Code::ConsistencyError
            | Code::VerifySlot
            | Code::VerifyTarget
            | Code::VerifyLoopMeta
            | Code::VerifyRank
            | Code::VerifyLine
            | Code::VerifyMeta
            | Code::SsaUseNotDominated
            | Code::SsaPhiArity
            | Code::SsaMalformedCfg => Severity::Error,
            Code::CarriedArrayDep | Code::CarriedScalarDep | Code::InputSensitive => {
                Severity::Warning
            }
            Code::Unresolved | Code::StaticReduction | Code::ProvenDoAll => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational finding (candidate, proof of independence).
    Info,
    /// Suspicious but not fatal (a dependence that blocks parallelization).
    Warning,
    /// The program is invalid or the toolchain contradicted itself.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding, anchored to a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// 1-based source line the finding is anchored to.
    pub line: u32,
    /// Human-readable message (no trailing period, no location prefix).
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(code: Code, line: u32, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, line, message: message.into() }
    }

    /// Render as one text line: `line 4: warning[P001]: message`.
    pub fn render(&self) -> String {
        format!("line {}: {}[{}]: {}", self.line, self.code.severity(), self.code, self.message)
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\": {}, \"severity\": {}, \"line\": {}, \"message\": {}}}",
            json_str(self.code.id()),
            json_str(self.code.severity().label()),
            self.line,
            json_str(&self.message)
        )
    }
}

/// Sort diagnostics into the stable presentation order: by line, then code,
/// then message.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.line, a.code, &a.message).cmp(&(b.line, b.code, &b.message)));
}

/// JSON string escaping: quotes, backslashes and control characters (`\n`,
/// `\r` and `\t` by name, the rest as `\u00XX`). The workspace's one
/// escaper; `parpat_engine::stats` re-exports it.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn codes_have_unique_ids() {
        let mut ids: Vec<&str> = Code::ALL.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Code::ALL.len());
    }

    #[test]
    fn every_code_round_trips_through_from_id() {
        for c in Code::ALL {
            assert_eq!(Code::from_id(c.id()), Some(c), "{c} does not round-trip");
        }
        assert_eq!(Code::from_id("P999"), None);
        assert_eq!(Code::from_id("p001"), None, "lookups are case-sensitive");
    }

    #[test]
    fn every_code_has_a_substantial_explanation() {
        for c in Code::ALL {
            let e = c.explain();
            assert!(e.len() > 80, "{c} explanation is too thin: {e:?}");
            assert!(!e.ends_with(' '), "{c} explanation has trailing whitespace");
        }
    }

    #[test]
    fn render_is_stable() {
        let d = Diagnostic::new(Code::CarriedArrayDep, 4, "flow dependence on `a`");
        assert_eq!(d.render(), "line 4: warning[P001]: flow dependence on `a`");
    }

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new(Code::SemaError, 2, "unknown variable `x\"y`");
        let j = d.to_json();
        assert!(j.contains("\"code\": \"L003\""));
        assert!(j.contains("\"severity\": \"error\""));
        assert!(j.contains("\\\"y"));
    }

    #[test]
    fn json_str_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("\n\r\t"), "\"\\n\\r\\t\"");
        assert_eq!(json_str("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(json_str("µs · ok"), "\"µs · ok\"");
    }

    #[test]
    fn sort_orders_by_line_then_code() {
        let mut v = vec![
            Diagnostic::new(Code::ProvenDoAll, 9, "b"),
            Diagnostic::new(Code::CarriedArrayDep, 4, "a"),
            Diagnostic::new(Code::CarriedScalarDep, 4, "c"),
        ];
        sort_diagnostics(&mut v);
        assert_eq!(v[0].code, Code::CarriedArrayDep);
        assert_eq!(v[1].code, Code::CarriedScalarDep);
        assert_eq!(v[2].line, 9);
    }
}
