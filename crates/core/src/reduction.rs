//! Reduction detection (Section III-D, Algorithm 3).
//!
//! A loop is a reduction candidate when a memory address involved in an
//! inter-iteration dependence is written from exactly one source line of the
//! loop and read only at that same line — the `sum += a[i]` shape. Because
//! the check is *dynamic* (it follows the address wherever the accesses
//! happen), reductions whose update lives in another function — the paper's
//! `sum_module` benchmark, which static detectors like icc and Sambamba
//! miss — are found just as easily as lexically-local ones.
//!
//! As in the paper, the reduction *operator* is not identified automatically;
//! the report names the loop, the variable, and the source line, and the
//! programmer confirms the operation is associative.

use parpat_ir::{IrProgram, LoopId};
use parpat_profile::{AccessLines, Lines, ProfileData};

/// One reduction candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionReport {
    /// The loop the reduction runs over.
    pub l: LoopId,
    /// Source line of the loop header.
    pub loop_line: u32,
    /// The single source line performing the read-modify-write.
    pub line: u32,
    /// Name of the reduced variable.
    pub var: String,
}

/// Run Algorithm 3 over every profiled loop.
pub fn detect_reductions(prog: &IrProgram, profile: &ProfileData) -> Vec<ReductionReport> {
    let mut out = Vec::new();
    let mut loops: Vec<LoopId> = profile.loop_access_lines.keys().copied().collect();
    loops.sort_unstable();
    for l in loops {
        for candidate in reduction_candidates(prog, profile, l) {
            out.push(ReductionReport {
                l,
                loop_line: prog.loops[l as usize].line,
                line: candidate.0,
                var: candidate.1,
            });
        }
    }
    out.sort_by(|a, b| (a.l, a.line, &a.var).cmp(&(b.l, b.line, &b.var)));
    out.dedup();
    out
}

/// The line `L` when an address is written at exactly the one line `L`
/// and read only at `L` (Algorithm 3's line filter).
fn single_update_line(lines: &AccessLines) -> Option<u32> {
    let line = lines.write_lines.single()?;
    (lines.read_lines == Lines::One(line)).then_some(line)
}

/// The `(line, var)` reduction candidates of one loop: rewritten addresses
/// with an inter-iteration dependence, exactly one write line, and read
/// lines equal to the write lines (Algorithm 3's filter).
fn reduction_candidates(prog: &IrProgram, profile: &ProfileData, l: LoopId) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    let Some(entries) = profile.loop_access_lines.get(&l) else {
        return found;
    };
    for (_, lines) in entries {
        if !lines.inter_iteration || !lines.rewritten {
            continue;
        }
        if let Some(line) = single_update_line(lines) {
            found.push((line, lines.var_name(prog)));
        }
    }
    found.sort();
    found.dedup();
    found
}

/// True when *every* address with an inter-iteration dependence in loop `l`
/// is a reduction candidate — i.e. parallelizing the loop as a reduction
/// removes all loop-carried RAW dependences.
pub fn reduction_addrs_cover_carried(profile: &ProfileData, l: LoopId) -> bool {
    let Some(entries) = profile.loop_access_lines.get(&l) else {
        return false;
    };
    let mut any = false;
    for (_, lines) in entries {
        if !lines.inter_iteration {
            continue;
        }
        any = true;
        if !lines.rewritten || single_update_line(lines).is_none() {
            return false;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use parpat_ir::compile;
    use parpat_profile::profile;

    fn detect(src: &str) -> Vec<ReductionReport> {
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        detect_reductions(&ir, &data)
    }

    #[test]
    fn sum_local_is_detected() {
        // The paper's Listing 8.
        let src = "global arr[16];
fn main() {
    let sum = 0;
    for i in 0..16 {
        sum += arr[i];
    }
    return sum;
}";
        let r = detect(src);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].var, "sum");
        assert_eq!(r[0].line, 5);
    }

    #[test]
    fn sum_module_cross_function_is_detected() {
        // The paper's Listing 9: the reduction update lives in a callee.
        // Static detectors miss this; the dynamic analysis must not.
        let src = "global arr[16];
global acc[1];
fn update(val) {
    let x = val * 2;
    acc[0] += x;
    return x;
}
fn main() {
    for i in 0..16 {
        update(arr[i]);
    }
    return acc[0];
}";
        let r = detect(src);
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].var, "acc");
        assert_eq!(r[0].line, 5);
    }

    #[test]
    fn two_reduction_variables_both_reported() {
        // gesummv has two reduction variables in one loop.
        let src = "global a[16];
fn main() {
    let s = 0;
    let q = 0;
    for i in 0..16 {
        s += a[i];
        q += a[i] * 2;
    }
    return s + q;
}";
        let r = detect(src);
        assert_eq!(r.len(), 2, "{r:?}");
        let vars: Vec<&str> = r.iter().map(|x| x.var.as_str()).collect();
        assert!(vars.contains(&"s"));
        assert!(vars.contains(&"q"));
    }

    #[test]
    fn multi_line_update_is_rejected() {
        // The accumulator is written on two different lines → Algorithm 3
        // rejects it.
        let src = "global a[16];
fn main() {
    let s = 0;
    for i in 0..16 {
        s += a[i];
        s = s * 1;
    }
    return s;
}";
        assert!(detect(src).is_empty());
    }

    #[test]
    fn read_at_other_line_is_rejected() {
        let src = "global a[16];
global out[16];
fn main() {
    let s = 0;
    for i in 0..16 {
        s += a[i];
        out[i] = s;
    }
    return s;
}";
        assert!(detect(src).is_empty());
    }

    #[test]
    fn doall_loop_has_no_reduction() {
        assert!(detect("global a[8]; fn main() { for i in 0..8 { a[i] = i; } }").is_empty());
    }

    #[test]
    fn array_cell_reduction_is_detected() {
        // Reductions into an array element (histogram-style single cell).
        let src = "global h[1];
global a[16];
fn main() {
    for i in 0..16 {
        h[0] += a[i];
    }
}";
        let r = detect(src);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].var, "h");
    }

    #[test]
    fn cover_check_rejects_extra_carried_dep() {
        let src = "global a[16];
fn main() {
    let s = 0;
    for i in 1..16 {
        s += a[i];
        a[i] = a[i - 1] + 1;
    }
    return s;
}";
        let ir = compile(src).unwrap();
        let data = profile(&ir).unwrap();
        assert!(!reduction_addrs_cover_carried(&data, 0));
    }

    #[test]
    fn nested_loop_reduction_attributes_to_both_loops() {
        // s accumulates across both the inner and outer loop; Algorithm 3
        // reports the candidate for each enclosing loop (the programmer
        // picks the level).
        let src = "global m[16];
fn main() {
    let s = 0;
    for i in 0..4 {
        for j in 0..4 {
            s += m[i * 4 + j];
        }
    }
    return s;
}";
        let r = detect(src);
        let loops: Vec<LoopId> = r.iter().map(|x| x.l).collect();
        assert!(loops.contains(&0) && loops.contains(&1), "{r:?}");
    }
}
