//! Trace sanitizer: structural validation of a dependence event stream.
//!
//! The detectors trust [`ProfileData`] blindly — a corrupted trace (bad
//! instruction ids, impossible dependence roles, dangling loop references)
//! would silently become wrong pattern verdicts. [`sanitize_profile`]
//! checks the distilled profile against the program it was collected from
//! *before* detection runs:
//!
//! - instruction-count bookkeeping is closed (`inst_counts` covers every
//!   instruction and sums to `total_insts`);
//! - every dependence endpoint is a real instruction that actually
//!   executed, carries a source line, and plays a role consistent with its
//!   kind (a RAW flows from a write to a read, and so on — writes may also
//!   be attributed to `Call` instructions, where parameter stores land);
//! - dependence pairs are ordered consistently (an instruction cannot
//!   depend on itself within a single iteration);
//! - loop classifications reference real loops (carried distance ≥ 1,
//!   cross-loop pairs connect two *different* loops), loop statistics
//!   are internally consistent, and no access-line entry saw line 0;
//! - statement-level region dependences stay within one function — the
//!   closure property the CU-graph builder relies on for CU membership.
//!
//! The checks are deliberately conservative: every rule here is an
//! invariant the profiler upholds by construction, so any report means the
//! trace (or the profiler) is corrupt, never a false alarm on a valid run.

use std::collections::BTreeSet;

use parpat_ir::ir::InstKind;
use parpat_ir::{InstId, IrProgram};

use crate::data::{DepKind, DepSite, ProfileData};

/// Validate a distilled profile against the program it came from. Returns
/// human-readable violations in deterministic order; empty means the trace
/// is structurally sound.
pub fn sanitize_profile(ir: &IrProgram, data: &ProfileData) -> Vec<String> {
    let mut out = BTreeSet::new();
    counts(ir, data, &mut out);
    deps(ir, data, &mut out);
    loops(ir, data, &mut out);
    regions(ir, data, &mut out);
    out.into_iter().collect()
}

fn counts(ir: &IrProgram, data: &ProfileData, out: &mut BTreeSet<String>) {
    if data.inst_counts.len() != ir.inst_count() {
        out.insert(format!(
            "instruction count vector has {} entries for a program with {} instructions",
            data.inst_counts.len(),
            ir.inst_count()
        ));
        return;
    }
    let sum: u64 = data.inst_counts.iter().sum();
    if sum != data.total_insts {
        out.insert(format!(
            "per-instruction counts sum to {sum} but the trace claims {} total instructions",
            data.total_insts
        ));
    }
}

/// True when the instruction can be the *write* end of a dependence. Param
/// stores are attributed to the `Call` instruction in the caller, so calls
/// are write-capable alongside scalar/array stores.
fn write_capable(kind: &InstKind) -> bool {
    kind.is_store() || matches!(kind, InstKind::Call(_))
}

fn endpoint(
    ir: &IrProgram,
    data: &ProfileData,
    id: InstId,
    role: &str,
    out: &mut BTreeSet<String>,
) -> bool {
    if id as usize >= ir.inst_count() {
        out.insert(format!(
            "dependence {role} {id} is out of range for a program with {} instructions",
            ir.inst_count()
        ));
        return false;
    }
    if ir.line_of(id) == 0 {
        out.insert(format!("dependence {role} {id} has no source line"));
    }
    if data.inst_counts.len() == ir.inst_count() && data.inst_counts[id as usize] == 0 {
        out.insert(format!("dependence {role} {id} never executed in this trace"));
    }
    true
}

fn deps(ir: &IrProgram, data: &ProfileData, out: &mut BTreeSet<String>) {
    for d in &data.deps {
        let src_ok = endpoint(ir, data, d.src, "source", out);
        let sink_ok = endpoint(ir, data, d.sink, "sink", out);
        if !src_ok || !sink_ok {
            continue;
        }
        let src_kind = &ir.insts[d.src as usize].kind;
        let sink_kind = &ir.insts[d.sink as usize].kind;
        let (src_role_ok, sink_role_ok) = match d.kind {
            DepKind::Raw => (write_capable(src_kind), sink_kind.is_load()),
            DepKind::War => (src_kind.is_load(), write_capable(sink_kind)),
            DepKind::Waw => (write_capable(src_kind), write_capable(sink_kind)),
        };
        if !src_role_ok || !sink_role_ok {
            out.insert(format!(
                "{:?} dependence {} -> {} has inconsistent endpoint roles ({:?} -> {:?})",
                d.kind, d.src, d.sink, src_kind, sink_kind
            ));
        }
        if d.src == d.sink && d.site == DepSite::Intra {
            out.insert(format!("instruction {} depends on itself within one iteration", d.src));
        }
        match d.site {
            DepSite::Carried { l, distance } => {
                loop_ref(ir, l, "carried dependence", out);
                if distance == 0 {
                    out.insert(format!(
                        "carried dependence {} -> {} has distance 0",
                        d.src, d.sink
                    ));
                }
            }
            DepSite::CrossLoop { x, y } => {
                loop_ref(ir, x, "cross-loop dependence", out);
                loop_ref(ir, y, "cross-loop dependence", out);
                if x == y {
                    out.insert(format!(
                        "cross-loop dependence {} -> {} connects loop {x} to itself",
                        d.src, d.sink
                    ));
                }
            }
            DepSite::CrossInstance { l } => loop_ref(ir, l, "cross-instance dependence", out),
            DepSite::Intra | DepSite::OutsideLoop => {}
        }
    }
}

fn loop_ref(ir: &IrProgram, l: parpat_ir::LoopId, what: &str, out: &mut BTreeSet<String>) {
    if l as usize >= ir.loop_count() {
        out.insert(format!(
            "{what} references loop {l}, but the program has {} loop(s)",
            ir.loop_count()
        ));
    }
}

fn loops(ir: &IrProgram, data: &ProfileData, out: &mut BTreeSet<String>) {
    for (l, s) in &data.loop_stats {
        loop_ref(ir, *l, "loop statistics entry", out);
        if s.max_iterations > s.total_iterations {
            out.insert(format!(
                "loop {l} statistics claim a {}-iteration execution but only {} iterations total",
                s.max_iterations, s.total_iterations
            ));
        }
        if (s.executions == 0) != (s.first_entry == u64::MAX) {
            out.insert(format!(
                "loop {l} statistics disagree on whether the loop ever ran ({} execution(s), first entry {})",
                s.executions, s.first_entry
            ));
        }
        if s.executions == 0 && s.total_iterations > 0 {
            out.insert(format!(
                "loop {l} iterated {} time(s) without ever being entered",
                s.total_iterations
            ));
        }
    }
    for (l, entries) in &data.loop_access_lines {
        loop_ref(ir, *l, "access-line entry", out);
        for (_, lines) in entries {
            if lines.has_line_zero {
                out.insert(format!(
                    "access lines for `{}` in loop {l} include line 0",
                    lines.var_name(ir)
                ));
            }
        }
    }
    for (x, y) in data.cross_loop_pairs.keys() {
        loop_ref(ir, *x, "iteration-pair entry", out);
        loop_ref(ir, *y, "iteration-pair entry", out);
        if x == y {
            out.insert(format!("iteration pairs recorded from loop {x} to itself"));
        }
    }
}

fn regions(ir: &IrProgram, data: &ProfileData, out: &mut BTreeSet<String>) {
    for (src, sink, kind) in &data.region_deps {
        let src_in = (*src as usize) < ir.inst_count();
        let sink_in = (*sink as usize) < ir.inst_count();
        if !src_in || !sink_in {
            out.insert(format!(
                "{kind:?} region dependence {src} -> {sink} references instructions outside the program"
            ));
            continue;
        }
        let fs = ir.insts[*src as usize].func;
        let ft = ir.insts[*sink as usize].func;
        if fs != ft {
            out.insert(format!(
                "{kind:?} region dependence {src} -> {sink} crosses from function {fs} to function {ft}; \
                 statement-level dependences must stay within one function"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::data::Dep;
    use crate::profile;

    fn profiled(src: &str) -> (IrProgram, ProfileData) {
        let ir = parpat_ir::compile(src).unwrap();
        let data = profile(&ir).unwrap();
        (ir, data)
    }

    #[test]
    fn real_traces_are_clean() {
        let (ir, data) = profiled(
            "global a[16];
fn inc(x) { return x + 1; }
fn main() {
    let s = 0;
    for i in 0..16 { a[i] = inc(i); }
    for j in 1..16 { s += a[j] + a[j - 1]; }
    return s;
}",
        );
        assert_eq!(sanitize_profile(&ir, &data), Vec::<String>::new());
    }

    #[test]
    fn out_of_range_endpoint_is_rejected() {
        let (ir, mut data) = profiled("global a[2];\nfn main() { a[0] = 1; }");
        let d = *data.deps.iter().next().unwrap_or(&Dep {
            src: 0,
            sink: 0,
            kind: DepKind::Raw,
            site: DepSite::Intra,
        });
        data.deps.insert(Dep { src: 9999, ..d });
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("out of range")), "{v:?}");
    }

    #[test]
    fn never_executed_endpoint_is_rejected() {
        // The accumulator loop has a carried RAW on `s`; zero out one of its
        // endpoints' execution counts (keeping the sum consistent so only
        // one rule fires).
        let (ir, mut data) =
            profiled("fn main() { let s = 0; for i in 0..4 { s += i; } return s; }");
        let endpoint = data.deps.iter().next().unwrap().src;
        data.total_insts -= data.inst_counts[endpoint as usize];
        data.inst_counts[endpoint as usize] = 0;
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("never executed")), "{v:?}");
    }

    #[test]
    fn inconsistent_roles_are_rejected() {
        let (ir, mut data) = profiled("global a[2];\nfn main() { a[0] = 1; a[1] = a[0]; }");
        // Find two loads and claim a RAW between them: a read cannot be a
        // RAW source.
        let loads: Vec<u32> =
            (0..ir.inst_count() as u32).filter(|&i| ir.insts[i as usize].kind.is_load()).collect();
        data.deps.insert(Dep {
            src: loads[0],
            sink: loads[0],
            kind: DepKind::Raw,
            site: DepSite::OutsideLoop,
        });
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("inconsistent endpoint roles")), "{v:?}");
    }

    #[test]
    fn self_dependence_within_an_iteration_is_rejected() {
        let (ir, mut data) = profiled("global a[2];\nfn main() { a[0] = 1; a[1] = a[0]; }");
        let store =
            (0..ir.inst_count() as u32).find(|&i| ir.insts[i as usize].kind.is_store()).unwrap();
        data.deps.insert(Dep { src: store, sink: store, kind: DepKind::Waw, site: DepSite::Intra });
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("depends on itself")), "{v:?}");
    }

    #[test]
    fn dangling_loop_references_are_rejected() {
        let (ir, mut data) =
            profiled("fn main() { let s = 0; for i in 0..4 { s += i; } return s; }");
        let d = *data.deps.iter().next().unwrap();
        data.deps.insert(Dep { site: DepSite::Carried { l: 42, distance: 1 }, ..d });
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("references loop 42")), "{v:?}");
    }

    #[test]
    fn zero_distance_and_self_cross_loop_are_rejected() {
        let (ir, mut data) = profiled(
            "global a[4];\nfn main() { for i in 0..4 { a[i] = i; } for j in 0..4 { a[j] += 1; } }",
        );
        let d = *data.deps.iter().next().unwrap();
        data.deps.insert(Dep { site: DepSite::Carried { l: 0, distance: 0 }, ..d });
        data.deps.insert(Dep { site: DepSite::CrossLoop { x: 1, y: 1 }, ..d });
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("distance 0")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("to itself")), "{v:?}");
    }

    #[test]
    fn broken_bookkeeping_is_rejected() {
        let (ir, mut data) = profiled("fn main() { return 1; }");
        data.total_insts += 5;
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("counts sum to")), "{v:?}");

        let (ir, mut data) = profiled("fn main() { return 1; }");
        data.inst_counts.push(0);
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("entries for a program")), "{v:?}");
    }

    #[test]
    fn cross_function_region_deps_are_rejected() {
        let (ir, mut data) = profiled(
            "fn f(x) { return x + 1; }\nfn main() { let a = f(1); let b = a + 1; return b; }",
        );
        // Fabricate a region dep from a main instruction to an f instruction.
        let main_id = ir.function_named("main").unwrap().id;
        let f_id = ir.function_named("f").unwrap().id;
        let in_main =
            (0..ir.inst_count() as u32).find(|&i| ir.insts[i as usize].func == main_id).unwrap();
        let in_f =
            (0..ir.inst_count() as u32).find(|&i| ir.insts[i as usize].func == f_id).unwrap();
        data.region_deps.insert((in_main, in_f, DepKind::Raw));
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("crosses from function")), "{v:?}");
    }

    #[test]
    fn inconsistent_loop_stats_are_rejected() {
        let (ir, mut data) = profiled("global a[4];\nfn main() { for i in 0..4 { a[i] = i; } }");
        let s = data.loop_stats.get_mut(&0).unwrap();
        s.max_iterations = s.total_iterations + 1;
        let v = sanitize_profile(&ir, &data);
        assert!(v.iter().any(|m| m.contains("iterations total")), "{v:?}");
    }

    #[test]
    fn line_zero_access_lines_are_rejected() {
        // Plant line 0 on the second store to `s` before profiling: the
        // entry's write lines become {4, 0}, `Many`, so only the entry's
        // line-0 flag still says that 0 was among them.
        let mut ir = parpat_ir::compile(
            "fn main() {
    let s = 0;
    for i in 0..4 {
        s += i;
        s = s * 1;
    }
    return s;
}",
        )
        .unwrap();
        let second_store = (0..ir.inst_count())
            .filter(|&i| matches!(&ir.insts[i].kind, InstKind::StoreScalar(n) if n == "s"))
            .find(|&i| ir.insts[i].line == 5)
            .unwrap();
        ir.insts[second_store].line = 0;
        let data = profile(&ir).unwrap();
        let (_, s) =
            data.loop_access_lines[&0].iter().find(|(_, e)| e.var_name(&ir) == "s").unwrap();
        assert_eq!(s.write_lines, crate::Lines::Many);
        let v = sanitize_profile(&ir, &data);
        assert!(v.contains(&"access lines for `s` in loop 0 include line 0".to_owned()), "{v:?}");
    }

    #[test]
    fn output_is_deterministic_and_sorted() {
        let (ir, mut data) = profiled("fn main() { return 1; }");
        data.total_insts += 1;
        data.inst_counts.push(3);
        let a = sanitize_profile(&ir, &data);
        let b = sanitize_profile(&ir, &data);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }
}
