//! Differential gate for the dependence profiler.
//!
//! `reference/mod.rs` keeps the profiler as it was before its tables were
//! flattened and its inserts deduplicated. Every input here runs twice
//! under the same limits, once under each profiler, and the two profiles
//! must agree. Runs that fault (a runtime error or an exhausted budget)
//! must fault identically and still agree on everything recorded up to the
//! fault. Every profile of a completed run must also pass
//! [`sanitize_profile`].
//!
//! The reference builds the profile's old shape (`reference/data.rs`),
//! where each (loop, address) access-line entry holds its full read and
//! write line sets and its variable's name as a `String`. The new entry is
//! a `Copy` value that keeps only what Algorithm 3 and the sanitizer read,
//! so its second and later distinct lines are not recorded and cannot be
//! compared. Every other field must be equal (the sets and maps, whose
//! hashers differ, as sets and sorted maps); access-line entries are
//! compared through one projection of both sides onto [`LineView`], keyed
//! by (loop, address), after checking that the new side lists each address
//! once per loop:
//!
//! - each line set maps to its [`Lines`] value (empty, exactly one line,
//!   or more);
//! - `0 ∈ write_lines ∪ read_lines` maps to `has_line_zero`;
//! - the old `var_name` must equal the name the new entry's `name_inst`
//!   resolves to in the program;
//! - `inter_iteration` and `rewritten` are compared as they are.
//!
//! `merge_commutes_with_the_projection` checks that merging two profiles
//! and then projecting gives what projecting and then merging gives.
//!
//! Inputs: the 17 bundled apps, 200 generated programs (the seeds of the
//! SSA differential gate), and hand-written shapes that stress the tables'
//! bookkeeping: one loop id stacked many times by recursion, one callee
//! loop reached from two call sites, parameter stores, and inner loops
//! re-entered across outer iterations. More shapes stress the line
//! table's memo, which skips an access when the lines the address's
//! accesses of the same kind noted under the same live-loop set already
//! cover it: one instruction run under three live-loop sets, a recursion
//! whose live-loop set shrinks and grows between runs of one instruction,
//! carried RAW and WAW dependences whose accesses the memo skipped, reads
//! on two lines in turn and then on a third, a live-loop set that changes
//! A → B → A, and two planted into the lowered program: a line-0 write
//! after the writes' lines are already `Many`, and a first read that names
//! no variable before one on the same line that does.

mod reference;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Debug;
use std::hash::{BuildHasher, Hash};

use parpat_ir::event::Observer;
use parpat_ir::{run_function, ExecLimits, FuncId, InstKind, IrProgram, LoopId, RuntimeError};
use parpat_minilang::{genprog, parse_checked};
use parpat_profile::{
    sanitize_profile, AccessLines, DependenceProfiler, IntMap, Lines, ProfileData,
};

/// Run `func` under `obs`; the return value or the fault.
fn run_fn(
    ir: &IrProgram,
    func: FuncId,
    args: &[f64],
    obs: &mut dyn Observer,
    limits: ExecLimits,
) -> Result<f64, RuntimeError> {
    run_function(ir, func, args, obs, limits).map(|o| o.return_value)
}

/// Run `main` under `obs`; the return value or the fault.
fn run(ir: &IrProgram, obs: &mut dyn Observer, limits: ExecLimits) -> Result<f64, RuntimeError> {
    run_fn(ir, ir.entry.expect("program has `main`"), &[], obs, limits)
}

/// Panic with the first few elements only one side of a set holds.
fn same_set<T: Eq + Hash + Debug, S: BuildHasher>(
    label: &str,
    field: &str,
    new: &HashSet<T, S>,
    old: &HashSet<T>,
) {
    let extra: Vec<_> = new.iter().filter(|x| !old.contains(x)).take(5).collect();
    let missing: Vec<_> = old.iter().filter(|x| !new.contains(x)).take(5).collect();
    if !extra.is_empty() || !missing.is_empty() {
        panic!("{label}: `{field}` differs: only new {extra:?}, only reference {missing:?}");
    }
}

/// A map's entries in key order, whatever it hashes with.
fn sorted<K: Ord + Copy, V: Clone, S>(map: &HashMap<K, V, S>) -> BTreeMap<K, V> {
    map.iter().map(|(k, v)| (*k, v.clone())).collect()
}

/// Cross-loop pairs as either profile keeps them.
type Pairs<S1, S2> = HashMap<(LoopId, LoopId), HashMap<u64, (u64, u64), S2>, S1>;

/// Cross-loop pairs in key order at both levels.
fn sorted_pairs<S1, S2>(
    pairs: &Pairs<S1, S2>,
) -> BTreeMap<(LoopId, LoopId), BTreeMap<u64, (u64, u64)>> {
    pairs.iter().map(|(k, by_addr)| (*k, sorted(by_addr))).collect()
}

/// One access-line entry as the comparison sees it (see the module doc).
#[derive(Debug, PartialEq, Eq)]
struct LineView {
    write: Lines,
    read: Lines,
    has_line_zero: bool,
    var_name: String,
    inter_iteration: bool,
    rewritten: bool,
}

/// The [`Lines`] value of a full line set, computed without `Lines::add`.
fn lines_of(set: &BTreeSet<u32>) -> Lines {
    match (set.len(), set.first()) {
        (0, _) => Lines::None,
        (1, Some(&l)) => Lines::One(l),
        _ => Lines::Many,
    }
}

fn old_view(e: &reference::AccessLines) -> LineView {
    LineView {
        write: lines_of(&e.write_lines),
        read: lines_of(&e.read_lines),
        has_line_zero: e.write_lines.contains(&0) || e.read_lines.contains(&0),
        var_name: e.var_name.clone(),
        inter_iteration: e.inter_iteration,
        rewritten: e.rewritten,
    }
}

fn new_view(e: &AccessLines, ir: &IrProgram) -> LineView {
    LineView {
        write: e.write_lines,
        read: e.read_lines,
        has_line_zero: e.has_line_zero,
        var_name: e.var_name(ir),
        inter_iteration: e.inter_iteration,
        rewritten: e.rewritten,
    }
}

/// Panic at an address listed twice for one loop, or at the first (loop,
/// address) whose projections differ.
fn same_access_lines(
    label: &str,
    ir: &IrProgram,
    new: &IntMap<LoopId, Vec<(u64, AccessLines)>>,
    old: &HashMap<LoopId, BTreeMap<u64, reference::AccessLines>>,
) {
    let flat: Vec<_> = new
        .iter()
        .flat_map(|(l, entries)| entries.iter().map(move |(a, e)| ((*l, *a), new_view(e, ir))))
        .collect();
    let listed = flat.len();
    let new: BTreeMap<_, _> = flat.into_iter().collect();
    assert_eq!(new.len(), listed, "{label}: `loop_access_lines` lists an address twice in a loop");
    let old: BTreeMap<_, _> =
        old.iter().flat_map(|(l, m)| m.iter().map(move |(a, e)| ((*l, *a), old_view(e)))).collect();
    let keys: BTreeSet<_> = new.keys().chain(old.keys()).collect();
    for k in keys {
        let (n, o) = (new.get(k), old.get(k));
        assert!(
            n == o,
            "{label}: `loop_access_lines` differs at {k:?}: new {n:?}, reference {o:?}"
        );
    }
}

fn same_profile(label: &str, ir: &IrProgram, new: &ProfileData, old: &reference::ProfileData) {
    same_set(label, "deps", &new.deps, &old.deps);
    same_set(label, "region_deps", &new.region_deps, &old.region_deps);
    same_access_lines(label, ir, &new.loop_access_lines, &old.loop_access_lines);
    assert!(
        sorted_pairs(&new.cross_loop_pairs) == sorted_pairs(&old.cross_loop_pairs),
        "{label}: `cross_loop_pairs` differs"
    );
    assert_eq!(sorted(&new.loop_stats), sorted(&old.loop_stats), "{label}: `loop_stats` differs");
    assert!(new.inst_counts == old.inst_counts, "{label}: `inst_counts` differs");
    assert_eq!(new.total_insts, old.total_insts, "{label}: `total_insts` differs");
    assert_eq!(new.runs, old.runs, "{label}: `runs` differs");
}

/// Profile `ir` with both profilers and compare. Returns the new profile
/// and whether the run completed.
fn compare(label: &str, ir: &IrProgram, limits: ExecLimits) -> (ProfileData, bool) {
    let mut new = DependenceProfiler::new(ir);
    let new_outcome = run(ir, &mut new, limits);
    let new = new.into_data();
    let mut old = reference::DependenceProfiler::new(ir);
    let old_outcome = run(ir, &mut old, limits);
    let old = old.into_data();

    match (&new_outcome, &old_outcome) {
        (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{label}: return values differ"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: faults differ"),
        _ => panic!("{label}: outcomes differ: {new_outcome:?} vs {old_outcome:?}"),
    }
    same_profile(label, ir, &new, &old);
    (new, new_outcome.is_ok())
}

fn lower(label: &str, src: &str) -> IrProgram {
    let ast = parse_checked(src).unwrap_or_else(|e| panic!("{label} does not compile: {e}"));
    parpat_ir::lower(&ast)
}

/// Profile `src` with both profilers and compare. Returns the new
/// profile when the run completed, `None` when it faulted.
fn differential(label: &str, src: &str, limits: ExecLimits) -> Option<ProfileData> {
    let ir = lower(label, src);
    let (new, completed) = compare(label, &ir, limits);
    if !completed {
        return None;
    }
    let rejects = sanitize_profile(&ir, &new);
    assert!(rejects.is_empty(), "{label}: sanitizer rejects the profile: {rejects:?}");
    Some(new)
}

/// Loop `l`'s entry for `addr`.
fn entry(p: &ProfileData, l: LoopId, addr: u64) -> AccessLines {
    let found = p.loop_access_lines[&l].iter().find(|(a, _)| *a == addr);
    found.unwrap_or_else(|| panic!("loop {l} has no entry for address {addr}")).1
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
    let src = "global a[6];
fn add(x, y) { return x + y; }
fn main() {
    let s = 0;
    for i in 0..6 {
        s = add(i, s);
        a[i] = add(s, a[i]);
    }
    return s;
}";
    let p = differential("parameter stores", src, ExecLimits::default()).expect("completes");
    let ir = parpat_ir::compile(src).expect("compiles");
    let mut lines = p.loop_access_lines.values().flatten();
    assert!(lines.any(|(_, l)| l.var_name(&ir).starts_with("<args of")), "parameter stores");
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

#[test]
fn one_access_under_three_live_loop_sets() {
    // `bump`'s read and write of `g[0]` run from `main` (no live loop),
    // inside loop A, and inside A and B, and back again.
    let p = differential(
        "three live sets",
        "global g[1];
fn bump(k) {
    g[0] = g[0] + k;
    return 0;
}
fn main() {
    bump(1);
    for i in 0..3 {
        bump(i);
        for j in 0..3 { bump(j); }
        bump(i);
    }
    bump(2);
    return g[0];
}",
        ExecLimits::default(),
    )
    .expect("completes");
    assert_eq!(p.loop_access_lines.len(), 2, "both loops see `g[0]`");
}

#[test]
fn recursion_shrinks_and_grows_the_live_loop_set() {
    // The first statement of `rec` runs under {}, {K}, {L} and {K, L},
    // changing set between consecutive runs in both directions.
    differential(
        "live set shrinks and grows",
        "global g[2];
fn rec(d) {
    g[0] = g[0] + d;
    if d < 1 { return 0; }
    for i in 0..2 {
        rec(d - 1);
        g[1] = g[1] + g[0];
    }
    return 0;
}
fn main() {
    rec(2);
    for k in 0..3 {
        rec(k);
        g[0] = g[0] * 2;
    }
    return g[0] + g[1];
}",
        ExecLimits::default(),
    )
    .expect("completes");
}

#[test]
fn carried_flags_on_an_address_whose_note_was_skipped() {
    // From the second iteration on, the read and the write of `g[0]` repeat
    // the instruction and live set of the previous ones: the line table
    // notes neither, yet they carry the RAW and the WAW that set the flags.
    let p = differential(
        "skipped notes carry",
        "global g[1];
fn main() {
    for i in 0..4 { g[0] = g[0] + i; }
    return g[0];
}",
        ExecLimits::default(),
    )
    .expect("completes");
    let g = entry(&p, 0, 0);
    assert!(g.inter_iteration && g.rewritten, "{g:?}");
}

#[test]
fn reads_on_two_lines_in_turn_then_on_a_third() {
    // Under the one live set {L}, `g[0]` is read at lines 7 and 9 in turn
    // (the reads' join goes from one line to `Many`), then at line 12.
    let p = differential(
        "two lines then a third",
        "global g[1];
fn main() {
    let s = 1;
    for i in 0..8 {
        if i < 6 {
            if i % 2 == 0 {
                s += g[0];
            } else {
                s -= g[0];
            }
        } else {
            s = s * g[0];
        }
    }
    return s;
}",
        ExecLimits::default(),
    )
    .expect("completes");
    assert_eq!(entry(&p, 0, 0).read_lines, Lines::Many);
}

#[test]
fn live_loop_set_changes_a_then_b_then_a() {
    // `g[0]` is read and written under {A} at line 4, under {B} at line 13,
    // then under {A} again at lines 4 and 6. Back in A, the access at line
    // 6 must be noted: a summary carried over from the earlier sets (lines
    // 4 and 13, `Many`) would skip it and leave A's entry at one line.
    let p = differential(
        "set A, B, A",
        "global g[1];
fn in_a(n) {
    for a in 0..n {
        g[0] = g[0] + a;
        if n > 2 {
            g[0] = g[0] - a;
        }
    }
    return 0;
}
fn main() {
    in_a(2);
    for b in 0..2 { g[0] = g[0] * b; }
    in_a(3);
    return g[0];
}",
        ExecLimits::default(),
    )
    .expect("completes");
    let (a, b) = (entry(&p, 0, 0), entry(&p, 1, 0));
    assert_eq!((a.read_lines, a.write_lines), (Lines::Many, Lines::Many));
    assert_eq!((b.read_lines, b.write_lines), (Lines::One(13), Lines::One(13)));
}

#[test]
fn line_zero_write_after_the_writes_are_many() {
    // The third store to `s` in each iteration is planted at line 0 the way
    // the sanitizer's own test plants it. By then the writes' lines are
    // {4, 5}, `Many`, which holds every line, yet a line-0 write must still
    // be noted to set `has_line_zero`.
    let mut ir = lower(
        "line 0 after many",
        "fn main() {
    let s = 0;
    for i in 0..4 {
        s += i;
        s = s * 1;
        s = s + 0;
    }
    return s;
}",
    );
    let planted = (0..ir.inst_count())
        .find(|&i| {
            matches!(&ir.insts[i].kind, InstKind::StoreScalar(n) if n == "s")
                && ir.insts[i].line == 6
        })
        .expect("the store at line 6");
    ir.insts[planted].line = 0;
    let (p, completed) = compare("line 0 after many", &ir, ExecLimits::default());
    assert!(completed);
    let (_, s) = p.loop_access_lines[&0].iter().find(|(_, e)| e.var_name(&ir) == "s").expect("`s`");
    assert_eq!(s.write_lines, Lines::Many);
    assert!(s.has_line_zero, "{s:?}");
    let rejects = sanitize_profile(&ir, &p);
    assert!(rejects.contains(&"access lines for `s` in loop 0 include line 0".to_owned()));
}

#[test]
fn first_read_names_no_variable() {
    // The loop only reads `s`, twice on line 5; the first read is planted to
    // name no variable, so the entry's name must come from the second,
    // which the memo cannot skip for repeating a line it has seen.
    let mut ir = lower(
        "nameless first read",
        "fn main() {
    let s = 1;
    let r = 0;
    for i in 0..3 {
        let t = s; let u = s;
        r = r + t + u + i;
    }
    return r;
}",
    );
    let first = (0..ir.inst_count())
        .find(|&i| {
            matches!(&ir.insts[i].kind, InstKind::LoadScalar(n) if n == "s")
                && ir.insts[i].line == 5
        })
        .expect("a read of `s` at line 5");
    ir.insts[first].kind = InstKind::LoadScalar(String::new());
    let (p, completed) = compare("nameless first read", &ir, ExecLimits::default());
    assert!(completed);
    assert!(sanitize_profile(&ir, &p).is_empty());
    let reads: Vec<_> = p.loop_access_lines[&0]
        .iter()
        .filter(|(_, e)| e.read_lines == Lines::One(5) && e.write_lines == Lines::None)
        .map(|(_, e)| e.var_name(&ir))
        .collect();
    assert_eq!(reads, vec!["s".to_owned()]);
}

/// Every instruction that names a variable, with the name the old profile
/// stored for it, plus the nameless `(None, "")`.
fn name_pool(ir: &IrProgram) -> Vec<(Option<u32>, String)> {
    let mut pool = vec![(None, String::new())];
    for (i, inst) in (0u32..).zip(&ir.insts) {
        let name = match (inst.kind.touched_name(), &inst.kind) {
            (Some(n), _) => n.to_owned(),
            (None, InstKind::Call(callee)) => format!("<args of {callee}>"),
            _ => continue,
        };
        pool.push((Some(i), name));
    }
    pool
}

fn below(rng: &mut u64, n: u64) -> u64 {
    genprog::xorshift64(rng) % n
}

/// A random old-shaped entry over lines 0..4 and its projection, built
/// field by field.
fn random_entry(
    rng: &mut u64,
    pool: &[(Option<u32>, String)],
) -> (reference::AccessLines, AccessLines) {
    let mut set =
        || -> BTreeSet<u32> { (0..below(rng, 4)).map(|_| below(rng, 4) as u32).collect() };
    let (write_lines, read_lines) = (set(), set());
    let (name_inst, var_name) = pool[below(rng, pool.len() as u64) as usize].clone();
    let (inter_iteration, rewritten) = (below(rng, 2) == 0, below(rng, 2) == 0);
    let new = AccessLines {
        write_lines: lines_of(&write_lines),
        read_lines: lines_of(&read_lines),
        name_inst,
        has_line_zero: write_lines.contains(&0) || read_lines.contains(&0),
        inter_iteration,
        rewritten,
    };
    let old =
        reference::AccessLines { write_lines, read_lines, var_name, inter_iteration, rewritten };
    (old, new)
}

/// Random access lines over 3 loops and 4 addresses, in both shapes.
fn random_profiles(
    rng: &mut u64,
    pool: &[(Option<u32>, String)],
) -> (reference::ProfileData, ProfileData) {
    let (mut old, mut new) = (reference::ProfileData::default(), ProfileData::default());
    for _ in 0..below(rng, 12) {
        let (l, addr) = (below(rng, 3) as LoopId, below(rng, 4));
        let (o, n) = random_entry(rng, pool);
        old.loop_access_lines.entry(l).or_default().insert(addr, o);
        let entries = new.loop_access_lines.entry(l).or_default();
        match entries.iter_mut().find(|(a, _)| *a == addr) {
            Some((_, e)) => *e = n,
            None => entries.push((addr, n)),
        }
    }
    (old, new)
}

/// `work(n, k)` writes `s` at one line or two and `t` at one of two lines,
/// depending on its arguments.
const MERGE_SRC: &str = "global a[8];
global h[4];
fn work(n, k) {
    let s = 0;
    let t = 0;
    for i in 0..n {
        s += a[i % 8];
        if i == k {
            s = s * 2;
        }
        if k < 4 {
            t += i;
        } else {
            t += 2 * i;
        }
        h[i % 4] += s;
    }
    return s + t;
}
fn main() { return work(8, 3); }";

/// Profile `work(args)` with both profilers.
fn profile_both(ir: &IrProgram, args: &[f64]) -> (reference::ProfileData, ProfileData) {
    let work = ir.function_named("work").expect("has `work`").id;
    let mut new = DependenceProfiler::new(ir);
    run_fn(ir, work, args, &mut new, ExecLimits::default()).expect("completes");
    let mut old = reference::DependenceProfiler::new(ir);
    run_fn(ir, work, args, &mut old, ExecLimits::default()).expect("completes");
    (old.into_data(), new.into_data())
}

/// (loop, address) entries where `a` and `b` hold two different single
/// lines in the same set, so that their merge must become `Many`.
fn one_one_joins(a: &ProfileData, b: &ProfileData) -> usize {
    let distinct = |x: Lines, y: Lines| matches!((x, y), (Lines::One(p), Lines::One(q)) if p != q);
    let mut n = 0;
    for (l, entries) in &a.loop_access_lines {
        for (addr, x) in entries {
            let mut theirs = b.loop_access_lines.get(l).into_iter().flatten();
            if let Some((_, y)) = theirs.find(|(a, _)| a == addr) {
                if distinct(x.write_lines, y.write_lines) || distinct(x.read_lines, y.read_lines) {
                    n += 1;
                }
            }
        }
    }
    n
}

#[test]
fn merge_commutes_with_the_projection() {
    let ir = parpat_ir::compile(MERGE_SRC).expect("compiles");
    let mut rng = 0x5EED_D1FF_u64;

    // Random entries: every lattice case, line 0, and name precedence.
    let pool = name_pool(&ir);
    for case in 0..500 {
        let label = format!("random case {case}");
        let (mut old_a, mut new_a) = random_profiles(&mut rng, &pool);
        let (old_b, new_b) = random_profiles(&mut rng, &pool);
        same_profile(&label, &ir, &new_a, &old_a);
        same_profile(&label, &ir, &new_b, &old_b);
        old_a.merge(&old_b);
        new_a.merge(&new_b);
        same_profile(&label, &ir, &new_a, &old_a);
    }

    // Real profiles of one function under two seeded inputs.
    let mut joins = 0;
    for case in 0..40 {
        let mut args = || [below(&mut rng, 9) as f64, below(&mut rng, 9) as f64];
        let (args_a, args_b) = (args(), args());
        let label = format!("inputs {args_a:?} then {args_b:?}");
        let (mut old_a, mut new_a) = profile_both(&ir, &args_a);
        let (old_b, new_b) = profile_both(&ir, &args_b);
        same_profile(&label, &ir, &new_a, &old_a);
        joins += one_one_joins(&new_a, &new_b);
        old_a.merge(&old_b);
        new_a.merge(&new_b);
        same_profile(&format!("{label} (case {case})"), &ir, &new_a, &old_a);
        assert!(sanitize_profile(&ir, &new_a).is_empty(), "{label}: merged profile rejected");
    }
    assert!(joins > 0, "no merge joined two different single lines");
}
