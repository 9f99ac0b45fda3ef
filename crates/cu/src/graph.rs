//! CU graphs: CUs as vertices, dynamic data dependences as edges.
//!
//! "Data dependences are mapped onto a pair of CUs. This mapping creates a
//! *CU graph* with CUs as vertices and data dependences between them as
//! edges" (Section II). Edges come from the profiler's statement-level
//! lifted dependences, so accesses buried inside callees or nested loops
//! connect the call statements / loop vertices of the region — exactly what
//! Figure 3 of the paper shows for `cilksort()`.
//!
//! Vertices carry *dynamic weights*: the executed-instruction cost of the
//! CU, with call instructions expanded by the average activation cost of
//! their callee (measured from the PET). Weights drive the estimated-speedup
//! metric of Section III-B (total instructions / critical-path instructions).

use std::collections::{BTreeSet, HashMap, VecDeque};

use parpat_ir::{InstKind, IrProgram};
use parpat_pet::{Pet, RegionKind};
use parpat_profile::{DepKind, ProfileData};

use crate::build::{CuId, CuSet, RegionId};

/// The CU graph of one region.
#[derive(Debug, Clone)]
pub struct CuGraph {
    /// The region this graph describes.
    pub region: RegionId,
    /// Vertices in serial order.
    pub nodes: Vec<CuId>,
    /// RAW dependence edges `(src, sink)` (self-edges removed).
    pub edges: BTreeSet<(CuId, CuId)>,
    /// Dynamic instruction weight per vertex.
    pub weights: HashMap<CuId, f64>,
}

impl CuGraph {
    /// Successors of a vertex.
    pub fn successors(&self, n: CuId) -> Vec<CuId> {
        self.edges.iter().filter(|(s, _)| *s == n).map(|(_, t)| *t).collect()
    }

    /// Predecessors of a vertex.
    pub fn predecessors(&self, n: CuId) -> Vec<CuId> {
        self.edges.iter().filter(|(_, t)| *t == n).map(|(s, _)| *s).collect()
    }

    /// True when a directed path leads from `from` to `to`.
    pub fn reachable(&self, from: CuId, to: CuId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut q = VecDeque::from([from]);
        while let Some(cur) = q.pop_front() {
            for nxt in self.successors(cur) {
                if nxt == to {
                    return true;
                }
                if seen.insert(nxt) {
                    q.push_back(nxt);
                }
            }
        }
        false
    }

    /// Sum of all vertex weights (the region's total dynamic instructions).
    pub fn total_weight(&self) -> f64 {
        self.nodes.iter().map(|n| self.weights.get(n).copied().unwrap_or(0.0)).sum()
    }

    /// Longest weighted path through the dependence DAG — the critical path.
    /// Only *forward* edges (serial order respected) participate, which
    /// makes the computation well-defined even if re-execution of the region
    /// produced apparent back edges. Returns the path cost and its vertices.
    pub fn critical_path(&self, cus: &CuSet) -> (f64, Vec<CuId>) {
        // Nodes are already in serial order; forward edges only.
        let order_of: HashMap<CuId, usize> =
            self.nodes.iter().map(|&n| (n, cus.cus[n].order)).collect();
        let mut best: HashMap<CuId, (f64, Option<CuId>)> = HashMap::new();
        for &n in &self.nodes {
            let w = self.weights.get(&n).copied().unwrap_or(0.0);
            let mut best_pred: Option<(f64, CuId)> = None;
            for p in self.predecessors(n) {
                if order_of.get(&p) >= order_of.get(&n) {
                    continue; // drop back edges
                }
                if let Some(&(cost, _)) = best.get(&p) {
                    if best_pred.map(|(c, _)| cost > c).unwrap_or(true) {
                        best_pred = Some((cost, p));
                    }
                }
            }
            match best_pred {
                Some((c, p)) => best.insert(n, (c + w, Some(p))),
                None => best.insert(n, (w, None)),
            };
        }
        let Some((&end, &(cost, _))) =
            best.iter().max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("weights are finite"))
        else {
            return (0.0, Vec::new());
        };
        let mut path = vec![end];
        let mut cur = end;
        while let Some(&(_, Some(p))) = best.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (cost, path)
    }

    /// Render the graph as text: one line per vertex with its label, weight
    /// and successor list. Used by the Figure 3 regenerator.
    pub fn render(&self, cus: &CuSet) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, &n) in self.nodes.iter().enumerate() {
            let succ: Vec<String> = self
                .successors(n)
                .iter()
                .map(|s| format!("CU_{}", self.nodes.iter().position(|&x| x == *s).unwrap_or(0)))
                .collect();
            writeln!(
                out,
                "CU_{i}: {} (w={:.0}) -> [{}]",
                cus.cus[n].label,
                self.weights.get(&n).copied().unwrap_or(0.0),
                succ.join(", ")
            )
            .expect("write to String");
        }
        out
    }
}

/// Average dynamic cost of one activation of every function, measured from
/// the PET (inclusive instructions / activations, summed over all nodes of
/// the function).
pub fn avg_activation_costs(prog: &IrProgram, pet: &Pet) -> Vec<f64> {
    let mut incl = vec![0u64; prog.functions.len()];
    let mut occ = vec![0u64; prog.functions.len()];
    for n in &pet.nodes {
        if let RegionKind::Function(f) = n.kind {
            incl[f] += n.inclusive_insts;
            occ[f] += n.occurrences;
        }
    }
    incl.iter().zip(&occ).map(|(&i, &o)| if o == 0 { 0.0 } else { i as f64 / o as f64 }).collect()
}

/// Build the weighted CU graph of a region.
pub fn build_graph(
    prog: &IrProgram,
    cus: &CuSet,
    region: RegionId,
    profile: &ProfileData,
    pet: &Pet,
) -> CuGraph {
    let nodes: Vec<CuId> = cus.region_cus(region).to_vec();
    let fn_costs = avg_activation_costs(prog, pet);

    let mut weights = HashMap::with_capacity(nodes.len());
    for &n in &nodes {
        weights.insert(n, cu_weight(prog, cus, n, profile, &fn_costs));
    }

    let mut edges = BTreeSet::new();
    for &(src, sink, kind) in &profile.region_deps {
        if kind != DepKind::Raw {
            continue;
        }
        let (Some(a), Some(b)) = (cus.cu_of_inst(region, src), cus.cu_of_inst(region, sink)) else {
            continue;
        };
        if a != b {
            edges.insert((a, b));
        }
    }

    CuGraph { region, nodes, edges, weights }
}

/// Dynamic weight of one CU: executed instructions of its own instructions,
/// plus — for every user call instruction it contains — the callee's average
/// activation cost once per dynamic call.
fn cu_weight(
    prog: &IrProgram,
    cus: &CuSet,
    cu: CuId,
    profile: &ProfileData,
    fn_costs: &[f64],
) -> f64 {
    let mut w = 0.0;
    for &inst in &cus.cus[cu].insts {
        let count = profile.inst_counts.get(inst as usize).copied().unwrap_or(0) as f64;
        w += count;
        if let InstKind::Call(name) = &prog.insts[inst as usize].kind {
            if let Some(f) = prog.function_named(name) {
                w += count * fn_costs[f.id];
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::build::build_cus;
    use parpat_ir::compile;
    use parpat_pet::build_pet;
    use parpat_profile::profile;

    fn graph_of(src: &str, region_fn: &str) -> (CuGraph, CuSet, parpat_ir::IrProgram) {
        let ir = compile(src).unwrap();
        let cus = build_cus(&ir);
        let data = profile(&ir).unwrap();
        let pet = build_pet(&ir).unwrap();
        let f = ir.function_named(region_fn).unwrap().id;
        let g = build_graph(&ir, &cus, RegionId::FuncBody(f), &data, &pet);
        (g, cus, ir)
    }

    const FIB: &str = "fn fib(n) {
    if n < 2 { return n; }
    let x = fib(n - 1);
    let y = fib(n - 2);
    return x + y;
}
fn main() { fib(10); }";

    #[test]
    fn fib_graph_edges_point_from_calls_to_final_return() {
        let (g, cus, _) = graph_of(FIB, "fib");
        assert_eq!(g.nodes.len(), 5);
        // Nodes in serial order: if, return n, x=, y=, return x+y.
        let x = g.nodes[2];
        let y = g.nodes[3];
        let ret = g.nodes[4];
        assert!(g.edges.contains(&(x, ret)));
        assert!(g.edges.contains(&(y, ret)));
        // The two recursive calls are mutually independent.
        assert!(!g.edges.contains(&(x, y)));
        assert!(!g.edges.contains(&(y, x)));
        assert!(!g.reachable(x, y));
        assert!(g.reachable(x, ret));
        let _ = cus;
    }

    #[test]
    fn fib_critical_path_excludes_one_call() {
        let (g, cus, _) = graph_of(FIB, "fib");
        let (cost, path) = g.critical_path(&cus);
        let total = g.total_weight();
        assert!(cost < total, "critical path must be shorter than total");
        // Path ends at the final return.
        assert_eq!(*path.last().unwrap(), g.nodes[4]);
        // Estimated speedup must exceed 1 (there IS task parallelism).
        assert!(total / cost > 1.2, "estimated speedup {} too small", total / cost);
    }

    #[test]
    fn sequential_chain_has_no_parallelism() {
        let src = "global a[1];
fn main() {
    a[0] = 1;
    let t = a[0] + 1;
    a[0] = t * 2;
    return a[0];
}";
        let ir = compile(src).unwrap();
        let cus = build_cus(&ir);
        let data = profile(&ir).unwrap();
        let pet = build_pet(&ir).unwrap();
        let g = build_graph(&ir, &cus, RegionId::FuncBody(ir.entry.unwrap()), &data, &pet);
        let (cost, _) = g.critical_path(&cus);
        let est = g.total_weight() / cost;
        assert!(est < 1.3, "chain should have ~no estimated speedup, got {est}");
    }

    #[test]
    fn independent_loops_have_no_edges_between_them() {
        let src = "global a[16];
global b[16];
fn main() {
    for i in 0..16 { a[i] = i; }
    for j in 0..16 { b[j] = j; }
}";
        let (g, _cus, _) = graph_of(src, "main");
        assert_eq!(g.nodes.len(), 2);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn dependent_loops_have_an_edge() {
        let src = "global a[16];
global b[16];
fn main() {
    for i in 0..16 { a[i] = i; }
    for j in 0..16 { b[j] = a[j]; }
}";
        let (g, _cus, _) = graph_of(src, "main");
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.edges.len(), 1);
        let (s, t) = *g.edges.iter().next().unwrap();
        assert_eq!(s, g.nodes[0]);
        assert_eq!(t, g.nodes[1]);
    }

    #[test]
    fn weights_expand_call_costs() {
        // One heavy callee: the call CU's weight must dwarf a trivial CU.
        let src = "global a[64];
global out[1];
fn heavy() {
    for i in 0..64 { a[i] = a[i % 8] * 2 + 1; }
    return 0;
}
fn main() {
    heavy();
    out[0] = 1;
}";
        let (g, cus, _) = graph_of(src, "main");
        let call_cu = g.nodes[0];
        let store_cu = g.nodes[1];
        assert!(matches!(cus.cus[call_cu].kind, crate::build::CuKind::CallStmt { .. }));
        assert!(g.weights[&call_cu] > 20.0 * g.weights[&store_cu]);
    }

    #[test]
    fn render_lists_all_nodes() {
        let (g, cus, _) = graph_of(FIB, "fib");
        let s = g.render(&cus);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("CU_0"));
        assert!(s.contains("CU_4"));
    }
}
