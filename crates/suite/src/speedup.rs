//! Table III speedups: from detected pattern to simulated best speedup.
//!
//! For each application, the detected pattern plus the *measured* dynamic
//! instruction costs are converted into a `parpat-sim` task graph; a thread
//! sweep (1..32 virtual workers, the paper's methodology) yields the best
//! speedup and the thread count achieving it. Physical wall-clock speedups
//! are impossible on this single-core host — see DESIGN.md, substitutions.

use parpat_core::Analysis;
use parpat_sim::{
    fused_doall, geometric, pipeline, reduction, simulate, Overheads, PipelineShape, Sweep,
    TaskGraph, PAPER_THREADS,
};

use crate::{loop_cost_per_iter, App, ExpectedPattern};

/// Result of the Table III speedup experiment for one application.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Application name.
    pub name: &'static str,
    /// Best simulated speedup.
    pub speedup: f64,
    /// Thread count achieving it.
    pub threads: usize,
    /// The full sweep (for the figure-style output).
    pub sweep: Sweep,
}

/// Simulation overheads used for every app. The cost unit is executed IR
/// instructions of the model; model inputs are small (10–100 iterations per
/// loop), so a dispatch is charged like a handful of instructions — the
/// same *relative* overhead a pthread dispatch has against the original
/// benchmarks' million-iteration loops.
pub fn default_overheads() -> Overheads {
    Overheads { per_task: 8.0, sync: 20.0 }
}

/// Build the simulated task graph of an application's detected pattern at a
/// given worker count.
pub fn graph_for(app: &App, analysis: &Analysis, workers: usize) -> TaskGraph {
    let ov = default_overheads();
    match app.expected {
        ExpectedPattern::Pipeline => pipeline_graph(analysis, workers, ov),
        ExpectedPattern::Fusion => fusion_graph(analysis, workers, ov),
        ExpectedPattern::Tasks | ExpectedPattern::TasksDoall => {
            tasks_graph(analysis, workers, ov, app.expected == ExpectedPattern::TasksDoall)
        }
        ExpectedPattern::Geometric | ExpectedPattern::GeometricReduction => {
            geometric_graph(analysis, workers, ov)
        }
        ExpectedPattern::Reduction => reduction_graph(analysis, workers, ov),
    }
}

/// Run the paper's thread sweep for one app.
pub fn sweep_app(app: &App, analysis: &Analysis) -> SpeedupRow {
    let ov = default_overheads();
    let sweep = Sweep::run(PAPER_THREADS, |threads| {
        let g = graph_for(app, analysis, threads);
        simulate(&g, threads, ov.per_task)
    });
    let best = sweep.best();
    SpeedupRow { name: app.name, speedup: best.result.speedup, threads: best.threads, sweep }
}

fn pipeline_graph(analysis: &Analysis, workers: usize, ov: Overheads) -> TaskGraph {
    let p = analysis
        .pipelines
        .iter()
        .max_by(|a, b| (a.nx + a.ny).cmp(&(b.nx + b.ny)))
        .expect("a pipeline was detected");
    let shape = PipelineShape {
        a: p.a,
        b: p.b,
        nx: p.nx,
        ny: p.ny,
        cost_x: loop_cost_per_iter(analysis, p.x),
        cost_y: loop_cost_per_iter(analysis, p.y),
        x_doall: p.x_doall,
        y_doall: p.y_doall,
    };
    pipeline(shape, ov, workers.max(1) * 4)
}

fn fusion_graph(analysis: &Analysis, workers: usize, ov: Overheads) -> TaskGraph {
    let f = analysis.fusions.first().expect("a fusion was detected");
    let n = analysis.profile.loop_stats.get(&f.x).map(|s| s.max_iterations).unwrap_or(0);
    fused_doall(
        n,
        loop_cost_per_iter(analysis, f.x),
        loop_cost_per_iter(analysis, f.y),
        workers,
        ov,
    )
}

/// The *unfused* baseline of a fusion app (for the ablation benches).
pub fn unfused_graph(analysis: &Analysis, workers: usize) -> TaskGraph {
    let ov = default_overheads();
    let f = analysis.fusions.first().expect("a fusion was detected");
    let nx = analysis.profile.loop_stats.get(&f.x).map(|s| s.max_iterations).unwrap_or(0);
    let ny = analysis.profile.loop_stats.get(&f.y).map(|s| s.max_iterations).unwrap_or(0);
    parpat_sim::two_doalls(
        nx,
        loop_cost_per_iter(analysis, f.x),
        ny,
        loop_cost_per_iter(analysis, f.y),
        workers,
        ov,
    )
}

fn tasks_graph(
    analysis: &Analysis,
    workers: usize,
    ov: Overheads,
    expand_doall: bool,
) -> TaskGraph {
    // Use the hotspot region with the highest estimated speedup.
    let (report, graph) = analysis
        .tasks
        .iter()
        .zip(&analysis.graphs)
        .max_by(|a, b| a.0.estimated_speedup.partial_cmp(&b.0.estimated_speedup).expect("finite"))
        .expect("a task report exists");
    let _ = report; // selection needed the report's estimated speedup only
                    // CU weights + forward edges, optionally expanding do-all loop vertices
                    // into `workers` chunk subtasks (the paper's combined task + do-all
                    // implementations for 3mm/mvt).
    let order_of: std::collections::HashMap<_, _> =
        graph.nodes.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut g = TaskGraph::new();
    let mut unit_tasks: Vec<Vec<usize>> = Vec::with_capacity(graph.nodes.len());
    for (i, &cu) in graph.nodes.iter().enumerate() {
        let weight = graph.weights.get(&cu).copied().unwrap_or(0.0);
        // Dependencies: every predecessor CU's tasks.
        let mut deps = Vec::new();
        for p in graph.predecessors(cu) {
            if let Some(&pi) = order_of.get(&p) {
                if pi < i {
                    deps.extend(unit_tasks[pi].iter().copied());
                }
            }
        }
        let is_doall_loop = matches!(analysis.cus.cus[cu].kind,
                parpat_cu::CuKind::LoopStmt { l }
                    if matches!(analysis.loop_classes.get(&l),
                        Some(parpat_core::LoopClass::DoAll) | Some(parpat_core::LoopClass::Reduction)));
        if expand_doall && is_doall_loop && workers > 1 {
            let chunks = workers.min(16);
            let ids: Vec<usize> =
                (0..chunks).map(|_| g.add(weight / chunks as f64, deps.clone())).collect();
            unit_tasks.push(ids);
        } else {
            unit_tasks.push(vec![g.add(weight.max(1.0), deps)]);
        }
    }
    let _ = ov;
    g
}

fn geometric_graph(analysis: &Analysis, workers: usize, ov: Overheads) -> TaskGraph {
    let gd = analysis.geodecomp.first().expect("a GD candidate was detected");
    // Total dynamic cost of the decomposed function (all PET nodes).
    let mut total = 0.0;
    for n in &analysis.pet.nodes {
        if n.kind == parpat_pet::RegionKind::Function(gd.func) {
            total += n.inclusive_insts as f64;
        }
    }
    let chunks = (workers as u64).max(1);
    geometric(chunks, total / chunks as f64, ov)
}

fn reduction_graph(analysis: &Analysis, workers: usize, ov: Overheads) -> TaskGraph {
    // Use the hottest loop that has a reduction candidate.
    let l = analysis
        .reductions
        .iter()
        .map(|r| r.l)
        .max_by(|a, b| {
            let share = |l: &parpat_ir::LoopId| {
                analysis.pet.loop_node(*l).map(|n| analysis.pet.inst_share(n)).unwrap_or(0.0)
            };
            share(a).partial_cmp(&share(b)).expect("finite")
        })
        .expect("a reduction was detected");
    let n = analysis.profile.loop_stats.get(&l).map(|s| s.total_iterations).unwrap_or(0);
    let cost = loop_cost_per_iter(analysis, l);
    reduction(n, cost, cost.max(10.0), workers, ov)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::app_named;

    fn best_for(name: &str) -> SpeedupRow {
        let app = app_named(name).unwrap();
        let analysis = app.analyze().unwrap();
        sweep_app(&app, &analysis)
    }

    #[test]
    fn ludcmp_pipeline_speeds_up() {
        let row = best_for("ludcmp");
        assert!(row.speedup > 1.5, "ludcmp {}", row.speedup);
    }

    #[test]
    fn reg_detect_pipeline_modest_speedup() {
        let row = best_for("reg_detect");
        // The paper: 2.26 at 16 threads. The serial consumer bounds it.
        assert!(row.speedup > 1.1 && row.speedup < 4.0, "reg_detect {}", row.speedup);
    }

    #[test]
    fn fluidanimate_small_speedup() {
        let row = best_for("fluidanimate");
        // The paper: 1.5 at 3 threads.
        assert!(row.speedup > 1.0 && row.speedup < 3.0, "fluidanimate {}", row.speedup);
    }

    #[test]
    fn rot_cc_fusion_scales_well() {
        let row = best_for("rot-cc");
        assert!(row.speedup > 4.0, "rot-cc {}", row.speedup);
        assert!(row.threads >= 8);
    }

    #[test]
    fn three_mm_tasks_plus_doall_beats_tasks_alone() {
        let row = best_for("3mm");
        // Task-only parallelism caps at 1.5; with do-all expansion it must
        // exceed that clearly.
        assert!(row.speedup > 2.5, "3mm {}", row.speedup);
    }

    #[test]
    fn streamcluster_geometric_scales() {
        let row = best_for("streamcluster");
        assert!(row.speedup > 3.0, "streamcluster {}", row.speedup);
    }

    #[test]
    fn bicg_reduction_speeds_up() {
        let row = best_for("bicg");
        assert!(row.speedup > 2.0, "bicg {}", row.speedup);
    }
}
