//! One-stop analysis: run every detector of the paper over a program.
//!
//! [`analyze_source`] compiles a MiniLang program, executes it once under
//! the dependence profiler and the PET builder simultaneously, constructs
//! CUs and CU graphs, and runs all five detectors (multi-loop pipeline,
//! fusion, task parallelism, geometric decomposition, reduction). The result
//! carries every intermediate artifact so callers can inspect any stage.
//! The input artifacts sit behind `Arc`s, so a caller that caches them (the
//! batch engine) shares one copy with every [`Analysis`] built from them.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parpat_cu::{build_cus, build_graph, CuGraph, CuSet, RegionId};
use parpat_ir::event::Tee;
use parpat_ir::interp::ExecLimits;
use parpat_ir::{IrProgram, LoopId, RuntimeError};
use parpat_minilang::LangError;
use parpat_pet::{Pet, PetBuilder, RegionKind};
use parpat_profile::{DependenceProfiler, ProfileData};

use crate::doall::{classify_loops, LoopClass};
use crate::fusion::{detect_fusion, FusionConfig, FusionReport};
use crate::geodecomp::{detect_geometric_decomposition, GdConfig, GdReport};
use crate::pipeline::{detect_pipelines, PipelineConfig, PipelineReport};
use crate::reduction::{detect_reductions, ReductionReport};
use crate::tasks::{detect_task_parallelism, TaskReport};

/// Failure of the end-to-end analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeError {
    /// The program failed to parse/check/lower.
    Lang(LangError),
    /// The profiled execution failed.
    Runtime(RuntimeError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Lang(e) => write!(f, "{e}"),
            AnalyzeError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<LangError> for AnalyzeError {
    fn from(e: LangError) -> Self {
        AnalyzeError::Lang(e)
    }
}

impl From<RuntimeError> for AnalyzeError {
    fn from(e: RuntimeError) -> Self {
        AnalyzeError::Runtime(e)
    }
}

/// Knobs for the full analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Hotspot threshold (share of executed instructions) used everywhere.
    pub hotspot_threshold: f64,
    /// Minimum iteration pairs for a pipeline fit.
    pub min_pipeline_pairs: usize,
    /// Coefficient tolerance for fusion.
    pub fusion_eps: f64,
    /// Execution bounds for the profiled run.
    pub limits: ExecLimits,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            hotspot_threshold: 0.1,
            min_pipeline_pairs: 3,
            fusion_eps: 1e-6,
            limits: ExecLimits::default(),
        }
    }
}

/// Everything the analysis produced.
#[derive(Debug)]
pub struct Analysis {
    /// The lowered program.
    pub ir: Arc<IrProgram>,
    /// Profiler output.
    pub profile: Arc<ProfileData>,
    /// The program execution tree.
    pub pet: Arc<Pet>,
    /// All computational units.
    pub cus: Arc<CuSet>,
    /// CU graphs of the hotspot regions that were analyzed for tasks.
    pub graphs: Vec<CuGraph>,
    /// Detected multi-loop pipelines.
    pub pipelines: Vec<PipelineReport>,
    /// Fusion candidates among the pipelines.
    pub fusions: Vec<FusionReport>,
    /// Task-parallelism reports per hotspot region (same order as `graphs`).
    pub tasks: Vec<TaskReport>,
    /// Geometric-decomposition candidates.
    pub geodecomp: Vec<GdReport>,
    /// Reduction candidates.
    pub reductions: Vec<ReductionReport>,
    /// Do-all / reduction / sequential class per executed loop.
    pub loop_classes: HashMap<LoopId, LoopClass>,
}

/// Analyze MiniLang source with the given configuration.
pub fn analyze_source(src: &str, cfg: &AnalysisConfig) -> Result<Analysis, AnalyzeError> {
    let ir = parpat_ir::compile(src)?;
    analyze(ir, cfg)
}

/// Output of the profiling stage: one instrumented run of the program.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Profiler output.
    pub profile: Arc<ProfileData>,
    /// The program execution tree.
    pub pet: Arc<Pet>,
    /// Total dynamic IR instructions the run executed.
    pub insts: u64,
    /// `main`'s return value.
    pub return_value: f64,
    /// Final global-array state, flattened in declaration order — compared
    /// against the reference evaluator by the differential oracle.
    pub globals: Vec<f64>,
}

/// Stage entry point: execute the program once, feeding both the dependence
/// profiler and the PET builder from the same instrumented run.
pub fn profile_ir(ir: &IrProgram, limits: ExecLimits) -> Result<ProfiledRun, AnalyzeError> {
    profile_ir_controlled(ir, limits, None)
}

/// [`profile_ir`] under optional external supervision: the instrumented run
/// publishes liveness beats to `ctl` and honors cooperative cancellation at
/// the interpreter's deadline-poll cadence.
pub fn profile_ir_controlled(
    ir: &IrProgram,
    limits: ExecLimits,
    ctl: Option<&parpat_ir::ExecControl>,
) -> Result<ProfiledRun, AnalyzeError> {
    let entry = ir
        .entry
        .ok_or_else(|| RuntimeError::new(0, "program has no `main` function".to_owned()))?;
    let mut profiler = DependenceProfiler::new(ir);
    let mut pet_builder = PetBuilder::new();
    let capture = {
        let mut tee = Tee::new(&mut profiler, &mut pet_builder);
        parpat_ir::run_function_captured(ir, entry, &[], &mut tee, limits, ctl)?
    };
    Ok(ProfiledRun {
        profile: Arc::new(profiler.into_data()),
        pet: Arc::new(pet_builder.into_pet()),
        insts: capture.outcome.insts,
        return_value: capture.outcome.return_value,
        globals: capture.globals,
    })
}

/// Every detector's output — [`Analysis`] without the input artifacts, so
/// stage-oriented callers (the batch engine) can cache it separately from
/// the IR/profile/PET/CU artifacts it was derived from.
#[derive(Debug, Clone)]
pub struct Detections {
    /// Detected multi-loop pipelines.
    pub pipelines: Vec<PipelineReport>,
    /// Fusion candidates among the pipelines.
    pub fusions: Vec<FusionReport>,
    /// CU graphs of the hotspot regions that were analyzed for tasks.
    pub graphs: Vec<CuGraph>,
    /// Task-parallelism reports per hotspot region (same order as `graphs`).
    pub tasks: Vec<TaskReport>,
    /// Geometric-decomposition candidates.
    pub geodecomp: Vec<GdReport>,
    /// Reduction candidates.
    pub reductions: Vec<ReductionReport>,
    /// Do-all / reduction / sequential class per executed loop.
    pub loop_classes: HashMap<LoopId, LoopClass>,
}

/// Stage entry point: run all five detectors over already-built artifacts.
pub fn detect_patterns(
    ir: &IrProgram,
    profile: &ProfileData,
    pet: &Pet,
    cus: &CuSet,
    cfg: &AnalysisConfig,
) -> Detections {
    let loop_classes = classify_loops(ir, profile);

    let pipelines = detect_pipelines(
        ir,
        profile,
        pet,
        &PipelineConfig {
            hotspot_threshold: cfg.hotspot_threshold,
            min_pairs: cfg.min_pipeline_pairs,
            same_function_only: true,
        },
    );
    let fusions = detect_fusion(&pipelines, profile, &FusionConfig { eps: cfg.fusion_eps });
    let reductions = detect_reductions(ir, profile);
    let geodecomp = detect_geometric_decomposition(
        ir,
        pet,
        &loop_classes,
        &GdConfig { hotspot_threshold: cfg.hotspot_threshold },
    );

    // Task parallelism over every hotspot region (functions and loops).
    let mut graphs = Vec::new();
    let mut tasks = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for node in pet.hotspots(cfg.hotspot_threshold) {
        let region = match pet.nodes[node].kind {
            RegionKind::Function(f) => RegionId::FuncBody(f),
            RegionKind::Loop(l) => RegionId::Loop(l),
        };
        if !seen.insert(region) {
            continue;
        }
        if cus.region_cus(region).len() < 2 {
            continue; // a single unit cannot expose task parallelism
        }
        let graph = build_graph(ir, cus, region, profile, pet);
        let report = detect_task_parallelism(&graph, cus);
        graphs.push(graph);
        tasks.push(report);
    }

    Detections { pipelines, fusions, graphs, tasks, geodecomp, reductions, loop_classes }
}

/// Stage entry point: assemble a full [`Analysis`] from its artifacts and
/// the detector outputs. Each artifact is taken owned or already shared; a
/// shared one is not copied.
pub fn assemble_analysis(
    ir: impl Into<Arc<IrProgram>>,
    profile: impl Into<Arc<ProfileData>>,
    pet: impl Into<Arc<Pet>>,
    cus: impl Into<Arc<CuSet>>,
    detections: Detections,
) -> Analysis {
    let Detections { pipelines, fusions, graphs, tasks, geodecomp, reductions, loop_classes } =
        detections;
    Analysis {
        ir: ir.into(),
        profile: profile.into(),
        pet: pet.into(),
        cus: cus.into(),
        graphs,
        pipelines,
        fusions,
        tasks,
        geodecomp,
        reductions,
        loop_classes,
    }
}

/// Analyze an already-lowered program.
pub fn analyze(ir: IrProgram, cfg: &AnalysisConfig) -> Result<Analysis, AnalyzeError> {
    let run = profile_ir(&ir, cfg.limits)?;
    let cus = build_cus(&ir);
    let detections = detect_patterns(&ir, &run.profile, &run.pet, &cus, cfg);
    Ok(assemble_analysis(ir, run.profile, run.pet, cus, detections))
}

impl Analysis {
    /// The task report (if any) with the highest estimated speedup.
    pub fn best_task_report(&self) -> Option<&TaskReport> {
        self.tasks
            .iter()
            .max_by(|a, b| a.estimated_speedup.partial_cmp(&b.estimated_speedup).expect("finite"))
    }

    /// Human-readable multi-section summary of every finding.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "=== hotspots ===").expect("write to String");
        out.push_str(&self.pet.render(&self.ir));

        writeln!(out, "=== loop classes ===").expect("write to String");
        let mut loops: Vec<_> = self.loop_classes.iter().collect();
        loops.sort_by_key(|(l, _)| **l);
        for (l, class) in loops {
            writeln!(out, "L{l} @ line {}: {:?}", self.ir.loops[*l as usize].line, class)
                .expect("write to String");
        }

        if !self.pipelines.is_empty() {
            writeln!(out, "=== multi-loop pipelines ===").expect("write to String");
            for p in &self.pipelines {
                writeln!(
                    out,
                    "L{} (line {}) -> L{} (line {}): a={:.3} b={:.3} e={:.3}  [{}]",
                    p.x,
                    p.x_line,
                    p.y,
                    p.y_line,
                    p.a,
                    p.b,
                    p.e,
                    p.interpretation()
                )
                .expect("write to String");
            }
        }
        if !self.fusions.is_empty() {
            writeln!(out, "=== fusion candidates ===").expect("write to String");
            for f in &self.fusions {
                writeln!(
                    out,
                    "fuse L{} (line {}) with L{} (line {})",
                    f.x, f.lines.0, f.y, f.lines.1
                )
                .expect("write to String");
            }
        }
        if !self.reductions.is_empty() {
            writeln!(out, "=== reductions ===").expect("write to String");
            for r in &self.reductions {
                writeln!(
                    out,
                    "loop L{} @ line {}: variable `{}` at line {}",
                    r.l, r.loop_line, r.var, r.line
                )
                .expect("write to String");
            }
        }
        if !self.geodecomp.is_empty() {
            writeln!(out, "=== geometric decomposition ===").expect("write to String");
            for g in &self.geodecomp {
                writeln!(out, "function `{}` over loops {:?}", g.name, g.loops)
                    .expect("write to String");
            }
        }
        for (g, t) in self.graphs.iter().zip(&self.tasks) {
            // Only worth narrating when the parallelism is non-trivial.
            if t.estimated_speedup > 1.05 {
                writeln!(out, "=== task parallelism in {:?} ===", g.region)
                    .expect("write to String");
                out.push_str(&t.render(g, &self.cus));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn analyze_finds_pipeline_and_fusion_in_listing_1() {
        let a = analyze_source(
            "global a[64];
global b[64];
fn main() {
    for i in 0..64 { a[i] = i * 2; }
    for j in 0..64 { b[j] = a[j] + 1; }
}",
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert_eq!(a.pipelines.len(), 1);
        assert_eq!(a.fusions.len(), 1);
        let s = a.summary();
        assert!(s.contains("multi-loop pipelines"));
        assert!(s.contains("fusion candidates"));
    }

    #[test]
    fn analyze_finds_tasks_in_fib() {
        let a = analyze_source(
            "fn fib(n) {
    if n < 2 { return n; }
    let x = fib(n - 1);
    let y = fib(n - 2);
    return x + y;
}
fn main() { fib(12); }",
            &AnalysisConfig::default(),
        )
        .unwrap();
        let best = a.best_task_report().unwrap();
        assert!(best.estimated_speedup > 1.2);
        assert!(a.summary().contains("task parallelism"));
    }

    #[test]
    fn analyze_reports_runtime_errors() {
        let err =
            analyze_source("global a[2]; fn main() { a[9] = 1; }", &AnalysisConfig::default())
                .unwrap_err();
        assert!(matches!(err, AnalyzeError::Runtime(_)));
    }

    #[test]
    fn analyze_reports_lang_errors() {
        let err = analyze_source("fn main() { oops", &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, AnalyzeError::Lang(_)));
    }

    #[test]
    fn reduction_program_classified_and_reported() {
        let a = analyze_source(
            "global arr[128];
fn main() {
    let sum = 0;
    for i in 0..128 {
        sum += arr[i];
    }
    return sum;
}",
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert_eq!(a.reductions.len(), 1);
        assert_eq!(a.loop_classes[&0], LoopClass::Reduction);
    }
}
