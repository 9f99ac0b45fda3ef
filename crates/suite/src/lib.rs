//! # parpat-suite
//!
//! Reproductions of every program in the paper's evaluation (Section IV):
//! 17 applications from Polybench, BOTS, Starbench and Parsec, plus the two
//! synthetic reduction benchmarks `sum_local` / `sum_module` (Listings 8–9).
//!
//! Each application ships in two forms (see DESIGN.md, "Substitutions"):
//!
//! 1. a **MiniLang model** mirroring the hotspot loop/call structure of the
//!    original C benchmark — the input to the pattern detectors;
//! 2. a **native Rust kernel** (sequential + parallel via `parpat-runtime`)
//!    computing the same math, used for correctness validation of the
//!    parallel support structures.
//!
//! [`speedup`] maps each application's *detected* pattern onto a
//! `parpat-sim` task graph built from the measured instruction costs, which
//! regenerates the Table III speedup/threads columns.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod apps;
pub mod speedup;

use parpat_core::Analysis;
use parpat_ir::LoopId;

/// The benchmark suite an application comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// PolyBench/C.
    Polybench,
    /// Barcelona OpenMP Task Suite.
    Bots,
    /// Starbench.
    Starbench,
    /// PARSEC.
    Parsec,
    /// The paper's own synthetic reduction benchmarks.
    Synthetic,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Polybench => "Polybench",
            Suite::Bots => "BOTS",
            Suite::Starbench => "Starbench",
            Suite::Parsec => "Parsec",
            Suite::Synthetic => "Synthetic",
        };
        f.write_str(s)
    }
}

/// The pattern the paper reports for an application (Table III's "Detected
/// Pattern" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedPattern {
    /// Multi-loop pipeline.
    Pipeline,
    /// Loop fusion.
    Fusion,
    /// Task parallelism.
    Tasks,
    /// Task parallelism combined with do-all loops.
    TasksDoall,
    /// Geometric decomposition.
    Geometric,
    /// Geometric decomposition + reduction (kmeans).
    GeometricReduction,
    /// Reduction.
    Reduction,
}

impl std::fmt::Display for ExpectedPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExpectedPattern::Pipeline => "Multi-loop pipeline",
            ExpectedPattern::Fusion => "Fusion",
            ExpectedPattern::Tasks => "Task parallelism",
            ExpectedPattern::TasksDoall => "Task parallelism + Do-all",
            ExpectedPattern::Geometric => "Geometric decomposition",
            ExpectedPattern::GeometricReduction => "Geometric decomposition + Reduction",
            ExpectedPattern::Reduction => "Reduction",
        };
        f.write_str(s)
    }
}

/// One application of the evaluation.
#[derive(Debug, Clone)]
pub struct App {
    /// Benchmark name as in Table III.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// MiniLang model source.
    pub model: &'static str,
    /// The paper's reported pattern.
    pub expected: ExpectedPattern,
    /// Paper-reported best speedup (Table III), for EXPERIMENTS.md
    /// comparison.
    pub paper_speedup: f64,
    /// Paper-reported best thread count.
    pub paper_threads: u32,
}

impl App {
    /// Analyze the model with default configuration.
    pub fn analyze(&self) -> Result<Analysis, parpat_core::AnalyzeError> {
        parpat_core::analyze_source(self.model, &parpat_core::AnalysisConfig::default())
    }

    /// Model lines of code (Table III's LOC column, for the model).
    pub fn model_loc(&self) -> usize {
        self.model.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// Every application of the evaluation, in Table III order.
pub fn all_apps() -> Vec<App> {
    vec![
        apps::ludcmp::app(),
        apps::reg_detect::app(),
        apps::fluidanimate::app(),
        apps::rot_cc::app(),
        apps::correlation::app(),
        apps::two_mm::app(),
        apps::fib::app(),
        apps::sort::app(),
        apps::strassen::app(),
        apps::three_mm::app(),
        apps::mvt::app(),
        apps::fdtd_2d::app(),
        apps::kmeans::app(),
        apps::streamcluster::app(),
        apps::nqueens::app(),
        apps::bicg::app(),
        apps::gesummv::app(),
    ]
}

/// The two synthetic reduction benchmarks (Listings 8 and 9).
pub fn synthetic_apps() -> Vec<App> {
    vec![apps::sum_local::app(), apps::sum_module::app()]
}

/// Look up an app by name across both lists.
pub fn app_named(name: &str) -> Option<App> {
    all_apps().into_iter().chain(synthetic_apps()).find(|a| a.name == name)
}

/// Average dynamic cost of one iteration of loop `l` (inclusive subtree
/// instructions / total iterations), measured from the analysis.
pub fn loop_cost_per_iter(a: &Analysis, l: LoopId) -> f64 {
    let Some(node) = a.pet.loop_node(l) else {
        return 0.0;
    };
    let n = &a.pet.nodes[node];
    if n.iterations == 0 {
        0.0
    } else {
        n.inclusive_insts as f64 / n.iterations as f64
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn registry_has_seventeen_apps() {
        assert_eq!(all_apps().len(), 17);
        assert_eq!(synthetic_apps().len(), 2);
    }

    #[test]
    fn app_names_are_unique() {
        let mut names: Vec<&str> =
            all_apps().iter().chain(synthetic_apps().iter()).map(|a| a.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn every_model_parses_and_checks() {
        for app in all_apps().iter().chain(synthetic_apps().iter()) {
            parpat_minilang::parse_checked(app.model)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        }
    }

    #[test]
    fn app_lookup_by_name() {
        assert!(app_named("ludcmp").is_some());
        assert!(app_named("sum_module").is_some());
        assert!(app_named("nonexistent").is_none());
    }
}
