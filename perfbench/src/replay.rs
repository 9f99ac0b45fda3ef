//! Stage replay for traced runs: the same source text pushed through each
//! stage's public entry point, in the order a cold `Engine::analyze_one`
//! runs them, with one span per stage. Probes then split the profile and
//! static stages into their layers by re-running pieces of them alone.

use parpat_core::{AnalysisConfig, RankConfig};
use parpat_engine::{cross_validate, ProgramReport};
use parpat_ir::event::{MemAccess, NullObserver, Observer};
use parpat_ir::ir::IrStmt;
use parpat_ir::{FuncId, IrProgram};
use parpat_minilang::{EvalLimits, Program};
use parpat_pet::PetBuilder;
use parpat_profile::DependenceProfiler;
use parpat_ssa::{standard_pipeline, PassManager, SsaFunc};
use parpat_static::{LoopReport, StaticReport};

use crate::trace::Recorder;

/// Direct children of a replay root, in engine order. Their durations sum
/// to the replayed part of `analyze_one`; the rest of its wall time is
/// engine overhead (keying, cache insert and evict).
pub const STAGE_SPANS: [&str; 10] = [
    "minilang.parse",
    "ir.lower",
    "ir.verify",
    "static",
    "cu.build",
    "profile.tee",
    "minilang.oracle",
    "core.detect",
    "core.assemble",
    "core.rank",
];

/// Counts of one replayed program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Dynamic IR instructions of the profiled run.
    pub insts: u64,
    /// Memory accesses the interpreter reported to its observer.
    pub mem_accesses: u64,
    /// Distinct dynamic dependences the profiler recorded.
    pub deps: u64,
}

/// Replays programs under one analysis configuration.
#[derive(Debug, Clone, Copy)]
pub struct Replayer {
    cfg: AnalysisConfig,
}

/// Counts memory accesses and nothing else.
#[derive(Default)]
struct AccessCounter(u64);

impl Observer for AccessCounter {
    fn memory(&mut self, _access: MemAccess) {
        self.0 += 1;
    }
}

impl Replayer {
    /// A replayer matching an engine built with `cfg`.
    pub fn new(cfg: AnalysisConfig) -> Replayer {
        Replayer { cfg }
    }

    /// Replay a cold analysis of `src` under a `replay` span and return its
    /// report; the `probe` span that follows splits the profile and static
    /// stages into layers. `reverse` runs the profile probes in reverse
    /// order; alternating it from op to op cancels the bias of going first.
    pub fn analysis(
        &self,
        rec: &mut Recorder,
        src: &str,
        reverse: bool,
    ) -> Result<(ProgramReport, Counts), String> {
        let (ir, report, deps) = rec.span("replay", |rec| self.stages(rec, src))?;
        let counts = rec.span("probe", |rec| -> Result<Counts, String> {
            let mut c = self.profile_probes(rec, &ir, reverse)?;
            c.deps = deps;
            static_probes(rec, &ir);
            Ok(c)
        })?;
        Ok((report, counts))
    }

    fn stages(
        &self,
        rec: &mut Recorder,
        src: &str,
    ) -> Result<(IrProgram, ProgramReport, u64), String> {
        let ast = rec
            .span("minilang.parse", |_| parpat_minilang::parse_checked(src))
            .map_err(|e| e.to_string())?;
        let ir = rec.span("ir.lower", |_| parpat_ir::lower(&ast));
        let violations = rec.span("ir.verify", |_| parpat_ir::verify_against(&ir, &ast));
        if !violations.is_empty() {
            return Err(format!("IR verifier: {} violation(s)", violations.len()));
        }
        let statics = rec.span("static", |_| static_stage(&ir));
        let cus = rec.span("cu.build", |_| {
            let frags: Vec<_> =
                ir.functions.iter().map(|f| parpat_cu::build_function_cus(&ir, f.id)).collect();
            parpat_cu::merge_cu_sets(frags.iter())
        });
        let run = rec
            .span("profile.tee", |_| parpat_core::profile_ir(&ir, self.cfg.limits))
            .map_err(|e| e.to_string())?;
        let limits = self.cfg.limits;
        let diverged = rec.span("minilang.oracle", |_| {
            let eval_limits = EvalLimits {
                max_steps: limits.max_insts.saturating_mul(4),
                max_call_depth: limits.max_call_depth,
            };
            match parpat_minilang::evaluate_with_limits(&ast, eval_limits) {
                Ok(o) => parpat_minilang::divergence(&ast, &o, run.return_value, &run.globals),
                Err(e) if e.is_budget() => None,
                Err(e) => Some(e.to_string()),
            }
        });
        if let Some(d) = diverged {
            return Err(format!("differential oracle: {d}"));
        }
        let detections = rec.span("core.detect", |_| {
            parpat_core::detect_patterns(&ir, &run.profile, &run.pet, &cus, &self.cfg)
        });
        let analysis = rec.span("core.assemble", |_| {
            parpat_core::assemble_analysis(
                ir.clone(),
                run.profile.clone(),
                run.pet.clone(),
                cus.clone(),
                detections,
            )
        });
        let report = rec.span("core.rank", |_| {
            let ranked = parpat_core::rank_patterns(&analysis, &RankConfig::default());
            let xv = cross_validate(&statics, &analysis.loop_classes);
            ProgramReport {
                summary: analysis.summary(),
                ranking: if ranked.is_empty() {
                    String::new()
                } else {
                    parpat_core::render_ranking(&ranked)
                },
                insts: analysis.profile.total_insts,
                pipelines: analysis.pipelines.len(),
                fusions: analysis.fusions.len(),
                reductions: analysis.reductions.len(),
                geodecomp: analysis.geodecomp.len(),
                task_regions: analysis.graphs.len(),
                static_doall: statics.proven_doall_count(),
                input_sensitive: xv.input_sensitive,
                consistency_errors: xv.consistency_errors,
            }
        });
        Ok((ir, report, run.profile.deps.len() as u64))
    }

    /// The interpreter alone, with each observer of the production tee
    /// alone, and with an access counter.
    fn profile_probes(
        &self,
        rec: &mut Recorder,
        ir: &IrProgram,
        reverse: bool,
    ) -> Result<Counts, String> {
        let entry = ir.entry.ok_or("program has no `main`")?;
        let limits = self.cfg.limits;
        let run = |obs: &mut dyn Observer| {
            parpat_ir::run_function_captured(ir, entry, &[], obs, limits, None)
                .map(|c| c.outcome.insts)
                .map_err(|e| e.to_string())
        };
        let mut c = Counts::default();
        let mut order = [0, 1, 2, 3];
        if reverse {
            order.reverse();
        }
        for probe in order {
            match probe {
                0 => c.insts = rec.span("ir.interp", |_| run(&mut NullObserver))?,
                1 => rec.span("profile.dependence", |_| {
                    let mut p = DependenceProfiler::new(ir);
                    run(&mut p).map(|_| drop(p.into_data()))
                })?,
                2 => rec.span("pet.build", |_| {
                    let mut p = PetBuilder::new();
                    run(&mut p).map(|_| drop(p.into_pet()))
                })?,
                _ => {
                    let mut counter = AccessCounter::default();
                    run(&mut counter)?;
                    c.mem_accesses = counter.0;
                }
            }
        }
        Ok(c)
    }

    /// Replay `parpat_static::lint_source` stage by stage and render the
    /// CLI's JSON object; probes split the static stage as in
    /// [`Replayer::analysis`].
    pub fn lint(&self, rec: &mut Recorder, name: &str, src: &str) -> Result<String, String> {
        let (ir, json) = rec.span("replay", |rec| -> Result<(IrProgram, String), String> {
            let ast = rec.span("minilang.parse", |_| -> Result<Program, String> {
                let p = parpat_minilang::parser::parse(src).map_err(|e| e.to_string())?;
                match parpat_minilang::sema::check_all(&p, true).first() {
                    Some(e) => Err(e.to_string()),
                    None => Ok(p),
                }
            })?;
            let ir = rec.span("ir.lower", |_| parpat_ir::lower(&ast));
            let statics = rec.span("static", |_| static_stage(&ir));
            let json = rec.span("static.render", |_| {
                crate::golden::render_program(name, &statics.diagnostics())
            });
            Ok((ir, json))
        })?;
        rec.span("probe", |rec| static_probes(rec, &ir));
        Ok(json)
    }
}

/// The static stage as the engine runs it on a cold program: every
/// function analyzed, then merged.
fn static_stage(ir: &IrProgram) -> StaticReport {
    let parts: Vec<Vec<LoopReport>> =
        ir.functions.iter().map(|f| parpat_static::analyze_function_timed(ir, f.id).0).collect();
    parpat_static::merge_function_reports(parts.iter().map(Vec::as_slice))
}

/// The static stage split into layers, function by function: the SSA
/// work inside `analyze_function`, then its per-loop dependence tests.
fn static_probes(rec: &mut Recorder, ir: &IrProgram) {
    for f in &ir.functions {
        let ssa = ssa_probes(rec, ir, f.id);
        rec.span("static.deps", |_| {
            let mut loops = Vec::new();
            dependence_tests(ir, &f.body, ssa.as_ref(), &mut loops);
            loops
        });
    }
}

/// SSA construction (build, promote, verify), then each roster pass
/// through a one-pass manager, in roster order on the same function. The
/// optimized function, or `None` where the verifier rejects it and the
/// analysis falls back to affine-only, as `analyze_function` does.
fn ssa_probes(rec: &mut Recorder, ir: &IrProgram, func: FuncId) -> Option<SsaFunc> {
    let mut f = rec.span("ssa.build", |_| {
        let mut f = SsaFunc::build(ir, func);
        parpat_ssa::promote_to_ssa(&mut f);
        parpat_ssa::verify_func(&f).is_empty().then_some(f)
    })?;
    for pass in standard_pipeline() {
        let name = pass_span(pass.name());
        rec.span(name, |_| PassManager::new(vec![pass]).run(&mut f)).ok()?;
    }
    Some(f)
}

/// Every loop's dependence verdict, walking the function body as
/// `analyze_function` does.
fn dependence_tests(
    ir: &IrProgram,
    stmts: &[IrStmt],
    ssa: Option<&SsaFunc>,
    out: &mut Vec<LoopReport>,
) {
    for s in stmts {
        match s {
            IrStmt::Loop { id, kind, body, .. } => {
                out.push(parpat_static::loops::analyze_loop(ir, *id, kind, body, ssa));
                dependence_tests(ir, body, ssa, out);
            }
            IrStmt::If { then_body, else_body, .. } => {
                dependence_tests(ir, then_body, ssa, out);
                dependence_tests(ir, else_body, ssa, out);
            }
            _ => {}
        }
    }
}

/// Span name of a roster pass.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "const_fold" => "ssa.const_fold",
        "cse" => "ssa.cse",
        "copy_prop" => "ssa.copy_prop",
        "licm" => "ssa.licm",
        "range" => "ssa.range",
        _ => "ssa.other",
    }
}
