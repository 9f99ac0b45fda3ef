//! `batch-cold`: the first `parpat batch` over a large directory.
//!
//! One long-lived engine in the CLI batch configuration (watchdog on,
//! 512-entry memory tier, one job, no disk tier) runs
//! `Engine::analyze_one` on a stream of variants no stage has seen, so
//! every stage misses: the profiler, the differential oracle, the
//! detectors, and the memory tier's insert and evict all do work. Timing
//! starts once the memory tier has evicted.

use parpat_core::AnalysisConfig;
use parpat_engine::{BatchInput, Engine, EngineConfig, ProgramOutcome};
use parpat_runtime::WatchdogConfig;

use super::{end_to_end, ms, par_map, run_rounds, set_up, stage_total, Args, Layers, Report};
use crate::gen::{Gen, Variant};
use crate::measure::MIN_TIMED_OPS;
use crate::replay::{Counts, Replayer};
use crate::trace::Recorder;

/// Rounds (one variant of each app) whose counts the traced run reports.
const COUNT_ROUNDS: usize = 4;

/// The engine in steady state, and the variant stream.
pub struct Cold {
    engine: Engine,
    gen: Gen,
    next: usize,
}

impl Cold {
    /// The next round: one fresh variant of each app, in rotation.
    fn round(&mut self) -> Vec<(Variant, BatchInput)> {
        let n = self.gen.templates().len();
        (0..n)
            .map(|_| {
                let v = self.gen.variant(self.next % n);
                self.next += 1;
                let input =
                    BatchInput { name: self.gen.name(&v).to_owned(), source: self.gen.source(&v) };
                (v, input)
            })
            .collect()
    }
}

/// Build the engine and analyse variants until the memory tier evicts.
pub fn setup(args: &Args) -> Result<Cold, String> {
    let gen = Gen::new(args.seed)?;
    // The `parpat batch` configuration with `--cache-dir none`.
    let engine = Engine::new(EngineConfig {
        watchdog: Some(WatchdogConfig::default()),
        ..EngineConfig::default()
    })
    .map_err(|e| format!("cannot build the engine: {e}"))?;
    let mut s = Cold { engine, gen, next: 0 };
    while s.engine.cache().evictions() == 0 {
        for (_, input) in s.round() {
            if !s.engine.analyze_one(&input).outcome.is_ok() {
                return Err(format!("set-up analysis of `{}` failed", input.name));
            }
        }
    }
    Ok(s)
}

fn summary_hash(o: &ProgramOutcome) -> Option<u64> {
    o.outcome.report().map(|r| crate::hash(&r.summary))
}

/// Count ops whose outcome failed or differs from the one-shot
/// `parpat_core::analyze_source` summary of the same text.
fn failures(gen: &Gen, done: &[(Variant, Option<u64>)]) -> u64 {
    let cfg = AnalysisConfig::default();
    let bad = par_map(done, |(v, got)| {
        let reference = parpat_core::analyze_source(&gen.source(v), &cfg)
            .ok()
            .map(|a| crate::hash(&a.summary()));
        got.is_none() || *got != reference
    });
    bad.into_iter().filter(|b| *b).count() as u64
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = set_up(args, || setup(args))?;
    let mut done: Vec<(Variant, Option<u64>)> = Vec::new();
    let mut t = run_rounds(args.seconds, MIN_TIMED_OPS, |t| {
        let round = s.round();
        let mut outs = Vec::with_capacity(round.len());
        t.open_window();
        for (v, input) in &round {
            outs.push(t.op(s.gen.name(v), 1, || s.engine.analyze_one(input)));
        }
        t.close_window();
        done.extend(round.into_iter().zip(&outs).map(|((v, _), o)| (v, summary_hash(o))));
        Ok(())
    })?;
    let rss = crate::sys::peak_rss_mb()?;
    t.failed += failures(&s.gen, &done);
    end_to_end(&t, setup_s, rss)
}

/// The traced run: each op's `analyze_one`, then a stage replay of the
/// same text and the layer probes.
pub fn traced(args: &Args, rec: &mut Recorder) -> Result<Report, String> {
    let mut s = setup(args)?;
    let replayer = Replayer::new(AnalysisConfig::default());
    let n = s.gen.templates().len();
    let count_ops = COUNT_ROUNDS * n;
    let evictions_before = s.engine.cache().evictions();
    let mut counted = Counts::default();
    let mut evictions = 0;
    let mut mem_entries = 0;
    let mut done: Vec<(Variant, Option<u64>)> = Vec::new();
    let mut replay_mismatches = 0;
    let mut op = 0u64;
    let mut t = run_rounds(args.seconds, count_ops, |t| {
        let round = s.round();
        t.open_window();
        for (v, input) in round {
            rec.set_op(op);
            op += 1;
            let (o, replayed) = t.op(s.gen.name(&v), 1, || {
                rec.span("op", |rec| {
                    let o = rec.span("engine.analyze_one", |_| s.engine.analyze_one(&input));
                    (o, replayer.analysis(rec, &input.source, op % 2 == 1))
                })
            });
            match (&replayed, o.outcome.report()) {
                (Ok((r, c)), Some(got)) if r == got => {
                    if op as usize <= count_ops {
                        counted.insts += c.insts;
                        counted.mem_accesses += c.mem_accesses;
                        counted.deps += c.deps;
                    }
                }
                _ => replay_mismatches += 1,
            }
            if op as usize == count_ops {
                evictions = s.engine.cache().evictions() - evictions_before;
                mem_entries = s.engine.cache().mem_entries();
            }
            done.push((v, summary_hash(&o)));
        }
        t.close_window();
        Ok(())
    })?;
    t.failed += failures(&s.gen, &done) + replay_mismatches;

    let programs = t.programs;
    let mut l = Layers::default();
    l.set("trace.programs_per_s", t.programs_per_s());
    let op_wall = rec.total("engine.analyze_one");
    l.per_program("op.wall_ms", op_wall, programs);
    profile_layers(&mut l, rec, programs);
    l.per_program("profile.tee_ms", rec.total("profile.tee"), programs);
    l.per_program("minilang.oracle_ms", rec.total("minilang.oracle"), programs);
    l.per_program("minilang.parse_ms", rec.total("minilang.parse"), programs);
    l.per_program("ir.lower_ms", rec.total("ir.lower"), programs);
    l.per_program("ir.verify_ms", rec.total("ir.verify"), programs);
    static_layers(&mut l, rec, programs);
    l.per_program("cu.build_ms", rec.total("cu.build"), programs);
    l.per_program("core.detect_ms", rec.total("core.detect"), programs);
    l.per_program("core.assemble_ms", rec.total("core.assemble"), programs);
    l.per_program("core.rank_ms", rec.total("core.rank"), programs);
    let stages = stage_total(rec);
    let overhead_ms = (ms(op_wall) - ms(stages)) / programs as f64;
    l.set("engine.overhead_ms", overhead_ms);
    eprintln!(
        "batch-cold: replayed stages {:.4} + engine overhead {:.4} = analyze_one {:.4} ms/program",
        ms(stages) / programs as f64,
        overhead_ms,
        ms(op_wall) / programs as f64
    );
    let per = |x: u64| x as f64 / count_ops as f64;
    l.set("ir.insts", per(counted.insts));
    l.set("ir.mem_accesses", per(counted.mem_accesses));
    l.set("profile.deps", per(counted.deps));
    l.set("engine.evictions", per(evictions));
    l.set("engine.mem_entries", mem_entries as f64);
    Ok(Report { attempted: t.ops() as u64, failed: t.failed, metrics: l.into_metrics() })
}

/// The interpreter alone, and each observer's cost above it.
fn profile_layers(l: &mut Layers, rec: &Recorder, programs: u64) {
    let interp = ms(rec.total("ir.interp"));
    let p = programs as f64;
    l.set("ir.interp_ms", interp / p);
    l.set("profile.dependence_ms", (ms(rec.total("profile.dependence")) - interp) / p);
    l.set("pet.build_ms", (ms(rec.total("pet.build")) - interp) / p);
}

/// The static stage's layers: SSA construction, each pass, and the
/// dependence tests.
pub fn static_layers(l: &mut Layers, rec: &Recorder, programs: u64) {
    for (span, metric) in [
        ("ssa.build", "ssa.build_ms"),
        ("ssa.const_fold", "ssa.const_fold_ms"),
        ("ssa.cse", "ssa.cse_ms"),
        ("ssa.copy_prop", "ssa.copy_prop_ms"),
        ("ssa.licm", "ssa.licm_ms"),
        ("ssa.range", "ssa.range_ms"),
        ("static.deps", "static.deps_ms"),
    ] {
        l.per_program(metric, rec.total(span), programs);
    }
}
