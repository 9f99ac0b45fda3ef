//! `lint`: `parpat lint --json` on one program.
//!
//! Each op lints a fresh variant with `parpat_static::lint_source` and
//! renders the CLI's JSON object. All of its work is in parsing, lowering,
//! SSA construction and passes, and the dependence tests: layers that are
//! a few percent of `batch-cold`, where a change to them would not show.

use parpat_core::AnalysisConfig;

use super::batch_cold::static_layers;
use super::{end_to_end, ms, run_rounds, set_up, stage_total, Args, Layers, Report};
use crate::gen::Gen;
use crate::golden::{render_program, Golden};
use crate::measure::MIN_TIMED_OPS;
use crate::replay::Replayer;
use crate::trace::Recorder;

/// App rounds per window (one variant of each app per round). One round
/// is a few milliseconds, so a host stall shows in its window's speed.
const ROUNDS_PER_WINDOW: usize = 1;
/// Windows linted as warm-up in set-up: long enough that a short slow
/// spell on the host does not decide `setup_s`.
const WARM_UP_WINDOWS: usize = 80;

/// The variant stream and the golden snapshot.
pub struct Lint {
    gen: Gen,
    golden: Golden,
}

/// Load the golden snapshot and lint a few windows of variants as
/// warm-up, checking each against it.
pub fn setup(args: &Args) -> Result<Lint, String> {
    let mut s = Lint { gen: Gen::new(args.seed)?, golden: Golden::load()? };
    for _ in 0..WARM_UP_WINDOWS {
        let inputs = s.inputs();
        let outs: Vec<String> = inputs.iter().map(|(name, src)| lint_json(name, src)).collect();
        if s.mismatches(inputs.iter().zip(&outs).map(|((n, _), o)| (*n, o.as_str()))) > 0 {
            return Err("a warm-up variant lints differently from the golden snapshot".to_owned());
        }
    }
    Ok(s)
}

impl Lint {
    /// A window's inputs: fresh variants, each app once per round.
    fn inputs(&mut self) -> Vec<(&'static str, String)> {
        let n = self.gen.templates().len();
        (0..ROUNDS_PER_WINDOW * n)
            .map(|i| {
                let v = self.gen.variant(i % n);
                (self.gen.name(&v), self.gen.source(&v))
            })
            .collect()
    }

    fn mismatches<'a>(&self, outs: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
        outs.into_iter().filter(|(name, json)| self.golden.expected(name) != Some(json)).count()
            as u64
    }
}

fn lint_json(name: &str, src: &str) -> String {
    render_program(name, &parpat_static::lint_source(src))
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = set_up(args, || setup(args))?;
    let t = run_rounds(args.seconds, MIN_TIMED_OPS, |t| {
        let inputs = s.inputs();
        let mut outs = Vec::with_capacity(inputs.len());
        t.open_window();
        for (name, src) in &inputs {
            outs.push(t.op(name, 1, || lint_json(name, src)));
        }
        t.close_window();
        t.failed += s.mismatches(inputs.iter().zip(&outs).map(|((n, _), o)| (*n, o.as_str())));
        Ok(())
    })?;
    let rss = crate::sys::peak_rss_mb()?;
    end_to_end(&t, setup_s, rss)
}

/// The traced run: each op, then a stage replay of the same text.
pub fn traced(args: &Args, rec: &mut Recorder) -> Result<Report, String> {
    let mut s = setup(args)?;
    let replayer = Replayer::new(AnalysisConfig::default());
    let mut op = 0u64;
    let n = s.gen.templates().len();
    let t = run_rounds(args.seconds, ROUNDS_PER_WINDOW * n, |t| {
        let inputs = s.inputs();
        let mut outs = Vec::with_capacity(inputs.len());
        t.open_window();
        for (name, src) in &inputs {
            rec.set_op(op);
            op += 1;
            let (got, replayed) = t.op(name, 1, || {
                rec.span("op", |rec| {
                    let got = rec.span("static.lint_source", |_| lint_json(name, src));
                    (got, replayer.lint(rec, name, src))
                })
            });
            if replayed.as_ref() != Ok(&got) {
                t.failed += 1;
            }
            outs.push(got);
        }
        t.close_window();
        t.failed += s.mismatches(inputs.iter().zip(&outs).map(|((n, _), o)| (*n, o.as_str())));
        Ok(())
    })?;
    let programs = t.programs;
    let mut l = Layers::default();
    l.set("trace.programs_per_s", t.programs_per_s());
    let wall = rec.total("static.lint_source");
    l.per_program("op.wall_ms", wall, programs);
    l.per_program("minilang.parse_ms", rec.total("minilang.parse"), programs);
    l.per_program("ir.lower_ms", rec.total("ir.lower"), programs);
    static_layers(&mut l, rec, programs);
    l.per_program("static.render_ms", rec.total("static.render"), programs);
    let replayed = ms(stage_total(rec) + rec.total("static.render"));
    eprintln!(
        "lint: replayed stages {:.4} ms/program against lint_source {:.4}",
        replayed / programs as f64,
        ms(wall) / programs as f64
    );
    Ok(Report { attempted: t.ops() as u64, failed: t.failed, metrics: l.into_metrics() })
}
