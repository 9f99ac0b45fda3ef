//! The workloads. Each is a closed loop with one caller and one op in
//! flight; `run` drives the untraced timed phase, `traced` the per-layer
//! replay.

pub mod batch_cold;
pub mod lint;
pub mod serve_edit;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::measure::{median, Timed};
use crate::trace::Recorder;
use crate::vfs::VfsCounts;

/// Set-ups per untraced run; `setup_s` is their median. All but the last
/// run in fresh child processes, so this process holds the memory of one
/// set-up only and `peak_rss_mb` stays that of one engine or server.
pub const SETUPS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, as given on the command line.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Least timed wall time.
    pub seconds: u64,
    /// Private scratch directory (cache directories, the socket).
    pub work: PathBuf,
}

/// The result a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Every per-layer metric a traced run prints, with its unit. Times are
/// milliseconds per program; counts are per program unless noted.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("trace.programs_per_s", "1/s"),
    ("op.wall_ms", "ms"),
    ("ir.interp_ms", "ms"),
    ("profile.dependence_ms", "ms"),
    ("pet.build_ms", "ms"),
    ("profile.tee_ms", "ms"),
    ("ir.insts", "count"),
    ("ir.mem_accesses", "count"),
    ("profile.deps", "count"),
    ("minilang.oracle_ms", "ms"),
    ("minilang.parse_ms", "ms"),
    ("ir.lower_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ssa.build_ms", "ms"),
    ("ssa.const_fold_ms", "ms"),
    ("ssa.cse_ms", "ms"),
    ("ssa.copy_prop_ms", "ms"),
    ("ssa.licm_ms", "ms"),
    ("ssa.range_ms", "ms"),
    ("static.deps_ms", "ms"),
    ("static.render_ms", "ms"),
    ("cu.build_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.rank_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.evictions", "count"),
    ("engine.mem_entries", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.funcs_reanalyzed_per_edit", "count"),
    ("vfs.reads", "count"),
    ("vfs.bytes_read", "bytes"),
    ("vfs.read_ms", "ms"),
    ("vfs.syncs", "count"),
    ("vfs.sync_ms", "ms"),
    ("vfs.bytes_written", "bytes"),
    ("vfs.write_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.parse_request_ms", "ms"),
    ("serve.report_json_ms", "ms"),
    ("runtime.handoff_ms", "ms"),
];

/// Per-layer values of one traced run; layers the workload does not
/// exercise print as 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Set metric `name` (must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Set `name` to `total` in milliseconds per program.
    pub fn per_program(&mut self, name: &'static str, total: Duration, programs: u64) {
        self.set(name, ms(total) / programs as f64);
    }

    /// Every per-layer metric in print order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u)).collect()
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `setup` here after `SETUPS - 1` set-ups of the same workload and
/// seed in child processes; returns this process's state and the median
/// set-up time in seconds.
pub fn set_up<S>(
    args: &Args,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut secs = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0", "--setup-only", "1"])
            .output()
            .map_err(|e| format!("cannot run a set-up child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let s = stdout.lines().last().and_then(|l| l.trim().parse::<f64>().ok());
        match s {
            Some(s) if out.status.success() => secs.push(s),
            _ => {
                return Err(format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    let (state, mine) = timed_setup(setup)?;
    secs.push(mine);
    Ok((state, median(secs)))
}

/// `setup`'s result and its duration in seconds.
fn timed_setup<S>(setup: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = Instant::now();
    let state = setup()?;
    Ok((state, t.elapsed().as_secs_f64()))
}

/// One set-up of `args.workload`, torn down again; its duration in
/// seconds. This is what a set-up child process runs.
pub fn setup_only(args: &Args) -> Result<f64, String> {
    let secs = match args.workload.as_str() {
        "batch-cold" => timed_setup(|| batch_cold::setup(args))?.1,
        "serve-edit" => timed_setup(|| serve_edit::setup(args, false))?.1,
        "lint" => timed_setup(|| lint::setup(args))?.1,
        w => return Err(format!("unknown workload `{w}`")),
    };
    Ok(secs)
}

/// Run `round` until `seconds` have passed and at least `min_ops` ops
/// were timed. A round holds whole groups of equal work.
pub fn run_rounds(
    seconds: u64,
    min_ops: usize,
    mut round: impl FnMut(&mut Timed) -> Result<(), String>,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || t.ops() < min_ops {
        round(&mut t)?;
    }
    Ok(t)
}

/// The six end-to-end metrics of an untraced run. `peak_rss_mb` is read
/// when the timed phase ends, before references are computed.
pub fn end_to_end(t: &Timed, setup_s: f64, peak_rss_mb: f64) -> Result<Report, String> {
    let blocks = t.blocks();
    let n = blocks.iter().map(|b| b.1).sum::<usize>() as f64;
    let mut at = 0.0;
    for (block, ops, ms) in blocks {
        eprintln!(
            "block {block:<14} ranks {:6.2}%..{:6.2}%  median {ms:.3} ms",
            100.0 * at / n,
            100.0 * (at + ops as f64) / n
        );
        at += ops as f64;
    }
    let p50 = t.percentile_ms(0.50)?;
    let p99 = t.percentile_ms(0.99)?;
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("programs_per_s", t.programs_per_s(), "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p99_ms", p99, "ms"),
        ("cpu_ms_per_program", t.cpu_ms_per_program(), "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    Ok(Report { attempted: t.ops() as u64, failed: t.failed, metrics })
}

/// `f` over `items` on two threads: references are computed after the
/// timed phase, where only the run's length is at stake.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (a, b) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let first = s.spawn(|| a.iter().map(&f).collect::<Vec<R>>());
        let second: Vec<R> = b.iter().map(&f).collect();
        let mut out = first.join().expect("a reference thread panicked");
        out.extend(second);
        out
    })
}

/// Summed durations of the replay stage spans.
pub fn stage_total(rec: &Recorder) -> Duration {
    crate::replay::STAGE_SPANS.iter().map(|s| rec.total(s)).sum()
}

/// Storage metrics per program: counts from the count prefix (`counted`
/// over `counted_programs`), times from the whole run (`all` over
/// `programs`).
pub fn storage_layers(
    l: &mut Layers,
    counted: &VfsCounts,
    counted_programs: f64,
    all: &VfsCounts,
    programs: u64,
) {
    let p = programs as f64;
    l.set("vfs.reads", counted.reads as f64 / counted_programs);
    l.set("vfs.bytes_read", counted.bytes_read as f64 / counted_programs);
    l.set("vfs.syncs", counted.syncs as f64 / counted_programs);
    l.set("vfs.bytes_written", counted.bytes_written as f64 / counted_programs);
    l.set("vfs.read_ms", ms(all.read) / p);
    l.set("vfs.sync_ms", ms(all.sync) / p);
    l.set("vfs.write_ms", ms(all.write) / p);
}
