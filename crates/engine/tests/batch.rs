//! End-to-end engine tests: equivalence with the one-shot analysis over
//! the full 17-app suite, cache-invalidation behavior, per-stage
//! accounting, disk-tier traffic, and scheduling determinism.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parpat_core::{analyze_source, rank_patterns, render_ranking, AnalysisConfig, RankConfig};
use parpat_engine::{
    BatchInput, Engine, EngineConfig, EngineStats, FaultMode, FaultPlan, SimFs, Stage, Vfs,
};
use parpat_ir::ExecLimits;

fn engine(cache_dir: Option<PathBuf>) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig { cache_dir, ..Default::default() }).expect("engine"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn suite_inputs() -> Vec<BatchInput> {
    parpat_suite::all_apps()
        .iter()
        .map(|a| BatchInput { name: a.name.to_owned(), source: a.model.to_owned() })
        .collect()
}

#[test]
fn batch_matches_one_shot_analysis_on_all_apps() {
    let inputs = suite_inputs();
    assert_eq!(inputs.len(), 17, "the paper's full evaluation suite");
    let batch = engine(None).batch(inputs.clone(), 4);
    assert_eq!(batch.outcomes.len(), 17);
    assert_eq!(batch.stats.errors, 0);

    for (input, outcome) in inputs.iter().zip(&batch.outcomes) {
        assert_eq!(input.name, outcome.name, "input order preserved");
        let report = outcome.outcome.report().expect("suite apps analyze cleanly");
        let expected = analyze_source(&input.source, &AnalysisConfig::default())
            .expect("one-shot analysis succeeds");
        assert_eq!(report.summary, expected.summary(), "summary for {}", input.name);
        let ranked = rank_patterns(&expected, &RankConfig::default());
        let expected_ranking =
            if ranked.is_empty() { String::new() } else { render_ranking(&ranked) };
        assert_eq!(report.ranking, expected_ranking, "ranking for {}", input.name);
        assert_eq!(report.insts, expected.profile.total_insts, "insts for {}", input.name);
        assert_eq!(report.pipelines, expected.pipelines.len());
        assert_eq!(report.fusions, expected.fusions.len());
        assert_eq!(report.reductions, expected.reductions.len());
        assert_eq!(report.geodecomp, expected.geodecomp.len());
        assert_eq!(report.task_regions, expected.graphs.len());
    }
}

#[test]
fn batch_accumulates_ssa_pass_timings() {
    let cold = engine(None).batch(suite_inputs(), 4);
    assert_eq!(cold.stats.ssa_passes.len(), parpat_static::PASS_NAMES.len());
    for (p, name) in cold.stats.ssa_passes.iter().zip(parpat_static::PASS_NAMES) {
        assert_eq!(p.name, name, "roster order is preserved");
        // Every suite app has at least `main`; each executed static
        // fragment runs the whole roster over its function.
        assert!(p.runs >= 17, "{name} ran {} time(s):\n{}", p.runs, cold.stats.render_text());
    }
    assert!(cold.stats.render_text().contains("ssa passes: const_fold"));

    // A warm run re-analyzes nothing, so no pass runs accumulate.
    let dir = temp_dir("ssa-pass");
    let inputs = suite_inputs();
    let _ = engine(Some(dir.clone())).batch(inputs.clone(), 4);
    let warm = engine(Some(dir.clone())).batch(inputs, 4);
    assert!(warm.stats.ssa_passes.iter().all(|p| p.runs == 0), "{}", warm.stats.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_count_does_not_change_results() {
    let inputs = suite_inputs();
    // Separate engines so the second run cannot lean on the first's cache.
    let serial = engine(None).batch(inputs.clone(), 1);
    let parallel = engine(None).batch(inputs, 8);
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.name, b.name);
        let (ra, rb) = (a.outcome.report().unwrap(), b.outcome.report().unwrap());
        assert_eq!(ra, rb, "report for {} differs across job counts", a.name);
    }
    assert_eq!(serial.stats.jobs, 1);
    assert_eq!(parallel.stats.jobs, 8);
}

#[test]
fn warm_disk_cache_skips_every_stage() {
    let dir = temp_dir("warm");
    let inputs = suite_inputs();

    let cold = engine(Some(dir.clone())).batch(inputs.clone(), 4);
    assert_eq!(cold.stats.cache.hits, 0, "cold run cannot hit");
    assert_eq!(cold.stats.cache.misses, 17 * 7);

    // A fresh engine (fresh process, in effect): only the disk tier answers.
    let warm = engine(Some(dir.clone())).batch(inputs, 4);
    assert!(warm.outcomes.iter().all(|o| o.fully_cached), "every program fully cached");
    assert_eq!(warm.stats.cache.hits, 17 * 7);
    assert_eq!(warm.stats.cache.misses, 0);
    assert!(warm.stats.hit_rate().unwrap() >= 0.9, "acceptance: >= 90% stage hits");
    for s in [Stage::Profile, Stage::Detect] {
        assert_eq!(warm.stats.stage(s).executed, 0, "{s} must not execute on a warm run");
    }
    // The batch persisted its stats for `parpat stats`.
    assert!(dir.join("stats.txt").exists());
    assert!(dir.join("stats.json").exists());

    let _ = std::fs::remove_dir_all(&dir);
}

const PIPELINE_SRC: &str = "global a[64];
global b[64];
fn main() {
    for i in 0..64 { a[i] = i * 2; }
    for j in 0..64 { b[j] = a[j] + 1; }
}";

#[test]
fn cosmetic_edit_reparses_but_downstream_stages_hit() {
    let dir = temp_dir("cosmetic");
    let input =
        |source: &str| vec![BatchInput { name: "pipe".to_owned(), source: source.to_owned() }];
    let cold = engine(Some(dir.clone())).batch(input(PIPELINE_SRC), 1);
    assert_eq!(cold.stats.cache.misses, 7);

    // Extra spaces + a trailing comment: different source bytes, identical
    // token stream — the parse key misses, the AST digest is unchanged, so
    // every downstream stage hits and the persisted report is reused.
    let cosmetic = PIPELINE_SRC.replace(
        "for i in 0..64 { a[i] = i * 2; }",
        "for i in 0..64 { a[i]  =  i * 2; } // doubles",
    );
    assert_ne!(cosmetic, PIPELINE_SRC);
    let warm = engine(Some(dir.clone())).batch(input(&cosmetic), 1);
    let stats = &warm.stats;
    assert_eq!(stats.stage(Stage::Parse).misses, 1, "parse re-runs:\n{}", stats.render_text());
    assert_eq!(stats.stage(Stage::Parse).hits, 0);
    for s in
        [Stage::Lower, Stage::Static, Stage::CuBuild, Stage::Profile, Stage::Detect, Stage::Rank]
    {
        assert_eq!(stats.stage(s).hits, 1, "{s} must hit:\n{}", stats.render_text());
        assert_eq!(stats.stage(s).executed, 0, "{s} must not execute");
    }
    assert_eq!(
        warm.outcomes[0].outcome.report().unwrap().summary,
        cold.outcomes[0].outcome.report().unwrap().summary,
    );
    assert!(!warm.outcomes[0].fully_cached, "parse did run");

    // A real edit (changed constant) invalidates the whole chain.
    let mutated = PIPELINE_SRC.replace("i * 2", "i * 3");
    let changed = engine(Some(dir.clone())).batch(input(&mutated), 1);
    assert_eq!(changed.stats.cache.misses, 7, "{}", changed.stats.render_text());
    assert_eq!(changed.stats.cache.hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_memory_cache_hits_within_one_engine() {
    let eng = engine(None);
    let inputs = vec![BatchInput { name: "pipe".to_owned(), source: PIPELINE_SRC.to_owned() }];
    let first = eng.batch(inputs.clone(), 1);
    assert_eq!(first.stats.cache.misses, 7);
    let second = eng.batch(inputs, 1);
    assert_eq!(second.stats.cache.hits, 7, "{}", second.stats.render_text());
    assert!(second.outcomes[0].fully_cached);
}

#[test]
fn errors_are_reported_not_cached_as_results() {
    let eng = engine(None);
    let inputs = vec![
        BatchInput { name: "bad".to_owned(), source: "fn main() { oops".to_owned() },
        BatchInput { name: "good".to_owned(), source: PIPELINE_SRC.to_owned() },
    ];
    let batch = eng.batch(inputs, 2);
    assert_eq!(batch.stats.errors, 1);
    assert!(batch.outcomes[0].outcome.is_err());
    assert!(batch.outcomes[1].outcome.is_ok());
    assert_eq!(batch.outcomes[0].name, "bad", "order preserved despite error");
}

/// `(executed, hits, misses)` of every stage, in stage order.
fn stage_counts(stats: &EngineStats) -> Vec<(u64, u64, u64)> {
    Stage::ALL
        .iter()
        .map(|&s| {
            let st = stats.stage(s);
            (st.executed, st.hits, st.misses)
        })
        .collect()
}

fn pipe_input() -> Vec<BatchInput> {
    vec![BatchInput { name: "pipe".to_owned(), source: PIPELINE_SRC.to_owned() }]
}

const RAN: (u64, u64, u64) = (1, 0, 1);
const HIT: (u64, u64, u64) = (0, 1, 0);
const UNRESOLVED: (u64, u64, u64) = (0, 0, 0);

#[test]
fn a_failed_rank_reruns_alone_once_detect_answers_from_memory() {
    let eng = Arc::new(
        Engine::new(EngineConfig {
            faults: vec![FaultPlan::at(Stage::Rank, 0, FaultMode::Transient(1))],
            ..Default::default()
        })
        .expect("engine"),
    );
    let first = eng.batch(pipe_input(), 1);
    assert!(first.outcomes[0].outcome.is_degraded(), "{:?}", first.outcomes[0].outcome);
    assert_eq!(stage_counts(&first.stats), vec![RAN; 7], "{}", first.stats.render_text());
    assert!(!first.outcomes[0].fully_cached);

    // Same engine: every stage before rank answers from the memory tier,
    // and rank, whose fault has disarmed, runs alone.
    let second = eng.batch(pipe_input(), 1);
    assert!(second.outcomes[0].outcome.is_ok());
    assert_eq!(
        stage_counts(&second.stats),
        vec![HIT, HIT, HIT, HIT, HIT, HIT, RAN],
        "{}",
        second.stats.render_text()
    );
    assert!(!second.outcomes[0].fully_cached);
}

#[test]
fn a_changed_detector_config_reruns_every_stage_over_a_warm_disk_dir() {
    let dir = temp_dir("hotspot");
    let cold = engine(Some(dir.clone())).batch(pipe_input(), 1);
    assert_eq!(stage_counts(&cold.stats), vec![RAN; 7]);

    // A fresh engine over the warm dir with another hotspot threshold:
    // the detect and rank keys change, and with nothing in memory every
    // artifact they need is rebuilt.
    let cfg = EngineConfig {
        cache_dir: Some(dir.clone()),
        analysis: AnalysisConfig { hotspot_threshold: 0.05, ..Default::default() },
        ..Default::default()
    };
    let changed = Arc::new(Engine::new(cfg).expect("engine")).batch(pipe_input(), 1);
    assert!(changed.outcomes[0].outcome.is_ok());
    assert_eq!(stage_counts(&changed.stats), vec![RAN; 7], "{}", changed.stats.render_text());
    assert!(!changed.outcomes[0].fully_cached);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_budget_degraded_program_reruns_its_static_half_over_a_warm_disk_dir() {
    let dir = temp_dir("budget");
    let run = || {
        let cfg = EngineConfig {
            cache_dir: Some(dir.clone()),
            analysis: AnalysisConfig {
                limits: ExecLimits { max_insts: 50, ..ExecLimits::default() },
                ..Default::default()
            },
            ..Default::default()
        };
        Arc::new(Engine::new(cfg).expect("engine")).batch(pipe_input(), 1)
    };
    // The profile exceeds its budget: the static stages ran, detect and
    // rank never resolved.
    let expect = vec![RAN, RAN, RAN, RAN, RAN, UNRESOLVED, UNRESOLVED];
    for pass in ["cold", "warm"] {
        let batch = run();
        assert!(batch.outcomes[0].outcome.is_degraded(), "{pass}");
        assert_eq!(stage_counts(&batch.stats), expect, "{pass}:\n{}", batch.stats.render_text());
        assert!(!batch.outcomes[0].fully_cached);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`SimFs`] that counts cache-record traffic: every read of a `.rec`
/// path is a probe, a successful one a read, and every rename onto one a
/// record write (records land through a temp file and a rename).
#[derive(Debug)]
struct RecordCounter {
    fs: SimFs,
    probes: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

fn is_record(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rec")
}

impl RecordCounter {
    /// `(probes, reads, writes)` so far.
    fn counts(&self) -> (u64, u64, u64) {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (get(&self.probes), get(&self.reads), get(&self.writes))
    }
}

impl Vfs for RecordCounter {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let out = self.fs.read(path);
        if is_record(path) {
            self.probes.fetch_add(1, Ordering::Relaxed);
            if out.is_ok() {
                self.reads.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        self.fs.read_prefix(path, max)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.fs.write(path, bytes)
    }
    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.fs.create_sync(path, bytes)
    }
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.fs.append_sync(path, bytes)
    }
    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.fs.truncate_sync(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let out = self.fs.rename(from, to);
        if out.is_ok() && is_record(to) {
            self.writes.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.fs.remove_file(path)
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.fs.create_new(path, bytes)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.fs.create_dir_all(path)
    }
    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        self.fs.file_age(path)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.fs.list_dir(dir)
    }
}

#[test]
fn the_disk_tier_keeps_the_parse_lower_and_report_records_alone() {
    let vfs = Arc::new(RecordCounter {
        fs: SimFs::new(),
        probes: AtomicU64::new(0),
        reads: AtomicU64::new(0),
        writes: AtomicU64::new(0),
    });
    let engine = || {
        let cfg = EngineConfig {
            cache_dir: Some(PathBuf::from("/cache")),
            vfs: vfs.clone(),
            ..Default::default()
        };
        Arc::new(Engine::new(cfg).expect("engine"))
    };
    let n = 17;

    // Cold: one probe of the parse, lower and rank keys each, all
    // missing, and one record written for each.
    let cold = engine().batch(suite_inputs(), 1);
    assert_eq!(cold.stats.cache.misses, n * 7);
    assert_eq!(vfs.counts(), (3 * n, 0, 3 * n), "(probes, reads, writes) of the cold batch");

    // Warm, in a fresh engine: the three records answer every stage.
    let before = vfs.counts();
    let warm = engine().batch(suite_inputs(), 1);
    assert_eq!(warm.stats.cache.hits, n * 7, "{}", warm.stats.render_text());
    assert!(warm.outcomes.iter().all(|o| o.fully_cached));
    let after = vfs.counts();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (3 * n, 3 * n, 0),
        "(probes, reads, writes) of the warm batch"
    );
}
