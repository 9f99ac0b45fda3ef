//! The batch-analysis engine: stage-graph execution with derived cache
//! keys, deterministic parallel fan-out, and fault isolation.
//!
//! # Derived keys
//!
//! Two digests are taken from content: the parse stage's, over the token
//! stream (kinds plus line numbers — exactly what the parser sees, since
//! AST nodes record lines), and the lower stage's, chained from the
//! per-function digests of the lowered IR. Every later stage is a
//! deterministic function of the IR and the configuration, so its key and
//! output digest derive from the IR digest without a lookup, and so does
//! the rank key that finds a cached report: a program whose report is
//! cached resolves in three probes, and only a report miss resolves the
//! static verdicts, CUs, profile and detectors. Token digests make the
//! chain insensitive to cosmetic edits such as extra spaces or comments
//! that do not shift lines. Full derivation is documented in DESIGN.md,
//! "Engine".
//!
//! # Hit accounting
//!
//! A stage resolution is a **hit** iff the stage function did not execute.
//! A disk record answers a parse or lower digest query (hit) but not an
//! artifact query; if a later miss forces the artifact to materialize,
//! the stage re-executes and the earlier hit is demoted to a miss. A stage
//! that a cached downstream artifact made unnecessary counts as a hit, so
//! counters always reflect work actually performed.
//!
//! # Fault isolation
//!
//! Every stage function runs inside `catch_unwind`, so a panicking
//! detector (or an injected [`FaultPlan`]) is confined to its own program:
//! the batch completes, the panic becomes a structured [`EngineError`],
//! and — when the failure is confined to the dynamic stages — the program
//! still yields a [`DegradedReport`] built from its static artifacts.
//! See DESIGN.md, "Robustness".
//!
//! # Supervision, retry, and resume
//!
//! Three further layers make a batch survive its environment (see
//! DESIGN.md, "Supervision & resume"):
//!
//! - **Watchdog**: each job attempt carries an [`ExecControl`] whose beat
//!   counter advances at every stage boundary and every few thousand
//!   interpreted instructions. A supervisor thread cancels (cooperatively)
//!   any job whose beats go stale; the scheduler requeues the job once
//!   (`stall_requeued`) before reporting it as [`ErrorKind::Stalled`].
//! - **Retry**: transient failures ([`ErrorKind::is_transient`]) are
//!   retried up to `retries` times with deterministic exponential backoff.
//! - **Journal**: with a cache directory configured, each finished program
//!   appends one fsynced record to `journal.wal`; `resume` replays the
//!   journal and skips completed programs byte-identically (`resumed`).

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parpat_core::{
    assemble_analysis, detect_patterns, profile_ir_controlled, rank_patterns, render_ranking,
    Analysis, AnalysisConfig, RankConfig,
};
use parpat_cu::{build_function_cus, merge_cu_sets, CuSet};
use parpat_ir::{ExecControl, FuncId, IrProgram};
use parpat_minilang::Program;
use parpat_runtime::{lock_recover, Supervised, ThreadPool, Watchdog, WatchdogConfig};
use parpat_static::{
    analyze_function_timed, merge_function_reports, merge_timings, LoopReport, PassTiming,
    StaticReport, PASS_NAMES,
};

use crate::cache::{Artifact, Cache, DiskRecord, Lookup};
use crate::digest::{hash_bytes, Fnv64};
use crate::error::{EngineError, ErrorKind};
use crate::fault::{FaultMode, FaultPlan};
use crate::funcdigest::function_digests;
use crate::journal::{Journal, JournalEntry, Replay, StoredOutcome};
use crate::report::{DegradedReport, ProgramReport};
use crate::stage::Stage;
use crate::stats::{CacheStats, EngineStats, SsaPassStats, StageCounters, StageStats};
use crate::vfs::{RealFs, Vfs};
use crate::xval::cross_validate;

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Detector configuration (part of downstream cache keys).
    pub analysis: AnalysisConfig,
    /// Reference worker count for pattern ranking (part of the rank key).
    pub rank_workers: f64,
    /// In-memory artifact capacity before LRU eviction.
    pub cache_capacity: usize,
    /// Directory for persistent records and stats; `None` disables the
    /// disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Armed fault injections (empty in production; the fault harness
    /// plants one per scenario).
    pub faults: Vec<FaultPlan>,
    /// Retries granted per program for transient failures
    /// ([`ErrorKind::is_transient`]); `0` disables retrying.
    pub retries: u32,
    /// First backoff delay, in milliseconds; attempt `k` waits
    /// `backoff_base_ms << (k - 1)` (deterministic exponential backoff).
    pub backoff_base_ms: u64,
    /// Watchdog supervision for batch jobs; `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Replay `journal.wal` before running: programs with a complete
    /// journal record are restored instead of re-analyzed. Requires a
    /// cache directory; a missing or mismatching journal starts fresh.
    pub resume: bool,
    /// Validate the dependence event stream with the trace sanitizer
    /// before detection; a rejected trace fails the program with
    /// [`ErrorKind::Miscompile`]. The IR verifier and the differential
    /// oracle are always on — this knob only gates the sanitizer, which
    /// re-walks the whole distilled profile.
    pub sanitize: bool,
    /// Storage backend for everything durable (journal, cache disk tier,
    /// stats persistence). Production uses the default [`RealFs`]; the
    /// crash-consistency harness plugs in a fault-injecting
    /// [`crate::vfs::SimFs`].
    pub vfs: Arc<dyn Vfs>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            analysis: AnalysisConfig::default(),
            rank_workers: RankConfig::default().workers,
            cache_capacity: 512,
            cache_dir: None,
            faults: Vec::new(),
            retries: 0,
            backoff_base_ms: 25,
            watchdog: None,
            resume: false,
            sanitize: false,
            vfs: Arc::new(RealFs),
        }
    }
}

/// Detail prefix that distinguishes a trace-sanitizer rejection from an
/// oracle-detected miscompile — both carry [`ErrorKind::Miscompile`], and
/// the batch counters split them on this prefix (which survives journal
/// round-trips, so resumed batches report identical numbers).
pub const SANITIZER_REJECT_PREFIX: &str = "trace sanitizer: ";

/// One program to analyze.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Display name (app name or file path).
    pub name: String,
    /// MiniLang source text.
    pub source: String,
}

/// How one program's analysis ended.
#[derive(Debug, Clone)]
pub enum AnalysisOutcome {
    /// Every stage completed; the full report.
    Ok(Arc<ProgramReport>),
    /// A dynamic stage failed or exceeded its budget, but the static
    /// artifacts survived: the static half of the analysis.
    Degraded(Arc<DegradedReport>),
    /// A static stage failed, or the static artifacts were unrecoverable.
    Err(EngineError),
}

impl AnalysisOutcome {
    /// The full report, when the analysis completed.
    pub fn report(&self) -> Option<&ProgramReport> {
        match self {
            AnalysisOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The degraded report, when only the dynamic stages failed.
    pub fn degraded(&self) -> Option<&DegradedReport> {
        match self {
            AnalysisOutcome::Degraded(d) => Some(d),
            _ => None,
        }
    }

    /// The failure behind a degraded or error outcome.
    pub fn error(&self) -> Option<&EngineError> {
        match self {
            AnalysisOutcome::Ok(_) => None,
            AnalysisOutcome::Degraded(d) => Some(&d.reason),
            AnalysisOutcome::Err(e) => Some(e),
        }
    }

    /// `true` when every stage completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, AnalysisOutcome::Ok(_))
    }

    /// `true` for a degraded (static-only) outcome.
    pub fn is_degraded(&self) -> bool {
        matches!(self, AnalysisOutcome::Degraded(_))
    }

    /// `true` for a hard error.
    pub fn is_err(&self) -> bool {
        matches!(self, AnalysisOutcome::Err(_))
    }
}

/// Result of analyzing one program of a batch.
#[derive(Debug, Clone)]
pub struct ProgramOutcome {
    /// The input's display name.
    pub name: String,
    /// Full report, degraded report, or structured error.
    pub outcome: AnalysisOutcome,
    /// Wall time this program took inside the worker.
    pub wall: Duration,
    /// `true` when every stage resolved from the cache (nothing executed).
    pub fully_cached: bool,
    /// Number of distinct functions whose per-function stage fragments
    /// (static analysis, CU construction) actually executed — `0` when
    /// every fragment (or the whole stage) came from the cache.
    pub funcs_reanalyzed: u64,
}

/// A completed batch: outcomes in input order plus the stats snapshot.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per input, in input order regardless of `jobs`.
    pub outcomes: Vec<ProgramOutcome>,
    /// Per-stage and cache-wide observability for this batch.
    pub stats: EngineStats,
}

#[derive(Default)]
struct BatchCounters {
    stages: [StageCounters; 7],
    requests: AtomicU64,
    served_cached: AtomicU64,
    funcs_reanalyzed: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    panics: AtomicU64,
    budget_exceeded: AtomicU64,
    retries: AtomicU64,
    stall_requeued: AtomicU64,
    resumed: AtomicU64,
    /// Journal appends that failed (disk fault); the journal poisons
    /// itself after the first, so every later program counts here too.
    journal_append_failed: AtomicU64,
    /// Requests turned away by a resident service's admission control
    /// (never reached the engine; bumped via [`Session::note_shed`]).
    requests_shed: AtomicU64,
    /// Jobs cancelled because their request-scoped deadline expired.
    deadline_exceeded: AtomicU64,
    /// Requests that arrived marked as client-side retries
    /// ([`Session::note_client_retry`]).
    retries_client: AtomicU64,
    static_doall: AtomicU64,
    input_sensitive: AtomicU64,
    consistency_errors: AtomicU64,
    /// Per-pass SSA pipeline counters (runs / nanoseconds), indexed like
    /// [`PASS_NAMES`]. Only executed static fragments contribute — a
    /// cached fragment never re-runs the pipeline.
    ssa_pass_runs: [AtomicU64; PASS_NAMES.len()],
    ssa_pass_ns: [AtomicU64; PASS_NAMES.len()],
    verified: AtomicU64,
    sanitizer_rejects: AtomicU64,
    miscompiles: AtomicU64,
}

impl BatchCounters {
    /// Fold one program's *final* outcome into the batch counters. Called
    /// exactly once per program — intermediate attempts that get retried
    /// or requeued contribute stage counters (work actually performed) but
    /// not outcome classifications. Restored journal entries go through
    /// the same accounting, so a resumed batch reports the same headline
    /// numbers as an uninterrupted one.
    fn account(&self, outcome: &AnalysisOutcome) {
        if let Some(err) = outcome.error() {
            match err.kind {
                ErrorKind::Panic => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::Budget => {
                    self.budget_exceeded.fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::Deadline => {
                    self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                }
                ErrorKind::Miscompile => {
                    if err.detail.starts_with(SANITIZER_REJECT_PREFIX) {
                        self.sanitizer_rejects.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.miscompiles.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {}
            }
        }
        // The IR verifier runs at the lower stage; any outcome that got
        // past it — a full or degraded report, or a failure in a later
        // stage — means this program's IR passed structural verification.
        let past_lower = match outcome {
            AnalysisOutcome::Ok(_) | AnalysisOutcome::Degraded(_) => true,
            AnalysisOutcome::Err(e) => e.stage.index() > Stage::Lower.index(),
        };
        if past_lower {
            self.verified.fetch_add(1, Ordering::Relaxed);
        }
        match outcome {
            AnalysisOutcome::Ok(r) => {
                self.static_doall.fetch_add(r.static_doall as u64, Ordering::Relaxed);
                self.input_sensitive.fetch_add(r.input_sensitive.len() as u64, Ordering::Relaxed);
                self.consistency_errors
                    .fetch_add(r.consistency_errors.len() as u64, Ordering::Relaxed);
            }
            AnalysisOutcome::Degraded(d) => {
                self.degraded.fetch_add(1, Ordering::Relaxed);
                self.static_doall.fetch_add(d.doall_candidates.len() as u64, Ordering::Relaxed);
            }
            AnalysisOutcome::Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Accumulating counter scope for a resident analysis service.
///
/// A batch's counters live exactly as long as the batch; a daemon instead
/// opens one `Session` at startup ([`Engine::open_session`]), routes every
/// request through [`Engine::analyze_in_session`], and snapshots
/// service-lifetime totals with [`Engine::session_stats`] on demand. All
/// state is atomic — a session is shared freely across worker threads.
pub struct Session {
    counters: BatchCounters,
    programs: AtomicU64,
    start: Instant,
}

impl Session {
    /// Record a request turned away by the service's admission control
    /// before it ever reached the engine (load shedding). Shows up as
    /// `requests_shed` in the session stats.
    pub fn note_shed(&self) {
        self.counters.requests_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request that arrived marked as a client-side retry
    /// (the client's backoff loop re-sent it after an `overloaded` or
    /// transient failure). Shows up as `retries_client` in the session
    /// stats.
    pub fn note_client_retry(&self) {
        self.counters.retries_client.fetch_add(1, Ordering::Relaxed);
    }
}

/// Adapter exposing one job attempt's [`ExecControl`] to the watchdog.
struct JobWatch {
    ctl: Arc<ExecControl>,
}

impl Supervised for JobWatch {
    fn beats(&self) -> u64 {
        self.ctl.beats()
    }
    fn cancel(&self) {
        self.ctl.request_cancel()
    }
}

/// A custom sleep function (test hook for deterministic backoff clocks).
type Sleeper = Box<dyn Fn(Duration) + Send + Sync>;

/// The cached, parallel batch-analysis engine.
pub struct Engine {
    cfg: AnalysisConfig,
    rank_workers: f64,
    cache: Cache,
    /// Storage backend shared by the journal, the cache's disk tier, and
    /// stats persistence. [`RealFs`] in production, [`crate::SimFs`] under
    /// the crash-consistency harness.
    vfs: Arc<dyn Vfs>,
    faults: Vec<FaultPlan>,
    /// Times each (stage, input) fault plan has tripped — drives the
    /// `Transient` (fail `k` times) and `Stall` (fire once) modes.
    fault_trips: Mutex<HashMap<(Stage, usize), u32>>,
    retries: u32,
    backoff_base_ms: u64,
    resume: bool,
    sanitize: bool,
    watchdog: Option<Watchdog>,
    /// Injectable clock for backoff sleeps; `None` means real
    /// `thread::sleep`.
    sleeper: Mutex<Option<Sleeper>>,
    /// Reused across batches while the requested thread count matches.
    pool: Mutex<Option<Arc<ThreadPool>>>,
    /// Batches are serialized: `wait_idle` on the shared pool must only
    /// observe this batch's tasks.
    batch_lock: Mutex<()>,
}

impl Engine {
    /// Build an engine. Fails only when the cache directory cannot be
    /// created.
    pub fn new(cfg: EngineConfig) -> std::io::Result<Engine> {
        Ok(Engine {
            cfg: cfg.analysis,
            rank_workers: cfg.rank_workers,
            cache: Cache::new_via(cfg.vfs.clone(), cfg.cache_capacity, cfg.cache_dir)?,
            vfs: cfg.vfs,
            faults: cfg.faults,
            fault_trips: Mutex::new(HashMap::new()),
            retries: cfg.retries,
            backoff_base_ms: cfg.backoff_base_ms,
            resume: cfg.resume,
            sanitize: cfg.sanitize,
            watchdog: cfg.watchdog.map(Watchdog::spawn),
            sleeper: Mutex::new(None),
            pool: Mutex::new(None),
            batch_lock: Mutex::new(()),
        })
    }

    /// The shared artifact cache (exposed for tests and diagnostics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The storage backend the engine's durability layer writes through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Replace the backoff clock: `f` is called instead of
    /// `thread::sleep` for every retry backoff. Lets the fault harness
    /// record the exact deterministic delays without waiting them out.
    pub fn set_sleeper(&self, f: impl Fn(Duration) + Send + Sync + 'static) {
        *lock_recover(&self.sleeper) = Some(Box::new(f));
    }

    fn sleep_for(&self, d: Duration) {
        match &*lock_recover(&self.sleeper) {
            Some(f) => f(d),
            None => std::thread::sleep(d),
        }
    }

    /// Deterministic exponential backoff before retry attempt `attempt`
    /// (1-based): `backoff_base_ms << (attempt - 1)`, capped to avoid
    /// shift overflow.
    fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_millis(self.backoff_base_ms.saturating_mul(1 << (attempt - 1).min(20)))
    }

    /// Analyze one program through the cached stage graph (fault plans see
    /// it as batch index 0).
    pub fn analyze_one(&self, input: &BatchInput) -> ProgramOutcome {
        let counters = BatchCounters::default();
        self.run_one(input, 0, &counters, None)
    }

    /// Open an accumulating counter scope for a resident service: requests
    /// analyzed through [`Engine::analyze_in_session`] fold their stage and
    /// outcome counters into the session instead of a per-batch scope, so
    /// `parpat stats` sees service-lifetime totals.
    pub fn open_session(&self) -> Session {
        Session {
            counters: BatchCounters::default(),
            programs: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Analyze one program, accounting into `session` (fault plans see it
    /// as batch index 0). Safe to call from many threads concurrently.
    pub fn analyze_in_session(&self, session: &Session, input: &BatchInput) -> ProgramOutcome {
        session.programs.fetch_add(1, Ordering::Relaxed);
        self.run_one(input, 0, &session.counters, None)
    }

    /// Like [`Engine::analyze_in_session`], but with an absolute deadline:
    /// the attempt's [`ExecControl`] self-cancels once the clock passes
    /// `deadline`, and the resulting cancellation is classified as
    /// [`ErrorKind::Deadline`] (never requeued or retried — the time
    /// budget is request-scoped and spent). A dynamic-stage deadline still
    /// yields a degraded report when the static artifacts survived.
    pub fn analyze_in_session_before(
        &self,
        session: &Session,
        input: &BatchInput,
        deadline: Option<Instant>,
    ) -> ProgramOutcome {
        session.programs.fetch_add(1, Ordering::Relaxed);
        self.run_one(input, 0, &session.counters, deadline)
    }

    /// Snapshot the session's accumulated statistics. `jobs` is the
    /// service's worker count (informational, like a batch's job count).
    pub fn session_stats(&self, session: &Session, jobs: u64) -> EngineStats {
        self.snapshot(
            &session.counters,
            jobs,
            session.programs.load(Ordering::Relaxed),
            session.start.elapsed(),
        )
    }

    /// Analyze a batch on `jobs` worker threads. Results come back in
    /// input order regardless of scheduling; stats cover this batch only
    /// (evictions, live entries, and recovered records are
    /// engine-lifetime). When a cache directory is configured, the stats
    /// snapshot is persisted there for `parpat stats`.
    pub fn batch(self: &Arc<Self>, inputs: Vec<BatchInput>, jobs: usize) -> BatchReport {
        let _serial = lock_recover(&self.batch_lock);
        let jobs = jobs.max(1);
        let start = Instant::now();
        let counters = Arc::new(BatchCounters::default());
        let n = inputs.len();

        // Journal: fresh on a normal run, replayed on resume. Journal I/O
        // is best-effort — a read-only cache dir degrades to no journal
        // rather than failing the batch.
        let run_d = self.run_digest(&inputs);
        let (journal, replayed) = match self.cache.dir() {
            Some(dir) if self.resume => match Journal::resume_via(self.vfs.clone(), dir, run_d) {
                Ok((j, replay)) => (Some(Arc::new(j)), replay),
                Err(_) => (None, Replay::default()),
            },
            Some(dir) => (
                Journal::start_via(self.vfs.clone(), dir, run_d).ok().map(Arc::new),
                Replay::default(),
            ),
            None => (None, Replay::default()),
        };
        let mut restored: HashMap<usize, StoredOutcome> = HashMap::new();
        for e in replayed.entries {
            if e.index < n {
                restored.insert(e.index, e.outcome);
            }
        }
        let restored = Arc::new(restored);

        let outcomes: Vec<ProgramOutcome> = if jobs == 1 || n <= 1 {
            inputs
                .iter()
                .enumerate()
                .map(|(i, input)| self.run_or_restore(input, i, &counters, &restored, &journal))
                .collect()
        } else {
            let slots: Arc<Mutex<Vec<Option<ProgramOutcome>>>> =
                Arc::new(Mutex::new((0..n).map(|_| None).collect()));
            let pool = self.pool_for(jobs.min(n));
            for (i, input) in inputs.into_iter().enumerate() {
                let eng = Arc::clone(self);
                let counters = Arc::clone(&counters);
                let slots = Arc::clone(&slots);
                let restored = Arc::clone(&restored);
                let journal = journal.clone();
                pool.spawn(move || {
                    let outcome = eng.run_or_restore(&input, i, &counters, &restored, &journal);
                    lock_recover(&slots)[i] = Some(outcome);
                });
            }
            pool.wait_idle();
            let mut slots = lock_recover(&slots);
            slots.iter_mut().map(|s| s.take().expect("every slot filled")).collect()
        };

        let stats = self.snapshot(&counters, jobs as u64, n as u64, start.elapsed());
        if let Some(dir) = self.cache.dir() {
            // Best effort; a read-only cache dir must not fail the batch.
            let _ = stats.persist_via(self.vfs.as_ref(), dir);
        }
        BatchReport { outcomes, stats }
    }

    /// Restore one program from its journal record, or run it and append
    /// its record (fsynced) once finished.
    fn run_or_restore(
        &self,
        input: &BatchInput,
        index: usize,
        counters: &BatchCounters,
        restored: &HashMap<usize, StoredOutcome>,
        journal: &Option<Arc<Journal>>,
    ) -> ProgramOutcome {
        if let Some(stored) = restored.get(&index) {
            counters.resumed.fetch_add(1, Ordering::Relaxed);
            counters.requests.fetch_add(1, Ordering::Relaxed);
            let (outcome, fully_cached) = restore_outcome(stored);
            if fully_cached {
                counters.served_cached.fetch_add(1, Ordering::Relaxed);
            }
            counters.account(&outcome);
            return ProgramOutcome {
                name: input.name.clone(),
                outcome,
                wall: Duration::ZERO,
                fully_cached,
                funcs_reanalyzed: 0,
            };
        }
        let po = self.run_one(input, index, counters, None);
        if let Some(j) = journal {
            let entry = JournalEntry { index, worker: 0, fence: 0, outcome: store_outcome(&po) };
            if j.append(&entry).is_err() {
                counters.journal_append_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        po
    }

    /// Digest identifying this batch run: inputs (names + sources) plus
    /// every configuration knob that shapes the outputs. A journal is only
    /// replayed into a batch with the same digest.
    fn run_digest(&self, inputs: &[BatchInput]) -> u64 {
        let mut h = Fnv64::new();
        h.write(b"batch-run");
        h.write_u64(inputs.len() as u64);
        for i in inputs {
            h.write_u64(hash_bytes(i.name.as_bytes()));
            h.write_u64(hash_bytes(i.source.as_bytes()));
        }
        let l = self.cfg.limits;
        h.write_u64(l.max_insts);
        h.write_u64(l.max_call_depth as u64);
        h.write_u64(l.timeout_ms.unwrap_or(0));
        h.write_u64(l.max_mem_cells);
        h.write_f64(self.cfg.hotspot_threshold);
        h.write_u64(self.cfg.min_pipeline_pairs as u64);
        h.write_f64(self.cfg.fusion_eps);
        h.write_f64(self.rank_workers);
        h.write_u64(self.sanitize as u64);
        h.finish()
    }

    fn pool_for(&self, jobs: usize) -> Arc<ThreadPool> {
        let mut slot = lock_recover(&self.pool);
        match slot.as_ref() {
            Some(p) if p.threads() == jobs => Arc::clone(p),
            _ => {
                let p = Arc::new(ThreadPool::new(jobs));
                *slot = Some(Arc::clone(&p));
                p
            }
        }
    }

    /// The armed fault for `(stage, batch index)`, if any. Trip-counted:
    /// `Transient(k)` resolves to a cache-corrupt failure for its first
    /// `k` trips and then disarms; `Stall` fires only on its first trip
    /// (a transient hang — the requeued job completes); `Fail` and
    /// `Panic` fire on every trip (deterministic faults).
    fn fault_for(&self, s: Stage, index: usize) -> Option<FaultMode> {
        let mode = self.faults.iter().find(|p| p.stage == s && p.input == index)?.mode;
        match mode {
            FaultMode::Transient(k) => {
                let mut trips = lock_recover(&self.fault_trips);
                let n = trips.entry((s, index)).or_insert(0);
                *n += 1;
                (*n <= k).then_some(FaultMode::Fail(ErrorKind::CacheCorrupt))
            }
            FaultMode::Stall(_) => {
                let mut trips = lock_recover(&self.fault_trips);
                let n = trips.entry((s, index)).or_insert(0);
                *n += 1;
                (*n == 1).then_some(mode)
            }
            _ => Some(mode),
        }
    }

    /// Run one program to a *final* outcome: stalled attempts are requeued
    /// once, transient failures are retried with exponential backoff, and
    /// only the outcome that sticks is accounted and returned. A deadline,
    /// when given, is absolute and shared by every attempt — a requeue or
    /// retry never resets the request's time budget, and a
    /// [`ErrorKind::Deadline`] failure exits the loop immediately.
    fn run_one(
        &self,
        input: &BatchInput,
        index: usize,
        counters: &BatchCounters,
        deadline: Option<Instant>,
    ) -> ProgramOutcome {
        let start = Instant::now();
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let mut requeued = false;
        let mut attempts = 0u32;
        let (outcome, fully_cached, funcs_reanalyzed) = loop {
            let (outcome, fully_cached, funcs) = self.run_attempt(input, index, counters, deadline);
            match outcome.error().map(|e| e.kind) {
                Some(ErrorKind::Stalled) if !requeued => {
                    requeued = true;
                    counters.stall_requeued.fetch_add(1, Ordering::Relaxed);
                }
                Some(kind) if kind.is_transient() && attempts < self.retries => {
                    attempts += 1;
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.sleep_for(self.backoff(attempts));
                }
                _ => break (outcome, fully_cached, funcs),
            }
        };
        if fully_cached {
            counters.served_cached.fetch_add(1, Ordering::Relaxed);
        }
        counters.account(&outcome);
        ProgramOutcome {
            name: input.name.clone(),
            outcome,
            wall: start.elapsed(),
            fully_cached,
            funcs_reanalyzed,
        }
    }

    /// One attempt at a program: fresh [`ExecControl`], watchdog
    /// registration for the attempt's duration, and stage-counter flush.
    /// Outcome-level accounting is deferred to [`Engine::run_one`].
    fn run_attempt(
        &self,
        input: &BatchInput,
        index: usize,
        counters: &BatchCounters,
        deadline: Option<Instant>,
    ) -> (AnalysisOutcome, bool, u64) {
        let ctl = Arc::new(ExecControl::new());
        if let Some(d) = deadline {
            ctl.arm_deadline(d);
        }
        let _watch = self.watchdog.as_ref().map(|w| {
            w.register(Arc::new(JobWatch { ctl: Arc::clone(&ctl) }) as Arc<dyn Supervised>)
        });
        let mut run = ProgRun::new(self, &input.source, index, Arc::clone(&ctl));
        let outcome = match run.report() {
            Ok(r) => AnalysisOutcome::Ok(r),
            Err(mut err) => {
                // A cancellation observed past an expired deadline is the
                // deadline's doing, whether the beat loop self-cancelled or
                // the watchdog beat it to the flag. Reclassify before the
                // degraded check so a degraded report carries the Deadline
                // reason, and before `run_one`'s loop so it is never
                // requeued as a stall.
                if err.kind == ErrorKind::Stalled && ctl.deadline_expired() {
                    err.kind = ErrorKind::Deadline;
                    err.detail = format!("request deadline expired: {}", err.detail);
                }
                match run.degraded(&err) {
                    Some(d) => AnalysisOutcome::Degraded(Arc::new(d)),
                    None => AnalysisOutcome::Err(err),
                }
            }
        };
        let fully_cached = outcome.is_ok() && run.states.iter().all(|s| *s == St::Hit);
        let funcs = run.funcs_reanalyzed.len() as u64;
        run.flush(counters);
        (outcome, fully_cached, funcs)
    }

    fn snapshot(
        &self,
        counters: &BatchCounters,
        jobs: u64,
        programs: u64,
        wall: Duration,
    ) -> EngineStats {
        let stages: [StageStats; 7] = std::array::from_fn(|i| counters.stages[i].snapshot());
        let (hits, misses) = stages.iter().fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
        EngineStats {
            stages,
            programs,
            requests: counters.requests.load(Ordering::Relaxed),
            served_from_cache: counters.served_cached.load(Ordering::Relaxed),
            funcs_reanalyzed: counters.funcs_reanalyzed.load(Ordering::Relaxed),
            errors: counters.errors.load(Ordering::Relaxed),
            degraded: counters.degraded.load(Ordering::Relaxed),
            panics: counters.panics.load(Ordering::Relaxed),
            budget_exceeded: counters.budget_exceeded.load(Ordering::Relaxed),
            retries: counters.retries.load(Ordering::Relaxed),
            stall_requeued: counters.stall_requeued.load(Ordering::Relaxed),
            resumed: counters.resumed.load(Ordering::Relaxed),
            journal_append_failed: counters.journal_append_failed.load(Ordering::Relaxed),
            requests_shed: counters.requests_shed.load(Ordering::Relaxed),
            deadline_exceeded: counters.deadline_exceeded.load(Ordering::Relaxed),
            retries_client: counters.retries_client.load(Ordering::Relaxed),
            static_proven_doall: counters.static_doall.load(Ordering::Relaxed),
            input_sensitive: counters.input_sensitive.load(Ordering::Relaxed),
            consistency_errors: counters.consistency_errors.load(Ordering::Relaxed),
            ssa_passes: PASS_NAMES
                .iter()
                .enumerate()
                .map(|(i, name)| SsaPassStats {
                    name,
                    runs: counters.ssa_pass_runs[i].load(Ordering::Relaxed),
                    wall: Duration::from_nanos(counters.ssa_pass_ns[i].load(Ordering::Relaxed)),
                })
                .collect(),
            verified: counters.verified.load(Ordering::Relaxed),
            sanitizer_rejects: counters.sanitizer_rejects.load(Ordering::Relaxed),
            miscompiles: counters.miscompiles.load(Ordering::Relaxed),
            jobs,
            wall,
            cache: CacheStats {
                hits,
                misses,
                evictions: self.cache.evictions(),
                mem_entries: self.cache.mem_entries() as u64,
                recovered: self.cache.recovered(),
                quarantine_evicted: self.cache.quarantine_evicted(),
                disabled_writes: self.cache.disabled_writes(),
            },
        }
    }
}

/// Freeze a finished program outcome into its journal form.
fn store_outcome(po: &ProgramOutcome) -> StoredOutcome {
    match &po.outcome {
        AnalysisOutcome::Ok(r) => {
            StoredOutcome::Ok { report: (**r).clone(), fully_cached: po.fully_cached }
        }
        AnalysisOutcome::Degraded(d) => StoredOutcome::Degraded((**d).clone()),
        AnalysisOutcome::Err(e) => StoredOutcome::Err(e.clone()),
    }
}

/// Thaw a journal record back into a live outcome (+ `fully_cached`).
fn restore_outcome(stored: &StoredOutcome) -> (AnalysisOutcome, bool) {
    match stored {
        StoredOutcome::Ok { report, fully_cached } => {
            (AnalysisOutcome::Ok(Arc::new(report.clone())), *fully_cached)
        }
        StoredOutcome::Degraded(d) => (AnalysisOutcome::Degraded(Arc::new(d.clone())), false),
        StoredOutcome::Err(e) => (AnalysisOutcome::Err(e.clone()), false),
    }
}

/// Per-stage resolution state of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Unresolved,
    Hit,
    Miss,
}

/// A stage's cache key and the output digest stored with its artifact.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    digest: u64,
}

/// The cache slots of the five stages after lowering. Each is a pure
/// function of the IR digest and the configuration (DESIGN.md, "Engine"),
/// so deriving them takes no lookup.
#[derive(Debug, Clone, Copy)]
struct Slots {
    statics: Slot,
    cus: Slot,
    profile: Slot,
    detect: Slot,
    rank: Slot,
}

impl Slots {
    fn derive(ir_d: u64, cfg: &AnalysisConfig, rank_workers: f64) -> Slots {
        let l = cfg.limits;
        let statics = Slot { key: key("static", &[ir_d]), digest: key("static.out", &[ir_d]) };
        let cus = Slot { key: key("cu", &[ir_d]), digest: key("cu.out", &[ir_d]) };
        let profile = key(
            "profile",
            &[
                ir_d,
                l.max_insts,
                l.max_call_depth as u64,
                l.timeout_ms.unwrap_or(0),
                l.max_mem_cells,
            ],
        );
        let profile = Slot { key: profile, digest: key("profile.out", &[profile]) };
        let detect = key(
            "detect",
            &[
                ir_d,
                cus.digest,
                profile.digest,
                cfg.hotspot_threshold.to_bits(),
                cfg.min_pipeline_pairs as u64,
                cfg.fusion_eps.to_bits(),
            ],
        );
        let detect = Slot { key: detect, digest: key("detect.out", &[detect]) };
        // Rank consumes the static verdicts for cross-validation, so their
        // digest is part of its key.
        let rank = key("rank", &[detect.digest, statics.digest, rank_workers.to_bits()]);
        let rank = Slot { key: rank, digest: key("report", &[rank]) };
        Slots { statics, cus, profile, detect, rank }
    }
}

/// One program's walk through the stage graph. Parse and lower resolve
/// their digests from either tier; the later slots derive from the IR
/// digest, and the report is probed before any later stage resolves.
/// Artifacts needed more than once are memoized.
struct ProgRun<'e> {
    eng: &'e Engine,
    src: &'e str,
    /// This program's index within the batch (fault plans key on it).
    index: usize,
    /// This attempt's heartbeat + cancellation flag: beats advance at
    /// every stage boundary and inside the interpreter's poll loop; the
    /// watchdog flips the cancel flag when beats go stale.
    ctl: Arc<ExecControl>,
    states: [St; 7],
    wall: [Duration; 7],
    insts_executed: u64,
    /// Functions whose per-function stage fragments (static, CU) actually
    /// executed during this attempt.
    funcs_reanalyzed: HashSet<FuncId>,
    /// Per-pass timings of the SSA pipeline runs behind executed static
    /// fragments, merged across functions (empty when every fragment hit).
    pass_timings: Vec<PassTiming>,

    ast_d: Option<u64>,
    ir_d: Option<u64>,
    /// Per-function digests of the lowered IR, in function order
    /// ([`function_digests`]); `ir_d` is the chain of these.
    func_ds: Option<Arc<Vec<u64>>>,

    ast: Option<Arc<Program>>,
    ir: Option<Arc<IrProgram>>,
    statics: Option<Arc<StaticReport>>,
    cus: Option<Arc<CuSet>>,
}

fn key(tag: &str, inputs: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write(tag.as_bytes());
    for &d in inputs {
        h.write_u64(d);
    }
    h.finish()
}

impl<'e> ProgRun<'e> {
    fn new(eng: &'e Engine, src: &'e str, index: usize, ctl: Arc<ExecControl>) -> Self {
        ProgRun {
            eng,
            src,
            index,
            ctl,
            states: [St::Unresolved; 7],
            wall: [Duration::ZERO; 7],
            insts_executed: 0,
            funcs_reanalyzed: HashSet::new(),
            pass_timings: Vec::new(),
            ast_d: None,
            ir_d: None,
            func_ds: None,
            ast: None,
            ir: None,
            statics: None,
            cus: None,
        }
    }

    fn flush(&self, counters: &BatchCounters) {
        for s in Stage::ALL {
            let c = &counters.stages[s.index()];
            match self.states[s.index()] {
                St::Unresolved => {}
                St::Hit => {
                    c.hits.fetch_add(1, Ordering::Relaxed);
                }
                St::Miss => {
                    c.misses.fetch_add(1, Ordering::Relaxed);
                    c.executed.fetch_add(1, Ordering::Relaxed);
                    c.add_wall(self.wall[s.index()]);
                }
            }
        }
        counters.stages[Stage::Profile.index()]
            .insts
            .fetch_add(self.insts_executed, Ordering::Relaxed);
        counters.funcs_reanalyzed.fetch_add(self.funcs_reanalyzed.len() as u64, Ordering::Relaxed);
        for t in &self.pass_timings {
            if let Some(i) = PASS_NAMES.iter().position(|n| *n == t.name) {
                counters.ssa_pass_runs[i].fetch_add(t.runs, Ordering::Relaxed);
                counters.ssa_pass_ns[i].fetch_add(t.nanos as u64, Ordering::Relaxed);
            }
        }
    }

    /// Mark `s` a hit, together with every stage its artifact stands in
    /// for that this run has not resolved: a cached report answers for all
    /// the stages before it, a cached analysis for the CUs and the
    /// profile. Such a stage did not execute, so it counts as a hit.
    fn hit(&mut self, s: Stage) {
        let covered: &[Stage] = match s {
            Stage::Rank => &Stage::ALL,
            Stage::Detect => &[Stage::CuBuild, Stage::Profile],
            _ => &[],
        };
        for c in covered {
            if self.states[c.index()] == St::Unresolved {
                self.states[c.index()] = St::Hit;
            }
        }
        self.states[s.index()] = St::Hit;
    }

    /// Execute stage `s`'s function under the wall-time clock and mark it
    /// a miss (possibly demoting an earlier hit). The function runs inside
    /// `catch_unwind`: a panic is confined to this program and surfaces as
    /// a structured [`ErrorKind::Panic`] error.
    /// Armed fault plans trip here — `Fail` (and `Transient`, which
    /// resolves to it) short-circuits before the stage function, `Stall`
    /// sleeps cooperatively (cancellable by the watchdog) before it, and
    /// `Panic` fires inside the unwind boundary.
    fn execute<T>(&mut self, s: Stage, f: impl FnOnce(&mut Self) -> T) -> Result<T, EngineError> {
        // Stage boundary = liveness. A job that keeps reaching new stages
        // (or keeps interpreting — the interpreter beats on its own) is
        // never declared stale.
        self.ctl.beat();
        let fault = self.eng.fault_for(s, self.index);
        if let Some(FaultMode::Fail(kind)) = fault {
            self.states[s.index()] = St::Miss;
            return Err(EngineError::new(s, kind, format!("injected failure at the {s} stage")));
        }
        let t = Instant::now();
        if let Some(FaultMode::Stall(ms)) = fault {
            // Sleep in short slices, polling the cancel flag, so the
            // watchdog can interrupt the stall: no beats advance while
            // stalled, the supervisor flips the flag, and the stall
            // surfaces as a structured `Stalled` error the scheduler can
            // requeue on. The stall is a slow stage, so its time counts
            // toward the stage wall either way.
            let mut slept = 0u64;
            while slept < ms {
                if self.ctl.cancel_requested() {
                    self.wall[s.index()] += t.elapsed();
                    self.states[s.index()] = St::Miss;
                    return Err(EngineError::new(
                        s,
                        ErrorKind::Stalled,
                        format!("injected stall at the {s} stage cancelled by the watchdog"),
                    ));
                }
                let slice = (ms - slept).min(5);
                std::thread::sleep(Duration::from_millis(slice));
                slept += slice;
            }
        }
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(FaultMode::Panic) = fault {
                panic!("injected panic at the {s} stage");
            }
            f(self)
        }));
        self.wall[s.index()] += t.elapsed();
        self.states[s.index()] = St::Miss;
        out.map_err(|payload| EngineError::from_panic(s, payload.as_ref()))
    }

    /// Run a check of stage `s`'s output under that stage's wall-time
    /// clock: the check's errors name `s`, so its time is `s`'s too.
    fn charged<T>(&mut self, s: Stage, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.wall[s.index()] += t.elapsed();
        out
    }

    /// Build the degraded (static-only) report after a dynamic-stage
    /// failure. `None` when the failure hit a static stage, or the static
    /// artifacts cannot be (re)obtained either.
    fn degraded(&mut self, reason: &EngineError) -> Option<DegradedReport> {
        if !reason.stage.is_dynamic() {
            return None;
        }
        if reason.kind == ErrorKind::Miscompile {
            // The verification subsystem caught the pipeline lying about
            // this program — the static artifacts came from the same
            // lowering and are equally untrustworthy. No degraded report.
            return None;
        }
        let ir = self.ir().ok()?;
        let cus = self.cus().ok()?;
        let statics = self.statics().ok()?;
        Some(DegradedReport::build(reason.clone(), &ir, &cus, &statics))
    }

    // ---- parse ----------------------------------------------------------

    fn key_parse(&self) -> u64 {
        key("parse", &[hash_bytes(self.src.as_bytes())])
    }

    fn run_parse(&mut self) -> Result<(), EngineError> {
        let ast = self
            .execute(Stage::Parse, |r| parpat_minilang::parse_checked(r.src))?
            .map_err(|e| EngineError::lang(Stage::Parse, e.to_string()))?;
        // The AST is a deterministic function of the token stream (kinds +
        // lines; columns are not recorded in the AST), so digesting tokens
        // gives early cutoff for whitespace/comment edits while staying
        // sensitive to line shifts that change reported locations.
        let toks = parpat_minilang::lexer::lex(self.src)
            .map_err(|e| EngineError::lang(Stage::Parse, e.to_string()))?;
        let d = token_digest(&toks);
        let ast = Arc::new(ast);
        self.eng.cache.insert(self.key_parse(), d, Artifact::Ast(Arc::clone(&ast)));
        self.ast = Some(ast);
        self.ast_d = Some(d);
        Ok(())
    }

    fn ast_digest(&mut self) -> Result<u64, EngineError> {
        if let Some(d) = self.ast_d {
            return Ok(d);
        }
        match self.eng.cache.lookup(self.key_parse()) {
            Lookup::Memory(Artifact::Ast(a), d) => {
                self.hit(Stage::Parse);
                self.ast = Some(a);
                self.ast_d = Some(d);
            }
            Lookup::Disk(rec) => {
                self.hit(Stage::Parse);
                self.ast_d = Some(rec.digest);
            }
            _ => self.run_parse()?,
        }
        Ok(self.ast_d.expect("set above"))
    }

    fn ast(&mut self) -> Result<Arc<Program>, EngineError> {
        self.ast_digest()?;
        if self.ast.is_none() {
            // Disk record answered the digest, but the artifact is needed
            // after all: recompute and demote the hit.
            self.run_parse()?;
        }
        Ok(Arc::clone(self.ast.as_ref().expect("set above")))
    }

    // ---- lower ----------------------------------------------------------

    fn run_lower(&mut self) -> Result<(), EngineError> {
        let ast = self.ast()?;
        let k = key("lower", &[self.ast_d.expect("ast resolved")]);
        // Peek at the plan list directly: `fault_for` trip-counts, and this
        // probe must not consume trips of a Transient/Stall plan armed at
        // the lower stage.
        let miscompile_armed = self.eng.faults.iter().any(|p| {
            p.stage == Stage::Lower && p.input == self.index && p.mode == FaultMode::Miscompile
        });
        let ir = Arc::new(self.execute(Stage::Lower, |_| {
            let mut ir = parpat_ir::lower(&ast);
            if miscompile_armed {
                // Seeded miscompile: structurally valid, semantically
                // wrong. The verifier below must NOT catch it — the
                // differential oracle does, at the profile stage.
                parpat_ir::corrupt(&mut ir, parpat_ir::Corruption::SwapAddSub);
            }
            ir
        })?);
        // The IR verifier runs on every lowering, cached or injected: a
        // structurally broken IR never reaches the detectors, it becomes a
        // structured miscompile error instead of a downstream panic.
        let violations = self.charged(Stage::Lower, |_| parpat_ir::verify_against(&ir, &ast));
        if !violations.is_empty() {
            let shown: Vec<String> = violations.iter().take(3).map(|v| v.to_string()).collect();
            return Err(EngineError::new(
                Stage::Lower,
                ErrorKind::Miscompile,
                format!(
                    "IR verifier found {} violation(s): {}",
                    violations.len(),
                    shown.join("; ")
                ),
            ));
        }
        // The IR digest is the chain of the *per-function* content digests
        // rather than a function of the AST digest: two sources lowering to
        // the same functions share every downstream stage, and an edited
        // source invalidates exactly the fragments whose functions changed.
        let fds = Arc::new(function_digests(&ir));
        let d = key("ir", &fds);
        self.eng.cache.insert(k, d, Artifact::Ir(Arc::clone(&ir)));
        self.ir = Some(ir);
        self.ir_d = Some(d);
        self.func_ds = Some(fds);
        Ok(())
    }

    fn ir_digest(&mut self) -> Result<u64, EngineError> {
        if let Some(d) = self.ir_d {
            return Ok(d);
        }
        let ast_d = self.ast_digest()?;
        match self.eng.cache.lookup(key("lower", &[ast_d])) {
            Lookup::Memory(Artifact::Ir(ir), d) => {
                self.hit(Stage::Lower);
                self.ir = Some(ir);
                self.ir_d = Some(d);
            }
            Lookup::Disk(rec) => {
                self.hit(Stage::Lower);
                self.ir_d = Some(rec.digest);
            }
            _ => self.run_lower()?,
        }
        Ok(self.ir_d.expect("set above"))
    }

    fn ir(&mut self) -> Result<Arc<IrProgram>, EngineError> {
        self.ir_digest()?;
        if self.ir.is_none() {
            self.run_lower()?;
        }
        Ok(Arc::clone(self.ir.as_ref().expect("set above")))
    }

    /// The per-function IR digests, computing them from the materialized IR
    /// when lowering itself was a cache hit. Deterministic, so recomputed
    /// digests match the ones `run_lower` chained into `ir_d`.
    fn func_digests(&mut self) -> Result<Arc<Vec<u64>>, EngineError> {
        if self.func_ds.is_none() {
            let ir = self.ir()?;
            self.func_ds = Some(Arc::new(function_digests(&ir)));
        }
        Ok(Arc::clone(self.func_ds.as_ref().expect("set above")))
    }

    /// The slots of every stage after lowering (see [`Slots`]).
    fn slots(&mut self) -> Result<Slots, EngineError> {
        let ir_d = self.ir_digest()?;
        Ok(Slots::derive(ir_d, &self.eng.cfg, self.eng.rank_workers))
    }

    // ---- static ---------------------------------------------------------

    fn run_static(&mut self, slot: Slot) -> Result<Arc<StaticReport>, EngineError> {
        let ir = self.ir()?;
        let fds = self.func_digests()?;
        // The stage executes as a merge of per-function fragments, each
        // cached (memory tier) under its function digest: a re-submitted
        // source re-analyzes only the functions whose digests changed.
        // Fragment hits do not touch the stage hit/miss accounting — the
        // stage itself still missed (the merge ran); `funcs_reanalyzed`
        // reports the fragment-level work.
        let statics = Arc::new(self.execute(Stage::Static, |r| {
            let mut parts: Vec<Arc<Vec<LoopReport>>> = Vec::with_capacity(ir.functions.len());
            for (f, &fd) in ir.functions.iter().zip(fds.iter()) {
                let fk = key("static.func", &[fd]);
                let frag = match r.eng.cache.get(fk) {
                    Some((Artifact::StaticFunc(p), _)) => p,
                    _ => {
                        r.funcs_reanalyzed.insert(f.id);
                        let (frag, timings) = analyze_function_timed(&ir, f.id);
                        merge_timings(&mut r.pass_timings, timings);
                        let p = Arc::new(frag);
                        r.eng.cache.insert_memory(
                            fk,
                            key("static.func.out", &[fd]),
                            Artifact::StaticFunc(Arc::clone(&p)),
                        );
                        p
                    }
                };
                parts.push(frag);
            }
            merge_function_reports(parts.iter().map(|p| p.as_slice()))
        })?);
        self.eng.cache.insert_memory(slot.key, slot.digest, Artifact::Static(Arc::clone(&statics)));
        Ok(statics)
    }

    fn statics(&mut self) -> Result<Arc<StaticReport>, EngineError> {
        if self.statics.is_none() {
            let slot = self.slots()?.statics;
            let statics = match self.eng.cache.get(slot.key) {
                Some((Artifact::Static(s), _)) => {
                    self.hit(Stage::Static);
                    s
                }
                _ => self.run_static(slot)?,
            };
            self.statics = Some(statics);
        }
        Ok(Arc::clone(self.statics.as_ref().expect("set above")))
    }

    // ---- cu build -------------------------------------------------------

    fn run_cus(&mut self, slot: Slot) -> Result<Arc<CuSet>, EngineError> {
        let ir = self.ir()?;
        let fds = self.func_digests()?;
        // Same fragment discipline as the static stage: per-function CU
        // sets (fragment-local ids) cached under the function digest, then
        // merged in function order — which reproduces `build_cus` exactly.
        let cus = Arc::new(self.execute(Stage::CuBuild, |r| {
            let mut frags: Vec<Arc<CuSet>> = Vec::with_capacity(ir.functions.len());
            for (f, &fd) in ir.functions.iter().zip(fds.iter()) {
                let fk = key("cu.func", &[fd]);
                let frag = match r.eng.cache.get(fk) {
                    Some((Artifact::CuFunc(c), _)) => c,
                    _ => {
                        r.funcs_reanalyzed.insert(f.id);
                        let c = Arc::new(build_function_cus(&ir, f.id));
                        r.eng.cache.insert_memory(
                            fk,
                            key("cu.func.out", &[fd]),
                            Artifact::CuFunc(Arc::clone(&c)),
                        );
                        c
                    }
                };
                frags.push(frag);
            }
            merge_cu_sets(frags.iter().map(|c| c.as_ref()))
        })?);
        self.eng.cache.insert_memory(slot.key, slot.digest, Artifact::Cus(Arc::clone(&cus)));
        Ok(cus)
    }

    fn cus(&mut self) -> Result<Arc<CuSet>, EngineError> {
        if self.cus.is_none() {
            let slot = self.slots()?.cus;
            let cus = match self.eng.cache.get(slot.key) {
                Some((Artifact::Cus(c), _)) => {
                    self.hit(Stage::CuBuild);
                    c
                }
                _ => self.run_cus(slot)?,
            };
            self.cus = Some(cus);
        }
        Ok(Arc::clone(self.cus.as_ref().expect("set above")))
    }

    // ---- profile --------------------------------------------------------

    fn run_profile(&mut self, slot: Slot) -> Result<Arc<parpat_core::ProfiledRun>, EngineError> {
        let ir = self.ir()?;
        let ast = self.ast()?;
        let run = self
            .execute(Stage::Profile, |r| {
                profile_ir_controlled(&ir, r.eng.cfg.limits, Some(r.ctl.as_ref()))
            })?
            .map_err(|e| EngineError::from_analyze(Stage::Profile, &e))?;
        self.insts_executed += run.insts;
        self.charged(Stage::Profile, |r| {
            r.oracle_check(&ast, &run)?;
            if r.eng.sanitize {
                let rejects = parpat_profile::sanitize_profile(&ir, &run.profile);
                if !rejects.is_empty() {
                    let shown: Vec<&str> = rejects.iter().take(3).map(String::as_str).collect();
                    return Err(EngineError::new(
                        Stage::Profile,
                        ErrorKind::Miscompile,
                        format!(
                            "{SANITIZER_REJECT_PREFIX}{} violation(s) in the dependence stream: {}",
                            rejects.len(),
                            shown.join("; ")
                        ),
                    ));
                }
            }
            Ok(())
        })?;
        let run = Arc::new(run);
        self.eng.cache.insert_memory(slot.key, slot.digest, Artifact::Profile(Arc::clone(&run)));
        Ok(run)
    }

    /// Differential oracle: replay the program through the independent
    /// AST-walking reference evaluator and compare the final return value
    /// and global-array state against the instrumented interpreter's. A
    /// divergence is a miscompile somewhere in lowering or interpretation.
    /// An oracle *budget* exhaustion is inconclusive and skips the check
    /// (the reference evaluator counts steps differently, so its budget
    /// can run out on programs the interpreter finishes).
    fn oracle_check(
        &self,
        ast: &Program,
        run: &parpat_core::ProfiledRun,
    ) -> Result<(), EngineError> {
        let limits = self.eng.cfg.limits;
        let eval_limits = parpat_minilang::EvalLimits {
            // The oracle counts AST nodes, the interpreter IR instructions;
            // a generous multiple keeps valid programs from tripping the
            // oracle budget before the interpreter's own ceiling would.
            max_steps: limits.max_insts.saturating_mul(4),
            max_call_depth: limits.max_call_depth,
        };
        match parpat_minilang::evaluate_with_limits(ast, eval_limits) {
            Ok(oracle) => {
                if let Some(report) =
                    parpat_minilang::divergence(ast, &oracle, run.return_value, &run.globals)
                {
                    return Err(EngineError::new(
                        Stage::Profile,
                        ErrorKind::Miscompile,
                        format!("differential oracle: {report}"),
                    ));
                }
                Ok(())
            }
            Err(e) if e.is_budget() => Ok(()),
            Err(e) => Err(EngineError::new(
                Stage::Profile,
                ErrorKind::Miscompile,
                format!(
                    "differential oracle: reference evaluation faulted ({e}) where the \
                     interpreter succeeded"
                ),
            )),
        }
    }

    fn prof(&mut self) -> Result<Arc<parpat_core::ProfiledRun>, EngineError> {
        let slot = self.slots()?.profile;
        match self.eng.cache.get(slot.key) {
            Some((Artifact::Profile(p), _)) => {
                self.hit(Stage::Profile);
                Ok(p)
            }
            _ => self.run_profile(slot),
        }
    }

    // ---- detect ---------------------------------------------------------

    fn run_detect(&mut self, slot: Slot) -> Result<Arc<Analysis>, EngineError> {
        let ir = self.ir()?;
        let cus = self.cus()?;
        let prof = self.prof()?;
        let cfg = self.eng.cfg;
        let analysis = Arc::new(self.execute(Stage::Detect, |_| {
            let detections = detect_patterns(&ir, &prof.profile, &prof.pet, &cus, &cfg);
            assemble_analysis(
                Arc::clone(&ir),
                Arc::clone(&prof.profile),
                Arc::clone(&prof.pet),
                Arc::clone(&cus),
                detections,
            )
        })?);
        self.eng.cache.insert_memory(
            slot.key,
            slot.digest,
            Artifact::Analysis(Arc::clone(&analysis)),
        );
        Ok(analysis)
    }

    fn analysis(&mut self) -> Result<Arc<Analysis>, EngineError> {
        let slot = self.slots()?.detect;
        match self.eng.cache.get(slot.key) {
            Some((Artifact::Analysis(a), _)) => {
                self.hit(Stage::Detect);
                Ok(a)
            }
            _ => self.run_detect(slot),
        }
    }

    // ---- rank -----------------------------------------------------------

    fn report(&mut self) -> Result<Arc<ProgramReport>, EngineError> {
        // The rank key follows from the IR digest, so a cached report
        // answers before any later stage resolves.
        let rank = self.slots()?.rank;
        match self.eng.cache.lookup(rank.key) {
            Lookup::Memory(Artifact::Report(r), _) => {
                self.hit(Stage::Rank);
                return Ok(r);
            }
            Lookup::Disk(DiskRecord { digest, report: Some(report) }) => {
                // Promote the persisted report into the memory tier.
                self.hit(Stage::Rank);
                let report = Arc::new(report);
                self.eng.cache.insert_memory(
                    rank.key,
                    digest,
                    Artifact::Report(Arc::clone(&report)),
                );
                return Ok(report);
            }
            _ => {}
        }
        // Resolve the static verdicts before any dynamic stage: a fault in
        // the static stage must fail the program before profiling starts,
        // and a later dynamic failure finds the verdicts already resolved
        // for the degraded report.
        let statics = self.statics()?;
        let analysis = self.analysis()?;
        let workers = self.eng.rank_workers;
        let report = self.execute(Stage::Rank, |_| {
            let ranked = rank_patterns(&analysis, &RankConfig { workers });
            let xv = cross_validate(&statics, &analysis.loop_classes);
            ProgramReport {
                summary: analysis.summary(),
                ranking: if ranked.is_empty() { String::new() } else { render_ranking(&ranked) },
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
        })?;
        let report = Arc::new(report);
        self.eng.cache.insert(rank.key, rank.digest, Artifact::Report(Arc::clone(&report)));
        Ok(report)
    }
}

/// The parse stage's output digest: `"ast"`, then `"{kind:?}@{line};"` for
/// each token, formatted straight into the hasher.
fn token_digest(toks: &[parpat_minilang::token::Token]) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv64::new();
    h.write(b"ast");
    for t in toks {
        write!(h, "{:?}@{};", t.kind, t.line).expect("hashing cannot fail");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// The token digest keys every cache entry and names every cache dir's
    /// records: it must stay the digest of the formatted strings.
    #[test]
    fn token_digest_matches_the_formatted_tokens() {
        let src = "global a[8];\nfn main() {\n    let s = 0.5;\n    for i in 0..8 { s += a[i] * 2; }\n    return s;\n}";
        let toks = parpat_minilang::lexer::lex(src).unwrap();
        let mut h = Fnv64::new();
        h.write(b"ast");
        for t in &toks {
            h.write(format!("{:?}@{};", t.kind, t.line).as_bytes());
        }
        assert_eq!(token_digest(&toks), h.finish());
        // Pinned as well: a change here invalidates every cache dir.
        assert_eq!(token_digest(&toks), 0x5cb6_c82a_ce67_7892);
    }

    /// The miscompile accounting split: a plain miscompile error counts in
    /// `miscompiles`, while one whose detail carries the sanitizer prefix
    /// counts in `sanitizer_rejects` — and neither counts as `verified`
    /// unless it got past the lower stage.
    #[test]
    fn account_splits_sanitizer_rejects_from_miscompiles() {
        let counters = BatchCounters::default();
        let oracle = AnalysisOutcome::Err(EngineError::new(
            Stage::Profile,
            ErrorKind::Miscompile,
            "differential oracle: return value diverges",
        ));
        let sanitizer = AnalysisOutcome::Err(EngineError::new(
            Stage::Profile,
            ErrorKind::Miscompile,
            format!("{SANITIZER_REJECT_PREFIX}2 violation(s) in the dependence stream"),
        ));
        let verifier = AnalysisOutcome::Err(EngineError::new(
            Stage::Lower,
            ErrorKind::Miscompile,
            "IR verifier found 1 violation(s): ...",
        ));
        counters.account(&oracle);
        counters.account(&sanitizer);
        counters.account(&verifier);
        assert_eq!(counters.miscompiles.load(Ordering::Relaxed), 2);
        assert_eq!(counters.sanitizer_rejects.load(Ordering::Relaxed), 1);
        // The oracle and sanitizer failures got past the verifier; the
        // verifier failure did not.
        assert_eq!(counters.verified.load(Ordering::Relaxed), 2);
        assert_eq!(counters.errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_digest_depends_on_the_sanitize_knob() {
        let plain = Engine::new(EngineConfig::default()).unwrap();
        let sanitizing =
            Engine::new(EngineConfig { sanitize: true, ..Default::default() }).unwrap();
        assert_ne!(
            plain.run_digest(&[]),
            sanitizing.run_digest(&[]),
            "toggling the sanitizer must change the resume identity of a batch"
        );
    }
}
