//! Per-stage observability: counters, wall time, and report rendering.
//!
//! Every stage resolution in the engine lands in exactly one of two
//! buckets: a **hit** (the stage function was *not* executed — the memory
//! or disk tier answered) or a **miss** (the stage ran; `executed` counts
//! these too and `wall`/`insts` accumulate). The engine aggregates these
//! into an [`EngineStats`] snapshot after every batch, renders it as text
//! or JSON, and persists both forms under the cache directory so `parpat
//! stats` can read them back from a fresh process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::stage::Stage;

/// JSON string escaping, shared with the diagnostics and the CLI.
pub use parpat_static::diag::json_str;

/// Lock-free per-stage counters shared by all worker threads of a batch.
#[derive(Debug, Default)]
pub(crate) struct StageCounters {
    pub executed: AtomicU64,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    /// Accumulated wall time of executed stage functions, in nanoseconds.
    pub wall_ns: AtomicU64,
    /// Dynamic IR instructions (profile stage only).
    pub insts: AtomicU64,
}

impl StageCounters {
    pub fn snapshot(&self) -> StageStats {
        StageStats {
            executed: self.executed.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            wall: Duration::from_nanos(self.wall_ns.load(Ordering::Relaxed)),
            insts: self.insts.load(Ordering::Relaxed),
        }
    }

    pub fn add_wall(&self, d: Duration) {
        self.wall_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Frozen per-stage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage function actually ran.
    pub executed: u64,
    /// Resolutions answered by the cache (function skipped).
    pub hits: u64,
    /// Resolutions that had to execute.
    pub misses: u64,
    /// Total wall time spent inside executed stage functions, including
    /// the checks whose errors name the stage: the IR verifier for
    /// `lower`, the differential oracle and the sanitizer for `profile`.
    pub wall: Duration,
    /// Dynamic instruction count accumulated by executed runs
    /// (profile stage; zero elsewhere).
    pub insts: u64,
}

/// Accumulated runs and wall time of one SSA optimization pass across a
/// batch (the static stage promotes every analyzed function to optimized
/// SSA; the pass manager times each pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsaPassStats {
    /// The pass's stable name (see `parpat_static::PASS_NAMES`).
    pub name: &'static str,
    /// Functions the pass ran over.
    pub runs: u64,
    /// Total wall time spent inside the pass (verification excluded).
    pub wall: Duration,
}

/// Cache-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stage resolutions answered without executing (all stages).
    pub hits: u64,
    /// Stage resolutions that executed (all stages).
    pub misses: u64,
    /// In-memory LRU evictions.
    pub evictions: u64,
    /// Live in-memory entries after the batch.
    pub mem_entries: u64,
    /// Corrupt disk records quarantined and regenerated.
    pub recovered: u64,
    /// Quarantine corpses evicted to hold the `.corrupt` file cap.
    pub quarantine_evicted: u64,
    /// Disk-tier record writes suppressed after an ENOSPC failure put the
    /// tier into read-only degradation (0 = tier fully operational).
    pub disabled_writes: u64,
}

/// One batch's complete observability snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Per-stage stats, indexed by [`Stage::index`].
    pub stages: [StageStats; 7],
    /// Programs analyzed in the batch.
    pub programs: u64,
    /// Analysis requests handled (batch programs plus, for a resident
    /// service, every `analyze` request of the session).
    pub requests: u64,
    /// Requests answered entirely from the cache — every stage resolved
    /// without executing.
    pub served_from_cache: u64,
    /// Distinct functions whose per-function stage fragments (static
    /// analysis, CU construction) actually executed, summed over requests.
    pub funcs_reanalyzed: u64,
    /// Programs that ended in a hard error (static stage failed, or the
    /// static artifacts were unrecoverable).
    pub errors: u64,
    /// Programs that ended degraded (dynamic stages failed; static
    /// results emitted).
    pub degraded: u64,
    /// Stage functions that panicked (caught at the stage boundary).
    pub panics: u64,
    /// Profiled runs that exhausted an execution budget (instruction
    /// ceiling, call depth, wall-clock deadline, or memory-cell budget).
    pub budget_exceeded: u64,
    /// Transient failures retried with backoff (each retry counts once).
    pub retries: u64,
    /// Jobs cancelled by the watchdog for a stale heartbeat and requeued.
    pub stall_requeued: u64,
    /// Programs restored from the batch journal instead of re-analyzed
    /// (`--resume`).
    pub resumed: u64,
    /// Journal appends that failed (or were refused by a poisoned
    /// journal): the programs completed, their results just are not in
    /// the WAL — a killed batch re-analyzes them instead of resuming.
    pub journal_append_failed: u64,
    /// Requests turned away by a resident service's admission control
    /// before reaching the engine (load shedding).
    pub requests_shed: u64,
    /// Jobs cancelled because a request-scoped deadline expired.
    pub deadline_exceeded: u64,
    /// Requests that arrived marked as client-side retries (the client's
    /// backoff loop re-sent them after an overloaded or transient failure).
    pub retries_client: u64,
    /// Counted loops statically proven free of carried flow dependences
    /// across the batch (degraded programs contribute their candidates).
    pub static_proven_doall: u64,
    /// Loops whose dynamic do-all verdict is contradicted by a proven
    /// static dependence (input-sensitive verdicts).
    pub input_sensitive: u64,
    /// Loops statically proven independent yet dynamically dependent —
    /// internal consistency errors.
    pub consistency_errors: u64,
    /// Per-pass runs and wall time of the SSA optimization pipeline run
    /// by executed static fragments, in roster order (empty when every
    /// static fragment was served from the cache).
    pub ssa_passes: Vec<SsaPassStats>,
    /// Programs whose lowered IR passed the structural verifier.
    pub verified: u64,
    /// Programs whose dependence stream the trace sanitizer rejected
    /// (`--sanitize`).
    pub sanitizer_rejects: u64,
    /// Programs where the IR verifier or the differential oracle caught
    /// the pipeline producing wrong artifacts.
    pub miscompiles: u64,
    /// Worker threads the batch ran on.
    pub jobs: u64,
    /// End-to-end batch wall time.
    pub wall: Duration,
    /// Cache-wide counters.
    pub cache: CacheStats,
}

impl EngineStats {
    /// Stats for stage `s`.
    pub fn stage(&self, s: Stage) -> &StageStats {
        &self.stages[s.index()]
    }

    /// Total dynamic instructions across executed profile runs.
    pub fn total_insts(&self) -> u64 {
        self.stages.iter().map(|s| s.insts).sum()
    }

    /// Fraction of stage resolutions answered by the cache, in `[0, 1]`.
    /// `None` when nothing was resolved.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.cache.hits + self.cache.misses;
        (total > 0).then(|| self.cache.hits as f64 / total as f64)
    }

    /// Human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("=== engine stats ===\n");
        out.push_str(&format!(
            "programs: {} ({} errors, {} degraded), jobs: {}, wall: {}\n",
            self.programs,
            self.errors,
            self.degraded,
            self.jobs,
            fmt_duration(self.wall)
        ));
        out.push_str(&format!(
            "faults: {} panics, {} budget-exceeded, {} cache records recovered\n",
            self.panics, self.budget_exceeded, self.cache.recovered
        ));
        out.push_str(&format!(
            "resilience: {} retries, {} stall-requeued, {} resumed from journal\n",
            self.retries, self.stall_requeued, self.resumed
        ));
        out.push_str(&format!(
            "storage: {} journal append failure(s), {} quarantine eviction(s), {} cache write(s) disabled\n",
            self.journal_append_failed, self.cache.quarantine_evicted, self.cache.disabled_writes
        ));
        out.push_str(&format!(
            "service: {} request(s), {} served from cache, {} function(s) reanalyzed\n",
            self.requests, self.served_from_cache, self.funcs_reanalyzed
        ));
        out.push_str(&format!(
            "overload: {} shed, {} deadline-exceeded, {} client retries\n",
            self.requests_shed, self.deadline_exceeded, self.retries_client
        ));
        out.push_str(&format!(
            "static: {} proven-do-all loop(s), {} input-sensitive, {} consistency error(s)\n",
            self.static_proven_doall, self.input_sensitive, self.consistency_errors
        ));
        if !self.ssa_passes.is_empty() {
            let parts: Vec<String> = self
                .ssa_passes
                .iter()
                .map(|p| format!("{} {}\u{d7}/{}", p.name, p.runs, fmt_duration(p.wall)))
                .collect();
            out.push_str(&format!("ssa passes: {}\n", parts.join(", ")));
        }
        out.push_str(&format!(
            "verification: {} verified, {} sanitizer reject(s), {} miscompile(s)\n",
            self.verified, self.sanitizer_rejects, self.miscompiles
        ));
        out.push_str(&format!(
            "stage      {:>9} {:>9} {:>9} {:>12} {:>14}\n",
            "executed", "hits", "misses", "wall", "insts"
        ));
        for s in Stage::ALL {
            let st = self.stage(s);
            out.push_str(&format!(
                "{:<10} {:>9} {:>9} {:>9} {:>12} {:>14}\n",
                s.name(),
                st.executed,
                st.hits,
                st.misses,
                fmt_duration(st.wall),
                st.insts
            ));
        }
        let rate = match self.hit_rate() {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_owned(),
        };
        out.push_str(&format!(
            "cache: {} hits / {} misses ({} hit rate), {} evictions, {} live entries\n",
            self.cache.hits, self.cache.misses, rate, self.cache.evictions, self.cache.mem_entries
        ));
        out
    }

    /// Hand-rolled JSON object.
    pub fn render_json(&self) -> String {
        let mut passes = String::new();
        for (i, p) in self.ssa_passes.iter().enumerate() {
            if i > 0 {
                passes.push_str(", ");
            }
            passes.push_str(&format!(
                "{{\"pass\": {}, \"runs\": {}, \"wall_ns\": {}}}",
                json_str(p.name),
                p.runs,
                p.wall.as_nanos()
            ));
        }
        let mut stages = String::new();
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                stages.push_str(", ");
            }
            let st = self.stage(*s);
            stages.push_str(&format!(
                "{{\"stage\": {}, \"executed\": {}, \"hits\": {}, \"misses\": {}, \"wall_ns\": {}, \"insts\": {}}}",
                json_str(s.name()),
                st.executed,
                st.hits,
                st.misses,
                st.wall.as_nanos(),
                st.insts
            ));
        }
        format!(
            "{{\"programs\": {}, \"requests\": {}, \"served_from_cache\": {}, \"funcs_reanalyzed\": {}, \"errors\": {}, \"degraded\": {}, \"panics\": {}, \"budget_exceeded\": {}, \"retries\": {}, \"stall_requeued\": {}, \"resumed\": {}, \"journal_append_failed\": {}, \"requests_shed\": {}, \"deadline_exceeded\": {}, \"retries_client\": {}, \"static_proven_doall\": {}, \"input_sensitive\": {}, \"consistency_errors\": {}, \"ssa_passes\": [{}], \"verified\": {}, \"sanitizer_rejects\": {}, \"miscompiles\": {}, \"jobs\": {}, \"wall_ns\": {}, \"stages\": [{}], \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"mem_entries\": {}, \"recovered\": {}, \"quarantine_evicted\": {}, \"disabled_writes\": {}}}}}",
            self.programs,
            self.requests,
            self.served_from_cache,
            self.funcs_reanalyzed,
            self.errors,
            self.degraded,
            self.panics,
            self.budget_exceeded,
            self.retries,
            self.stall_requeued,
            self.resumed,
            self.journal_append_failed,
            self.requests_shed,
            self.deadline_exceeded,
            self.retries_client,
            self.static_proven_doall,
            self.input_sensitive,
            self.consistency_errors,
            passes,
            self.verified,
            self.sanitizer_rejects,
            self.miscompiles,
            self.jobs,
            self.wall.as_nanos(),
            stages,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.mem_entries,
            self.cache.recovered,
            self.cache.quarantine_evicted,
            self.cache.disabled_writes
        )
    }

    /// Persist both renderings under `dir` (`stats.txt` / `stats.json`) so
    /// `parpat stats` can report on the last batch from a fresh process.
    pub fn persist(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.persist_via(&crate::vfs::RealFs, dir)
    }

    /// [`EngineStats::persist`] against an explicit storage backend.
    /// Stats files are derivable snapshots, so the writes carry no
    /// durability guarantee — lost stats cost a report, never results.
    pub fn persist_via(
        &self,
        vfs: &dyn crate::vfs::Vfs,
        dir: &std::path::Path,
    ) -> std::io::Result<()> {
        vfs.write(&dir.join("stats.txt"), self.render_text().as_bytes())?;
        vfs.write(&dir.join("stats.json"), self.render_json().as_bytes())
    }
}

/// Format a duration compactly (`1.234s`, `56.7ms`, `890µs`, `12ns`).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}µs", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample() -> EngineStats {
        let mut stages = [StageStats::default(); 7];
        stages[Stage::Profile.index()] = StageStats {
            executed: 17,
            hits: 0,
            misses: 17,
            wall: Duration::from_millis(12),
            insts: 99_000,
        };
        stages[Stage::Parse.index()] =
            StageStats { executed: 0, hits: 17, misses: 0, wall: Duration::ZERO, insts: 0 };
        EngineStats {
            stages,
            programs: 17,
            requests: 34,
            served_from_cache: 17,
            funcs_reanalyzed: 3,
            errors: 0,
            degraded: 1,
            panics: 1,
            budget_exceeded: 2,
            retries: 6,
            stall_requeued: 7,
            resumed: 9,
            journal_append_failed: 6,
            requests_shed: 11,
            deadline_exceeded: 12,
            retries_client: 13,
            static_proven_doall: 21,
            input_sensitive: 4,
            consistency_errors: 5,
            ssa_passes: vec![
                SsaPassStats { name: "cse", runs: 85, wall: Duration::from_micros(120) },
                SsaPassStats { name: "licm", runs: 85, wall: Duration::from_micros(95) },
            ],
            verified: 16,
            sanitizer_rejects: 2,
            miscompiles: 1,
            jobs: 8,
            wall: Duration::from_millis(40),
            cache: CacheStats {
                hits: 17,
                misses: 17,
                evictions: 2,
                mem_entries: 32,
                recovered: 3,
                quarantine_evicted: 7,
                disabled_writes: 8,
            },
        }
    }

    #[test]
    fn text_mentions_every_stage() {
        let text = sample().render_text();
        for s in Stage::ALL {
            assert!(text.contains(s.name()), "missing {s} in:\n{text}");
        }
        assert!(text.contains("50.0% hit rate"));
        assert!(text.contains("1 degraded"));
        assert!(text.contains("1 panics, 2 budget-exceeded, 3 cache records recovered"));
        assert!(text.contains("6 retries, 7 stall-requeued, 9 resumed from journal"));
        assert!(text.contains(
            "6 journal append failure(s), 7 quarantine eviction(s), 8 cache write(s) disabled"
        ));
        assert!(text.contains("34 request(s), 17 served from cache, 3 function(s) reanalyzed"));
        assert!(text.contains("11 shed, 12 deadline-exceeded, 13 client retries"));
        assert!(
            text.contains("21 proven-do-all loop(s), 4 input-sensitive, 5 consistency error(s)")
        );
        assert!(text.contains("ssa passes: cse 85\u{d7}/120µs, licm 85\u{d7}/95µs"), "{text}");
        assert!(text.contains("16 verified, 2 sanitizer reject(s), 1 miscompile(s)"));
    }

    #[test]
    fn text_omits_the_pass_line_when_nothing_ran() {
        let mut s = sample();
        s.ssa_passes.clear();
        assert!(!s.render_text().contains("ssa passes"), "{}", s.render_text());
        assert!(s.render_json().contains("\"ssa_passes\": []"), "{}", s.render_json());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"stage\": \"profile\""));
        assert!(json.contains("\"insts\": 99000"));
        assert!(json.contains("\"degraded\": 1"));
        assert!(json.contains("\"panics\": 1"));
        assert!(json.contains("\"budget_exceeded\": 2"));
        assert!(json.contains("\"retries\": 6"));
        assert!(json.contains("\"stall_requeued\": 7"));
        assert!(json.contains("\"resumed\": 9"));
        assert!(json.contains("\"requests_shed\": 11"));
        assert!(json.contains("\"deadline_exceeded\": 12"));
        assert!(json.contains("\"retries_client\": 13"));
        assert!(json.contains("\"requests\": 34"));
        assert!(json.contains("\"served_from_cache\": 17"));
        assert!(json.contains("\"funcs_reanalyzed\": 3"));
        assert!(json.contains("\"static_proven_doall\": 21"));
        assert!(json
            .contains("\"ssa_passes\": [{\"pass\": \"cse\", \"runs\": 85, \"wall_ns\": 120000}"));
        assert!(json.contains("\"input_sensitive\": 4"));
        assert!(json.contains("\"consistency_errors\": 5"));
        assert!(json.contains("\"verified\": 16"));
        assert!(json.contains("\"sanitizer_rejects\": 2"));
        assert!(json.contains("\"miscompiles\": 1"));
        assert!(json.contains("\"recovered\": 3"));
        assert!(json.contains("\"journal_append_failed\": 6"));
        assert!(json.contains("\"quarantine_evicted\": 7"));
        assert!(json.contains("\"disabled_writes\": 8"));
    }

    #[test]
    fn hit_rate_bounds() {
        assert_eq!(sample().hit_rate(), Some(0.5));
        let empty = EngineStats {
            stages: [StageStats::default(); 7],
            programs: 0,
            requests: 0,
            served_from_cache: 0,
            funcs_reanalyzed: 0,
            errors: 0,
            degraded: 0,
            panics: 0,
            budget_exceeded: 0,
            retries: 0,
            stall_requeued: 0,
            resumed: 0,
            journal_append_failed: 0,
            requests_shed: 0,
            deadline_exceeded: 0,
            retries_client: 0,
            static_proven_doall: 0,
            input_sensitive: 0,
            consistency_errors: 0,
            ssa_passes: Vec::new(),
            verified: 0,
            sanitizer_rejects: 0,
            miscompiles: 0,
            jobs: 1,
            wall: Duration::ZERO,
            cache: CacheStats::default(),
        };
        assert!(empty.hit_rate().is_none());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt_duration(Duration::from_micros(890)), "890µs");
        assert_eq!(fmt_duration(Duration::from_nanos(56_700_000)), "56.7ms");
        assert_eq!(fmt_duration(Duration::from_millis(1234)), "1.234s");
    }
}
