//! # parpat-engine — cached, parallel batch analysis
//!
//! Turns the one-shot `parpat_core::analyze_source` flow into a
//! seven-stage graph (parse → lower → {static, cu, profile}; {cu, profile}
//! → detect; {detect, static} → rank) with:
//!
//! - a **content-addressed artifact cache** — in memory with LRU eviction,
//!   plus an optional disk tier of parse, lower and report records — keyed
//!   by digests of the source's tokens and its lowered functions, and
//!   derived from those and the analysis configuration, so editing one
//!   program reruns only the stages whose inputs changed ([`cache`],
//!   [`digest`]);
//! - **parallel fan-out** over a batch of programs on the repo's own
//!   work-stealing [`parpat_runtime::ThreadPool`], with results returned
//!   in input order regardless of scheduling ([`Engine::batch`]);
//! - **per-stage observability** — executed/hit/miss counters, wall time,
//!   and dynamic instruction counts — rendered as text or JSON and
//!   persisted next to the cache ([`EngineStats`]);
//! - **fault tolerance** — every stage runs inside an unwind boundary, so
//!   one panicking or over-budget program cannot take the batch down: it
//!   surfaces as a structured [`EngineError`], degrades to its static
//!   results when possible ([`DegradedReport`]), and corrupt disk records
//!   are quarantined and regenerated. A deterministic fault-injection
//!   surface ([`FaultPlan`]) proves all of this in `tests/faults.rs`;
//! - **supervision & resume** — each batch job publishes heartbeats that a
//!   watchdog thread scans, cancelling (cooperatively) and requeueing
//!   stalled jobs; transient failures retry with deterministic exponential
//!   backoff; and every finished program is journaled to an fsynced,
//!   single-writer write-ahead log ([`journal`]) so a killed batch resumes
//!   where it stopped (`EngineConfig::resume`) instead of starting over;
//! - **static/dynamic cross-validation** — each loop's static dependence
//!   verdict (from `parpat_static`) is compared against the profiled
//!   classification, flagging input-sensitive do-all verdicts and internal
//!   consistency errors ([`xval`]).
//!
//! ```
//! use std::sync::Arc;
//! use parpat_engine::{BatchInput, Engine, EngineConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()).unwrap());
//! let inputs = vec![BatchInput {
//!     name: "listing1".into(),
//!     source: "global a[8];\nfn main() { for i in 0..8 { a[i] = i; } }".into(),
//! }];
//! let batch = engine.batch(inputs, 2);
//! assert!(batch.outcomes[0].outcome.is_ok());
//! // Second run: every stage answers from the cache.
//! let batch = engine.batch(vec![], 1);
//! assert_eq!(batch.stats.programs, 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod cache;
pub mod digest;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fsck;
pub mod funcdigest;
pub mod journal;
pub mod report;
pub mod stage;
pub mod stats;
pub mod vfs;
pub mod xval;

pub use cache::{Artifact, Cache, DiskRecord, Lookup};
pub use engine::{
    AnalysisOutcome, BatchInput, BatchReport, Engine, EngineConfig, ProgramOutcome, Session,
    SANITIZER_REJECT_PREFIX,
};
pub use error::{EngineError, ErrorKind};
pub use fault::{xorshift64, FaultMode, FaultPlan};
pub use fsck::{fsck, Finding, FsckReport, Severity};
pub use funcdigest::function_digests;
pub use journal::{journal_path, Journal, JournalEntry, Record, Replay, StoredOutcome};
pub use report::{DegradedReport, ProgramReport};
pub use stage::Stage;
pub use stats::{CacheStats, EngineStats, SsaPassStats, StageStats};
pub use vfs::{DiskFault, RealFs, SimFs, Vfs};
pub use xval::{cross_validate, CrossValidation};
