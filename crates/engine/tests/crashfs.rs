//! Crash-consistency harness: run a batch against the simulated,
//! fault-injecting storage backend and cut power / fail I/O at **every**
//! mutating operation the uninterrupted run performs. The contract under
//! test, at every fault point:
//!
//! - the batch never panics — storage faults surface as structured,
//!   counter-accounted degradation (poisoned journal, disabled cache
//!   write tier), never as a crash;
//! - program outcomes are byte-identical to the uninterrupted run even
//!   while the disk burns (analysis is compute; durability is advisory);
//! - what the cut leaves durable is never *silently* corrupt: the
//!   journal's durable bytes scan to a clean prefix (a torn tail is the
//!   honest cost of a crash; a checksum or parse failure past `fsck
//!   --repair` is not), and resuming on the survivor state reproduces
//!   the uninterrupted outcomes exactly.

use std::path::PathBuf;
use std::sync::Arc;

use parpat_engine::journal::{self, scan, Journal, JournalEntry, StoredOutcome, TailIssue};
use parpat_engine::vfs::is_enospc;
use parpat_engine::{fsck, BatchInput, BatchReport, DiskFault, Engine, EngineConfig, SimFs, Vfs};

const RUN_DIR: &str = "/run";

fn inputs() -> Vec<BatchInput> {
    vec![
        BatchInput {
            name: "doall".into(),
            source: "global a[8];\nfn main() { for i in 0..8 { a[i] = i; } }".into(),
        },
        BatchInput {
            name: "carried".into(),
            source: "global a[8];\nfn main() { for i in 1..8 { a[i] = a[i - 1] + 1; } }".into(),
        },
        BatchInput { name: "broken".into(), source: "fn main() { let = ; }".into() },
    ]
}

fn engine_on(vfs: Arc<SimFs>, resume: bool) -> std::io::Result<Arc<Engine>> {
    let cfg =
        EngineConfig { cache_dir: Some(PathBuf::from(RUN_DIR)), resume, vfs, ..Default::default() };
    Engine::new(cfg).map(Arc::new)
}

/// JSON forms of every outcome — the byte-identity yardstick (wall times
/// are excluded by construction).
fn jsons(batch: &BatchReport) -> Vec<String> {
    batch
        .outcomes
        .iter()
        .map(|o| match &o.outcome {
            parpat_engine::AnalysisOutcome::Ok(r) => r.to_json(),
            parpat_engine::AnalysisOutcome::Degraded(d) => d.to_json(),
            parpat_engine::AnalysisOutcome::Err(e) => e.to_json(),
        })
        .collect()
}

/// The uninterrupted run: baseline outcomes plus the number of mutating
/// storage operations it performs — the sweep range for every fault kind.
fn baseline() -> (Vec<String>, u64) {
    let vfs = Arc::new(SimFs::new());
    let report = engine_on(vfs.clone(), false).expect("fault-free engine").batch(inputs(), 1);
    assert_eq!(report.stats.errors, 1, "the broken program fails, the rest analyze");
    (jsons(&report), vfs.ops())
}

/// Whatever survived on the (restarted or unstuck) disk must resume to
/// the uninterrupted outcomes, and a post-repair scrub must be free of
/// errors — recovery is complete, not merely non-crashing.
fn assert_recovers(vfs: &Arc<SimFs>, expect: &[String], ctx: &str) {
    let dir = PathBuf::from(RUN_DIR);
    let report = fsck(vfs.as_ref(), &dir, true).unwrap_or_else(|e| panic!("{ctx}: fsck: {e}"));
    let resumed = engine_on(vfs.clone(), true)
        .unwrap_or_else(|e| panic!("{ctx}: engine on survivor state: {e}"))
        .batch(inputs(), 1);
    assert_eq!(jsons(&resumed), expect, "{ctx}: resume must be byte-identical");
    let clean = fsck(vfs.as_ref(), &dir, false).unwrap_or_else(|e| panic!("{ctx}: re-fsck: {e}"));
    assert_eq!(
        clean.errors_remaining(),
        0,
        "{ctx}: repaired + resumed dir must scrub clean:\n{}\nfirst pass:\n{}",
        clean.render(&dir),
        report.render(&dir)
    );
}

#[test]
fn power_cut_at_every_fault_point_recovers_byte_identically() {
    let (expect, total_ops) = baseline();
    assert!(total_ops > 10, "the sweep must cover real work, got {total_ops} ops");
    for at in 1..=total_ops {
        let ctx = format!("power cut at op {at}/{total_ops}");
        let vfs = Arc::new(SimFs::seeded(at));
        vfs.set_fault(Some(DiskFault::PowerCut { at, partial: None }));
        if let Ok(engine) = engine_on(vfs.clone(), false) {
            // The disk dies mid-run, the batch does not: outcomes are
            // computed in memory and match the uninterrupted run.
            let report = engine.batch(inputs(), 1);
            assert_eq!(jsons(&report), expect, "{ctx}: outcomes during the cut");
        }
        assert!(vfs.powered_off(), "{ctx}: the fault must have tripped");
        vfs.restart();
        // Never silent corruption: if the journal's *durable* bytes have a
        // readable header, they scan to a clean prefix — the only
        // admissible tail damage from a cut is a torn append.
        if let Some(bytes) = vfs.durable(&journal::journal_path(&PathBuf::from(RUN_DIR))) {
            if let Some(parsed) = scan(&bytes) {
                assert!(
                    parsed.tail.is_none() || parsed.tail == Some(TailIssue::Torn),
                    "{ctx}: durable journal tail is {:?}, not torn",
                    parsed.tail
                );
            }
        }
        assert_recovers(&vfs, &expect, &ctx);
    }
}

#[test]
fn transient_eio_at_every_fault_point_degrades_and_recovers() {
    let (expect, total_ops) = baseline();
    let mut max_refused = 0u64;
    for at in 1..=total_ops {
        let ctx = format!("EIO at op {at}/{total_ops}");
        let vfs = Arc::new(SimFs::seeded(at));
        vfs.set_fault(Some(DiskFault::Eio { at }));
        match engine_on(vfs.clone(), false) {
            Ok(engine) => {
                let report = engine.batch(inputs(), 1);
                assert_eq!(jsons(&report), expect, "{ctx}: outcomes under the fault");
                max_refused = max_refused.max(report.stats.journal_append_failed);
            }
            Err(_) => assert_eq!(at, 1, "{ctx}: only the cache-dir op can fail construction"),
        }
        assert_recovers(&vfs, &expect, &ctx);
    }
    // The sweep necessarily hit the first journal append for some `at`:
    // that append fails with EIO (counted), the journal poisons itself,
    // and both remaining programs' appends are refused (counted) — one
    // failure accounted per record that did not land.
    assert_eq!(max_refused, 3, "every refused append must be counted");
}

#[test]
fn sticky_enospc_at_every_fault_point_degrades_and_recovers() {
    let (expect, total_ops) = baseline();
    for at in 1..=total_ops {
        let ctx = format!("ENOSPC from op {at}/{total_ops}");
        let vfs = Arc::new(SimFs::seeded(at));
        vfs.set_fault(Some(DiskFault::Enospc { at, partial: None }));
        match engine_on(vfs.clone(), false) {
            Ok(engine) => {
                let report = engine.batch(inputs(), 1);
                assert_eq!(jsons(&report), expect, "{ctx}: outcomes on the full disk");
                // A disk that filled mid-run must be *accounted*: a
                // counter (poisoned journal, disabled cache tier) says
                // what was lost. Nothing degrades silently — except the
                // final stats persist itself (the last two writes), which
                // is best-effort by design and whose failure necessarily
                // postdates the snapshot it would be counted in.
                let accounted =
                    report.stats.journal_append_failed + report.stats.cache.disabled_writes;
                assert!(
                    accounted > 0 || at > total_ops - 2,
                    "{ctx}: a full disk mid-run must surface in the counters\n{}",
                    report.stats.render_text()
                );
            }
            Err(e) => {
                assert!(is_enospc(&e), "{ctx}: construction fails with ENOSPC, got {e}");
            }
        }
        vfs.set_fault(None); // the operator made room
        assert_recovers(&vfs, &expect, &ctx);
    }
}

#[test]
fn enospc_at_every_byte_offset_leaves_the_journal_resumable() {
    let entry = |i: usize| JournalEntry {
        index: i,
        worker: 0,
        fence: 0,
        outcome: StoredOutcome::Err(parpat_engine::EngineError::new(
            parpat_engine::Stage::Parse,
            parpat_engine::ErrorKind::Lang,
            format!("detail for {i}"),
        )),
    };
    // Measure the third record's full wire length on a clean journal.
    let rec_len = journal::render_record(&entry(2)).len() as u64;
    let dir = PathBuf::from("/run");

    for cut in 0..=rec_len {
        let vfs = Arc::new(SimFs::new());
        let journal = Journal::start_via(vfs.clone(), &dir, 0xcafe).expect("start");
        journal.append(&entry(0)).expect("append 0");
        journal.append(&entry(1)).expect("append 1");
        vfs.set_fault(Some(DiskFault::Enospc { at: vfs.ops() + 1, partial: Some(cut) }));
        let err = journal.append(&entry(2)).expect_err("the disk is full");
        assert!(is_enospc(&err), "offset {cut}: {err}");
        assert!(journal.is_poisoned(), "offset {cut}: first failure poisons");
        drop(journal);

        vfs.set_fault(None); // room was made
                             // Structured state, no duplicate accounting: resume replays a
                             // strict record prefix — the two durable records, plus the third
                             // only if every one of its bytes landed before the disk filled.
        let (journal, replayed) = Journal::resume_via(vfs.clone(), &dir, 0xcafe).expect("resume");
        let want: Vec<JournalEntry> = if cut == rec_len {
            vec![entry(0), entry(1), entry(2)]
        } else {
            vec![entry(0), entry(1)]
        };
        assert_eq!(replayed.entries, want, "offset {cut}");
        // The truncated journal accepts appends on a clean boundary.
        journal.append(&entry(3)).expect("post-recovery append");
        drop(journal);
        let bytes = vfs.read(&journal::journal_path(&dir)).expect("read back");
        let parsed = scan(&bytes).expect("scans");
        assert_eq!(parsed.tail, None, "offset {cut}: no residual damage");
        assert_eq!(parsed.records.len(), want.len() + 1, "offset {cut}");
    }
}
