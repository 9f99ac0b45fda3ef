//! `parpat fsck` — offline scrubber for a run directory.
//!
//! Walks everything the durability layer persists under a cache/run
//! directory — the journal (`journal.wal`) and the disk cache tier
//! (`*.rec`) — and validates each against its own invariants, reporting
//! damage under **stable diagnostic codes** (like `parpat lint`'s P/L/V
//! codes):
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | F001 | error    | journal header unreadable (not a journal, or rotted) |
//! | F002 | warning  | journal ends mid-record (torn append — the expected cost of a crash) |
//! | F003 | error    | journal record checksum mismatch (bit-rot inside a durable record) |
//! | F004 | error    | journal record complete but malformed |
//! | F010 | info     | legacy ledger records (`claim`/`beat`/`release` from retired multi-process batches), ignored by resume |
//! | F020 | error    | cache record malformed |
//! | F021 | error    | cache record checksum mismatch (bit-rot) |
//! | F022 | warning  | orphaned cache temp file (crash between write and rename) |
//!
//! F011–F013 and F015 belonged to that ledger's fencing and lock checks;
//! they are retired and not reused.
//!
//! `--repair` quarantines what is damaged and restores what the engine's
//! own recovery expects: the journal's damaged tail is copied to
//! `journal.wal.tail.corrupt` and the file truncated to its last good
//! record (exactly what `--resume` would do, made explicit and
//! inspectable); an unreadable journal is quarantined whole as
//! `journal.wal.corrupt`; rotted cache records are renamed to `.corrupt`
//! (the cache regenerates the slot); orphaned temps are removed. A journal
//! quarantine takes the first of `….corrupt`, `….corrupt.1`, … that the
//! directory does not hold yet, so repair never deletes the only copy of
//! anything — damage is moved aside, not destroyed, however often it is
//! repaired.
//!
//! Everything goes through a [`Vfs`] handle, so the crash-consistency
//! harness can corrupt a simulated disk and assert fsck finds every
//! seeded fault.

use std::path::{Path, PathBuf};

use crate::cache::{check_record, RecordIssue};
use crate::journal::{journal_path, scan, Record, TailIssue};
use crate::vfs::Vfs;

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected residue of normal crash recovery; nothing to do.
    Info,
    /// Unexpected but handled (or handleable) state.
    Warning,
    /// Data damage.
    Error,
}

impl Severity {
    fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic: a stable code, the file it is about, and what repair
/// (if any) was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable diagnostic code (`F001`…).
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// The file the finding is about.
    pub path: PathBuf,
    /// Human-readable description.
    pub detail: String,
    /// The repair action taken, when `fsck` ran with `repair` and the
    /// finding is repairable.
    pub repaired: Option<String>,
}

/// The scrub's outcome: every finding plus scan coverage counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// All findings, in deterministic order (journal first, then cache
    /// files in sorted path order).
    pub findings: Vec<Finding>,
    /// Complete journal records scanned.
    pub journal_records: u64,
    /// Cache records scanned.
    pub cache_records: u64,
}

impl FsckReport {
    /// Error-severity findings that were *not* repaired — the count that
    /// decides the exit status.
    pub fn errors_remaining(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error && f.repaired.is_none())
            .count()
    }

    /// Findings at `severity`, repaired or not.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }

    /// Render the report as stable, line-oriented text.
    pub fn render(&self, dir: &Path) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str(&format!(
                "fsck {}: clean ({} journal record(s), {} cache record(s) scanned)\n",
                dir.display(),
                self.journal_records,
                self.cache_records
            ));
            return out;
        }
        out.push_str(&format!(
            "fsck {}: {} error(s), {} warning(s), {} info ({} journal record(s), {} cache record(s) scanned)\n",
            dir.display(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.journal_records,
            self.cache_records
        ));
        for f in &self.findings {
            let name = f
                .path
                .file_name()
                .map_or_else(|| f.path.display().to_string(), |n| n.to_string_lossy().into_owned());
            out.push_str(&format!(
                "  {} {:<7} {}: {}\n",
                f.code,
                f.severity.name(),
                name,
                f.detail
            ));
            if let Some(fix) = &f.repaired {
                out.push_str(&format!("       repaired: {fix}\n"));
            }
        }
        out
    }
}

/// Scrub run directory `dir` through `vfs`. With `repair`, quarantine
/// damage and restore the directory to a resumable state (see the module
/// docs for what each code's repair does). Only an unlistable directory
/// is a hard error — damage inside it is what the report is for.
pub fn fsck(vfs: &dyn Vfs, dir: &Path, repair: bool) -> std::io::Result<FsckReport> {
    let mut report = FsckReport::default();
    let listing = vfs.list_dir(dir)?;
    check_journal(vfs, dir, repair, &mut report, &listing);
    check_cache(vfs, repair, &mut report, &listing);
    Ok(report)
}

/// Validate the journal: header and per-record integrity, plus a count of
/// the legacy ledger records it still holds.
fn check_journal(
    vfs: &dyn Vfs,
    dir: &Path,
    repair: bool,
    report: &mut FsckReport,
    listing: &[PathBuf],
) {
    let wal = journal_path(dir);
    let Ok(bytes) = vfs.read(&wal) else {
        return; // No journal is a valid state (cache-only directory).
    };
    let Some(parsed) = scan(&bytes) else {
        let repaired = repair.then(|| {
            let tomb = quarantine_name(&wal, "corrupt", listing);
            match vfs.rename(&wal, &tomb) {
                Ok(()) => format!("quarantined as {}", file_name(&tomb)),
                Err(e) => format!("quarantine failed: {e}"),
            }
        });
        report.findings.push(Finding {
            code: "F001",
            severity: Severity::Error,
            path: wal,
            detail: "journal header unreadable; nothing can be replayed".to_owned(),
            repaired,
        });
        return;
    };
    report.journal_records = parsed.records.len() as u64;
    if let Some(issue) = parsed.tail {
        let valid_end = parsed.records.last().map_or(parsed.header_end, |(_, e)| *e);
        let (code, severity, what) = match issue {
            TailIssue::Torn => {
                ("F002", Severity::Warning, "file ends mid-record (interrupted append)")
            }
            TailIssue::Checksum => {
                ("F003", Severity::Error, "record checksum mismatch (bit-rot in a durable record)")
            }
            TailIssue::Malformed => ("F004", Severity::Error, "complete record does not parse"),
        };
        let repaired = repair.then(|| {
            let tomb = quarantine_name(&wal, "tail.corrupt", listing);
            let quarantine = vfs.create_sync(&tomb, &bytes[valid_end..]);
            match quarantine.and_then(|()| vfs.truncate_sync(&wal, valid_end as u64)) {
                Ok(()) => format!(
                    "truncated to last good record at byte {valid_end}; damaged tail kept as {}",
                    file_name(&tomb)
                ),
                Err(e) => format!("truncation failed: {e}"),
            }
        });
        report.findings.push(Finding {
            code,
            severity,
            path: wal.clone(),
            detail: format!("{what} at byte {valid_end}"),
            repaired,
        });
    }
    let legacy = parsed.records.iter().filter(|(r, _)| matches!(r, Record::Legacy)).count();
    if legacy > 0 {
        report.findings.push(Finding {
            code: "F010",
            severity: Severity::Info,
            path: wal,
            detail: format!(
                "{legacy} legacy ledger record(s) (claim/beat/release from a multi-process batch); ignored by resume"
            ),
            repaired: None,
        });
    }
}

/// Validate every disk cache record and flag crash-orphaned temp files.
fn check_cache(vfs: &dyn Vfs, repair: bool, report: &mut FsckReport, listing: &[PathBuf]) {
    for path in listing {
        let name = file_name(path);
        if name.contains(".tmp.") {
            let repaired = repair.then(|| match vfs.remove_file(path) {
                Ok(()) => "removed".to_owned(),
                Err(e) => format!("removal failed: {e}"),
            });
            report.findings.push(Finding {
                code: "F022",
                severity: Severity::Warning,
                path: path.clone(),
                detail: "orphaned cache temp file (crash between write and rename)".to_owned(),
                repaired,
            });
            continue;
        }
        if path.extension().is_none_or(|e| e != "rec") {
            continue;
        }
        let issue = match vfs.read(path) {
            Ok(bytes) => match check_record(&bytes) {
                Ok(_) => {
                    report.cache_records += 1;
                    continue;
                }
                Err(issue) => issue,
            },
            Err(_) => RecordIssue::Malformed,
        };
        report.cache_records += 1;
        let (code, what) = match issue {
            RecordIssue::Checksum => ("F021", "cache record checksum mismatch (bit-rot)"),
            RecordIssue::Malformed => ("F020", "cache record malformed"),
        };
        let repaired = repair.then(|| {
            let tomb = path.with_extension("corrupt");
            match vfs.rename(path, &tomb) {
                Ok(()) => {
                    format!("quarantined as {} (the cache regenerates the slot)", file_name(&tomb))
                }
                Err(e) => format!("quarantine failed: {e}"),
            }
        });
        report.findings.push(Finding {
            code,
            severity: Severity::Error,
            path: path.clone(),
            detail: what.to_owned(),
            repaired,
        });
    }
}

/// `path` with `suffix` appended to its full file name (unlike
/// `with_extension`, which would clobber `.wal`), numbered `.1`, `.2`, …
/// past any name `listing` already holds so an earlier quarantine is
/// never overwritten.
fn quarantine_name(path: &Path, suffix: &str, listing: &[PathBuf]) -> PathBuf {
    let name = format!("{}.{suffix}", file_name(path));
    (0..)
        .map(|n| path.with_file_name(if n == 0 { name.clone() } else { format!("{name}.{n}") }))
        .find(|p| !listing.contains(p))
        .expect("some numbered name is free")
}

fn file_name(path: &Path) -> String {
    path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::path::PathBuf;
    use std::sync::Arc;

    use super::*;
    use crate::digest::hash_bytes;
    use crate::error::{EngineError, ErrorKind};
    use crate::journal::{header_bytes, render_record, Journal, JournalEntry, StoredOutcome};
    use crate::stage::Stage;
    use crate::vfs::SimFs;

    fn entry(index: usize, worker: u64, fence: u64) -> JournalEntry {
        JournalEntry {
            index,
            worker,
            fence,
            outcome: StoredOutcome::Err(EngineError::new(Stage::Parse, ErrorKind::Lang, "x")),
        }
    }

    fn run_dir(vfs: &Arc<SimFs>) -> PathBuf {
        let dir = PathBuf::from("/run");
        let journal = Journal::start_via(vfs.clone(), &dir, 0xbeef).unwrap();
        journal.append(&entry(0, 0, 0)).unwrap();
        journal.append(&entry(1, 0, 0)).unwrap();
        dir
    }

    #[test]
    fn a_healthy_run_dir_is_clean() {
        let vfs = Arc::new(SimFs::new());
        let dir = run_dir(&vfs);
        let report = fsck(vfs.as_ref(), &dir, false).unwrap();
        assert_eq!(report.findings, vec![]);
        assert_eq!(report.journal_records, 2);
        assert!(report.render(&dir).contains("clean"));
    }

    #[test]
    fn every_seeded_corruption_is_detected_under_its_code() {
        let vfs = Arc::new(SimFs::new());
        let dir = run_dir(&vfs);
        let wal = journal_path(&dir);
        // Bit-rot deep inside the last journal record.
        let mut bytes = vfs.durable(&wal).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        vfs.create_sync(&wal, &bytes).unwrap();
        // An orphaned temp and a rotted cache record.
        vfs.create_sync(&dir.join("00000000000000aa.tmp.1.2"), b"partial").unwrap();
        vfs.create_sync(&dir.join("00000000000000bb.rec"), b"parpat-rec-v2\nnot a record").unwrap();

        let report = fsck(vfs.as_ref(), &dir, false).unwrap();
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["F003", "F022", "F020"]);
        assert_eq!(report.errors_remaining(), 2);
    }

    #[test]
    fn repair_restores_a_resumable_directory() {
        let vfs = Arc::new(SimFs::new());
        let dir = run_dir(&vfs);
        let wal = journal_path(&dir);
        let mut bytes = vfs.durable(&wal).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        vfs.create_sync(&wal, &bytes).unwrap();
        vfs.create_sync(&dir.join("00000000000000bb.rec"), b"garbage").unwrap();

        let report = fsck(vfs.as_ref(), &dir, true).unwrap();
        assert_eq!(report.errors_remaining(), 0, "{}", report.render(&dir));
        assert!(report.findings.iter().all(|f| f.repaired.is_some()));
        // The damaged tail is preserved, not destroyed.
        assert!(vfs.durable(&dir.join("journal.wal.tail.corrupt")).is_some());
        assert!(vfs.durable(&dir.join("00000000000000bb.corrupt")).is_some());
        // And the journal now resumes to exactly the undamaged prefix.
        let (_, replayed) = Journal::resume_via(vfs.clone(), &dir, 0xbeef).unwrap();
        assert_eq!(replayed.entries, vec![entry(0, 0, 0)]);
        // A second pass over the repaired directory is clean.
        let report = fsck(vfs.as_ref(), &dir, false).unwrap();
        assert_eq!(report.findings, vec![], "{}", report.render(&dir));
    }

    #[test]
    fn an_unreadable_header_is_quarantined_whole() {
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        vfs.create_sync(&journal_path(&dir), b"\x00\xffnot a journal\n").unwrap();
        let report = fsck(vfs.as_ref(), &dir, true).unwrap();
        assert_eq!(report.findings[0].code, "F001");
        assert_eq!(report.errors_remaining(), 0);
        assert!(vfs.durable(&journal_path(&dir)).is_none());
        assert!(vfs.durable(&dir.join("journal.wal.corrupt")).is_some());
    }

    #[test]
    fn legacy_ledger_records_are_one_info_finding() {
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        let mut bytes = header_bytes(0xbeef).into_bytes();
        for head in ["claim 0 1 1 500", "beat 0 1 1", "release 7 9 1"] {
            let payload = format!("{head}\n");
            let sum = hash_bytes(payload.as_bytes());
            bytes.extend_from_slice(
                format!("rec {} {sum:016x}\n{payload}", payload.len()).as_bytes(),
            );
        }
        bytes.extend_from_slice(&render_record(&entry(0, 1, 1)));
        vfs.create_sync(&journal_path(&dir), &bytes).unwrap();
        let report = fsck(vfs.as_ref(), &dir, false).unwrap();
        assert_eq!(report.journal_records, 4);
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec!["F010"]);
        assert_eq!(report.findings[0].severity, Severity::Info);
        assert!(report.findings[0].detail.starts_with("3 legacy ledger record(s)"));
        assert_eq!(report.errors_remaining(), 0);
    }

    #[test]
    fn repeated_repairs_keep_every_quarantined_tail() {
        let vfs = Arc::new(SimFs::new());
        let dir = run_dir(&vfs);
        let wal = journal_path(&dir);
        let mut tails = Vec::new();
        for torn in ["rec 999\nprog 0", "rec 998\nprog 1"] {
            let mut bytes = vfs.durable(&wal).unwrap();
            let good = bytes.len();
            bytes.extend_from_slice(torn.as_bytes());
            vfs.create_sync(&wal, &bytes).unwrap();
            tails.push(bytes[good..].to_vec());
            let report = fsck(vfs.as_ref(), &dir, true).unwrap();
            assert_eq!(report.findings[0].code, "F002");
        }
        assert_eq!(vfs.durable(&dir.join("journal.wal.tail.corrupt")), Some(tails[0].clone()));
        assert_eq!(vfs.durable(&dir.join("journal.wal.tail.corrupt.1")), Some(tails[1].clone()));
        // Whole-journal quarantines number the same way.
        for _ in 0..2 {
            vfs.create_sync(&wal, b"\x00not a journal\n").unwrap();
            assert_eq!(fsck(vfs.as_ref(), &dir, true).unwrap().findings[0].code, "F001");
        }
        assert!(vfs.durable(&dir.join("journal.wal.corrupt")).is_some());
        assert!(vfs.durable(&dir.join("journal.wal.corrupt.1")).is_some());
    }

    #[test]
    fn a_torn_tail_is_a_warning_not_an_error() {
        let vfs = Arc::new(SimFs::new());
        let dir = run_dir(&vfs);
        let wal = journal_path(&dir);
        let mut bytes = vfs.durable(&wal).unwrap();
        bytes.truncate(bytes.len() - 4);
        vfs.create_sync(&wal, &bytes).unwrap();
        let report = fsck(vfs.as_ref(), &dir, false).unwrap();
        assert_eq!(report.findings[0].code, "F002");
        assert_eq!(report.errors_remaining(), 0, "a crash's torn tail is expected damage");
    }
}
