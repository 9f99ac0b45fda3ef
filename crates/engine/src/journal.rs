//! The batch journal: a single-writer write-ahead log of finished
//! programs.
//!
//! A batch writes one fsynced record per *finished* program into
//! `journal.wal` under the cache directory, keyed by a run digest over the
//! batch inputs and configuration (the same FNV-1a chain the cache uses).
//! If the process is killed mid-batch, `--resume` replays the journal:
//! every program with a complete record is restored byte-identically from
//! its record and skipped; only the unfinished tail is re-analyzed.
//!
//! A record's head is `prog <idx> <worker> <fence> ok|degraded|err ...`.
//! The worker and fence fields are left over from a multi-process ledger
//! that older releases ran over this file; every append now writes `0 0`.
//! Journals written by that ledger also hold `claim`, `beat` and `release`
//! records. [`scan`] still parses them, as [`Record::Legacy`], so that a
//! resume does not stop at the first of them and drop every result after
//! it; [`replay`] skips them.
//!
//! The format is torn-write tolerant by construction: the file is a header
//! line followed by length-prefixed records, and [`scan`] stops at the
//! first incomplete or malformed record, so a crash mid-append costs at
//! most the record being written. Resuming truncates the torn tail before
//! appending. A journal whose run digest does not match the current batch
//! (different inputs or configuration) is discarded wholesale — resuming
//! never mixes results from two different runs.
//!
//! Format v3 adds a per-record FNV-1a checksum to the frame line
//! (`rec <len> <fnv:016x>\n`), so bit-rot *inside* a complete record —
//! which v2's length framing cannot see — stops the scan at the damaged
//! record instead of replaying corrupted results. v2 journals (and v2
//! frames inside a resumed journal that later accumulated v3 appends)
//! stay readable; new headers and appends are always v3. [`ScanOut::tail`]
//! reports *why* a scan stopped ([`TailIssue`]), which `parpat fsck` maps
//! to stable diagnostic codes.
//!
//! All file I/O goes through a [`Vfs`] handle, so the crash-consistency
//! harness can run the same code against the simulated, fault-injecting
//! backend. A failed append **poisons** the journal handle: later appends
//! are refused instead of risking interleaved garbage after a partial
//! record, and the engine accounts each refusal.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use parpat_runtime::lock_recover;

use crate::digest::hash_bytes;
use crate::error::{EngineError, ErrorKind};
use crate::report::{DegradedReport, ProgramReport};
use crate::stage::Stage;
use crate::vfs::{RealFs, Vfs};

/// Journal file name under the cache directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Legacy header magic: records framed without checksums.
const MAGIC_V2: &str = "parpat-journal-v2";
/// Current header magic: appends carry per-record FNV checksums.
const MAGIC: &str = "parpat-journal-v3";

/// Ceiling on a single record's payload; anything larger is treated as
/// corruption rather than allocated.
const MAX_RECORD: usize = 64 << 20;

/// Path of the journal inside cache directory `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// The persisted outcome of one completed program.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredOutcome {
    /// Full analysis succeeded.
    Ok {
        /// The complete report.
        report: ProgramReport,
        /// Whether every stage was answered by the cache.
        fully_cached: bool,
    },
    /// Dynamic stages failed; static results were kept.
    Degraded(DegradedReport),
    /// Hard failure.
    Err(EngineError),
}

/// One completed-program record: which batch index finished and how.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Batch input index.
    pub index: usize,
    /// Worker id of the multi-process ledger that wrote legacy records;
    /// appends write 0.
    pub worker: u64,
    /// Fencing token of that ledger's lease; appends write 0.
    pub fence: u64,
    /// The program's outcome.
    pub outcome: StoredOutcome,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A finished program.
    Prog(JournalEntry),
    /// A `claim`, `beat` or `release` record of the retired multi-process
    /// ledger: well-formed, but carrying nothing replay uses.
    Legacy,
}

/// The completed programs a journal holds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Replay {
    /// One entry per completed batch index, ordered by index.
    pub entries: Vec<JournalEntry>,
}

/// Fold records into the completed programs: the first `prog` record of
/// each index wins. Every `prog` in a journal with a matching run digest is
/// a complete, checksummed result for that input under that configuration,
/// so a later duplicate (a legacy ledger could write two) is the same
/// result again. Legacy records are skipped.
pub fn replay<'a>(records: impl IntoIterator<Item = &'a Record>) -> Replay {
    let mut completed: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    for rec in records {
        if let Record::Prog(e) = rec {
            completed.entry(e.index).or_insert_with(|| e.clone());
        }
    }
    Replay { entries: completed.into_values().collect() }
}

/// An open, append-only journal. Appends are serialized through a mutex
/// and fsynced (`sync_data`) one record at a time, so every record the
/// file contains describes a program whose results are durable.
///
/// The first append that fails **poisons** the handle: the file may hold
/// a partial record past the last valid boundary, and appending more
/// would interleave garbage that truncation-on-resume could not separate
/// from real data. Poisoned appends fail fast with a structured error;
/// the batch keeps running (results live in memory and the cache) and the
/// engine counts every refused append.
#[derive(Debug)]
pub struct Journal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// Append serialization lock; `true` once an append has failed.
    poisoned: Mutex<bool>,
}

impl Journal {
    /// Start a fresh journal for run `run` in `dir`, discarding any
    /// previous journal.
    pub fn start(dir: &Path, run: u64) -> std::io::Result<Journal> {
        Journal::start_via(Arc::new(RealFs), dir, run)
    }

    /// [`Journal::start`] against an explicit storage backend.
    pub fn start_via(vfs: Arc<dyn Vfs>, dir: &Path, run: u64) -> std::io::Result<Journal> {
        let path = journal_path(dir);
        vfs.create_sync(&path, header_bytes(run).as_bytes())?;
        Ok(Journal { vfs, path, poisoned: Mutex::new(false) })
    }

    /// Resume the journal for run `run` in `dir`: returns the reopened
    /// journal plus the deterministic [`Replay`] of every complete record
    /// it already holds. A missing journal, a run-digest mismatch, or a
    /// garbage header all fall back to a fresh journal with no entries; a
    /// torn trailing record is truncated away before appending resumes.
    /// Any read error other than `NotFound` (EACCES, EIO, ...) propagates
    /// — a journal that exists but cannot be read must never be silently
    /// destroyed.
    pub fn resume(dir: &Path, run: u64) -> std::io::Result<(Journal, Replay)> {
        Journal::resume_via(Arc::new(RealFs), dir, run)
    }

    /// [`Journal::resume`] against an explicit storage backend.
    pub fn resume_via(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        run: u64,
    ) -> std::io::Result<(Journal, Replay)> {
        let path = journal_path(dir);
        let bytes = match vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
            }
            Err(e) => return Err(e),
        };
        let Some(parsed) = scan(&bytes) else {
            return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
        };
        if parsed.run != run {
            return Ok((Journal::start_via(vfs, dir, run)?, Replay::default()));
        }
        // Truncate the torn tail to the end of the last complete record —
        // or, with no records at all, to the header end `scan` measured.
        let valid_end = parsed.records.last().map_or(parsed.header_end as u64, |(_, e)| *e as u64);
        vfs.truncate_sync(&path, valid_end)?;
        let records: Vec<Record> = parsed.records.into_iter().map(|(r, _)| r).collect();
        Ok((Journal { vfs, path, poisoned: Mutex::new(false) }, replay(&records)))
    }

    /// Append one completed-program record and fsync it. Returns only
    /// after the record is durable. After the first failure the handle is
    /// poisoned and every later append is refused (see [`Journal`]).
    pub fn append(&self, entry: &JournalEntry) -> std::io::Result<()> {
        let bytes = render_record(entry);
        let mut poisoned = lock_recover(&self.poisoned);
        if *poisoned {
            return Err(std::io::Error::other(
                "journal poisoned: an earlier append failed and may have left a partial record",
            ));
        }
        match self.vfs.append_sync(&self.path, &bytes) {
            Ok(()) => Ok(()),
            Err(e) => {
                *poisoned = true;
                Err(e)
            }
        }
    }

    /// Whether an append has failed and the handle refuses further writes.
    pub fn is_poisoned(&self) -> bool {
        *lock_recover(&self.poisoned)
    }
}

/// The journal header line for run `run`.
pub fn header_bytes(run: u64) -> String {
    format!("{MAGIC} {run:016x}\n")
}

/// Why a scan stopped before the end of the file. Resume treats all three
/// identically (truncate to the last good record); `parpat fsck` reports
/// them under distinct diagnostic codes because they mean different
/// things: a torn tail is the expected cost of a crash, a checksum or
/// malformed record is damage to data that was once durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailIssue {
    /// The file ends mid-record: an interrupted append.
    Torn,
    /// A complete record whose FNV checksum does not match its bytes:
    /// bit-rot or in-place tampering.
    Checksum,
    /// A complete frame whose head or payload does not parse.
    Malformed,
}

/// The parsed journal: run digest, byte offset just past the header line,
/// and every complete record with the offset just past it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOut {
    /// Run digest from the header.
    pub run: u64,
    /// Byte offset just past the header line — the truncation point for a
    /// journal with no complete records.
    pub header_end: usize,
    /// Complete records in file order, each with the offset where the next
    /// record starts.
    pub records: Vec<(Record, usize)>,
    /// Why the scan stopped, if it stopped before the end of the file.
    pub tail: Option<TailIssue>,
}

impl ScanOut {
    /// The records without their offsets.
    pub fn into_records(self) -> Vec<Record> {
        self.records.into_iter().map(|(r, _)| r).collect()
    }
}

/// Parse journal bytes. Returns `None` when the header itself is
/// unreadable. Scanning stops — without error — at the first torn,
/// checksum-failing, or malformed record, which is exactly the resume
/// semantics: everything before the damage is trusted, everything after
/// is re-analyzed. Both header generations (v2, v3) and both frame forms
/// are accepted, including mixed in one file — a resumed v2 journal
/// accumulates v3 appends.
pub fn scan(bytes: &[u8]) -> Option<ScanOut> {
    let header_nl = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..header_nl]).ok()?;
    let run_hex = header.strip_prefix(MAGIC).or_else(|| header.strip_prefix(MAGIC_V2))?.trim();
    let run = u64::from_str_radix(run_hex, 16).ok()?;
    let header_end = header_nl + 1;
    let mut pos = header_end;
    let mut records = Vec::new();
    let mut tail = None;
    while pos < bytes.len() {
        match next_record(bytes, pos) {
            Step::Rec(rec, end) => {
                records.push((rec, end));
                pos = end;
            }
            Step::Stop(issue) => {
                tail = Some(issue);
                break;
            }
        }
    }
    Some(ScanOut { run, header_end, records, tail })
}

/// Outcome of parsing one record position.
enum Step {
    /// A good record and the offset just past it.
    Rec(Record, usize),
    /// Scanning must stop here.
    Stop(TailIssue),
}

/// Parse the record starting at `pos`. Accepts the v2 frame
/// (`rec <len>\n`) and the v3 frame (`rec <len> <fnv:016x>\n`, checksum
/// verified over the payload).
fn next_record(bytes: &[u8], pos: usize) -> Step {
    let rest = &bytes[pos..];
    let Some(line_end) = rest.iter().position(|&b| b == b'\n') else {
        return Step::Stop(TailIssue::Torn);
    };
    let Some(frame) =
        std::str::from_utf8(&rest[..line_end]).ok().and_then(|l| l.strip_prefix("rec "))
    else {
        return Step::Stop(TailIssue::Malformed);
    };
    let mut fields = frame.split(' ');
    let Some(len) = fields.next().and_then(|f| f.parse::<usize>().ok()) else {
        return Step::Stop(TailIssue::Malformed);
    };
    let sum = match fields.next() {
        None => None,
        Some(f) if f.len() == 16 => match u64::from_str_radix(f, 16) {
            Ok(s) => Some(s),
            Err(_) => return Step::Stop(TailIssue::Malformed),
        },
        Some(_) => return Step::Stop(TailIssue::Malformed),
    };
    if fields.next().is_some() || len > MAX_RECORD {
        return Step::Stop(TailIssue::Malformed);
    }
    let payload_start = line_end + 1;
    let Some(payload) = rest.get(payload_start..payload_start + len) else {
        return Step::Stop(TailIssue::Torn);
    };
    if sum.is_some_and(|expect| hash_bytes(payload) != expect) {
        return Step::Stop(TailIssue::Checksum);
    }
    let Some(rec) = parse_payload(payload) else {
        return Step::Stop(TailIssue::Malformed);
    };
    Step::Rec(rec, pos + payload_start + len)
}

fn csv(lines: &[u32]) -> String {
    if lines.is_empty() {
        "-".to_owned()
    } else {
        let strs: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        strs.join(",")
    }
}

fn parse_csv(field: &str) -> Option<Vec<u32>> {
    if field == "-" {
        return Some(Vec::new());
    }
    field.split(',').map(|t| t.parse().ok()).collect()
}

/// Serialize one completed-program record into its checksummed,
/// length-prefixed wire form.
pub fn render_record(entry: &JournalEntry) -> Vec<u8> {
    let (head, body) = match &entry.outcome {
        StoredOutcome::Ok { report: r, fully_cached } => {
            let head = format!(
                "prog {} {} {} ok {} {} {} {} {} {} {} {} {} {} {} {}",
                entry.index,
                entry.worker,
                entry.fence,
                u8::from(*fully_cached),
                r.insts,
                r.pipelines,
                r.fusions,
                r.reductions,
                r.geodecomp,
                r.task_regions,
                r.static_doall,
                csv(&r.input_sensitive),
                csv(&r.consistency_errors),
                r.summary.len(),
                r.ranking.len(),
            );
            let mut body = Vec::with_capacity(r.summary.len() + r.ranking.len());
            body.extend_from_slice(r.summary.as_bytes());
            body.extend_from_slice(r.ranking.as_bytes());
            (head, body)
        }
        StoredOutcome::Degraded(d) => {
            let head = format!(
                "prog {} {} {} degraded {} {} {} {} {} {} {} {}",
                entry.index,
                entry.worker,
                entry.fence,
                d.reason.stage.name(),
                d.reason.kind.name(),
                d.loops,
                d.cus,
                d.regions,
                csv(&d.doall_candidates),
                d.reason.detail.len(),
                d.summary.len(),
            );
            let mut body = Vec::with_capacity(d.reason.detail.len() + d.summary.len());
            body.extend_from_slice(d.reason.detail.as_bytes());
            body.extend_from_slice(d.summary.as_bytes());
            (head, body)
        }
        StoredOutcome::Err(e) => {
            let head = format!(
                "prog {} {} {} err {} {} {}",
                entry.index,
                entry.worker,
                entry.fence,
                e.stage.name(),
                e.kind.name(),
                e.detail.len(),
            );
            (head, e.detail.as_bytes().to_vec())
        }
    };
    let mut payload = Vec::with_capacity(head.len() + 1 + body.len());
    payload.extend_from_slice(head.as_bytes());
    payload.push(b'\n');
    payload.extend_from_slice(&body);
    let sum = hash_bytes(&payload);
    let mut out = format!("rec {} {sum:016x}\n", payload.len()).into_bytes();
    out.extend_from_slice(&payload);
    out
}

/// Split `body` at `at`, decoding both halves as UTF-8 strings.
fn split_strings(body: &[u8], at: usize) -> Option<(String, String)> {
    let first = String::from_utf8(body.get(..at)?.to_vec()).ok()?;
    let second = String::from_utf8(body.get(at..)?.to_vec()).ok()?;
    Some((first, second))
}

fn parse_payload(payload: &[u8]) -> Option<Record> {
    let line_end = payload.iter().position(|&b| b == b'\n')?;
    let head = std::str::from_utf8(&payload[..line_end]).ok()?;
    let body = &payload[line_end + 1..];
    let tok: Vec<&str> = head.split(' ').collect();
    match *tok.first()? {
        "claim" | "beat" | "release" => {
            // `claim <idx> <worker> <fence> <lease_ms>`, or `beat`/`release`
            // `<idx> <worker> <fence>`: all-numeric fields and no body.
            let fields = if tok[0] == "claim" { 4 } else { 3 };
            let well_formed = tok.len() == fields + 1
                && body.is_empty()
                && tok[1..].iter().all(|t| t.parse::<u64>().is_ok());
            well_formed.then_some(Record::Legacy)
        }
        "prog" => parse_prog(&tok, body).map(Record::Prog),
        _ => None,
    }
}

fn parse_prog(tok: &[&str], body: &[u8]) -> Option<JournalEntry> {
    let index: usize = tok.get(1)?.parse().ok()?;
    let worker: u64 = tok.get(2)?.parse().ok()?;
    let fence: u64 = tok.get(3)?.parse().ok()?;
    let outcome = match *tok.get(4)? {
        "ok" => {
            if tok.len() != 17 {
                return None;
            }
            let fully_cached = match tok[5] {
                "0" => false,
                "1" => true,
                _ => return None,
            };
            let summary_len: usize = tok[15].parse().ok()?;
            let ranking_len: usize = tok[16].parse().ok()?;
            if summary_len + ranking_len != body.len() {
                return None;
            }
            let (summary, ranking) = split_strings(body, summary_len)?;
            StoredOutcome::Ok {
                report: ProgramReport {
                    summary,
                    ranking,
                    insts: tok[6].parse().ok()?,
                    pipelines: tok[7].parse().ok()?,
                    fusions: tok[8].parse().ok()?,
                    reductions: tok[9].parse().ok()?,
                    geodecomp: tok[10].parse().ok()?,
                    task_regions: tok[11].parse().ok()?,
                    static_doall: tok[12].parse().ok()?,
                    input_sensitive: parse_csv(tok[13])?,
                    consistency_errors: parse_csv(tok[14])?,
                },
                fully_cached,
            }
        }
        "degraded" => {
            if tok.len() != 13 {
                return None;
            }
            let stage = Stage::from_name(tok[5])?;
            let kind = ErrorKind::from_name(tok[6])?;
            let detail_len: usize = tok[11].parse().ok()?;
            let summary_len: usize = tok[12].parse().ok()?;
            if detail_len + summary_len != body.len() {
                return None;
            }
            let (detail, summary) = split_strings(body, detail_len)?;
            StoredOutcome::Degraded(DegradedReport {
                reason: EngineError::new(stage, kind, detail),
                summary,
                loops: tok[7].parse().ok()?,
                cus: tok[8].parse().ok()?,
                regions: tok[9].parse().ok()?,
                doall_candidates: parse_csv(tok[10])?,
            })
        }
        "err" => {
            if tok.len() != 8 {
                return None;
            }
            let stage = Stage::from_name(tok[5])?;
            let kind = ErrorKind::from_name(tok[6])?;
            let detail_len: usize = tok[7].parse().ok()?;
            if detail_len != body.len() {
                return None;
            }
            let detail = String::from_utf8(body.to_vec()).ok()?;
            StoredOutcome::Err(EngineError::new(stage, kind, detail))
        }
        _ => return None,
    };
    Some(JournalEntry { index, worker, fence, outcome })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample_report() -> ProgramReport {
        ProgramReport {
            summary: "line one\nline two\n".to_owned(),
            ranking: "1. pipeline\n".to_owned(),
            insts: 12345,
            pipelines: 1,
            fusions: 2,
            reductions: 3,
            geodecomp: 0,
            task_regions: 4,
            static_doall: 5,
            input_sensitive: vec![7, 11],
            consistency_errors: vec![],
        }
    }

    fn entry(index: usize, worker: u64, fence: u64) -> JournalEntry {
        JournalEntry {
            index,
            worker,
            fence,
            outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: false },
        }
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                index: 0,
                worker: 0,
                fence: 0,
                outcome: StoredOutcome::Ok { report: sample_report(), fully_cached: true },
            },
            JournalEntry {
                index: 2,
                worker: 3,
                fence: 7,
                outcome: StoredOutcome::Degraded(DegradedReport {
                    reason: EngineError::new(Stage::Profile, ErrorKind::Panic, "boom \"x\""),
                    summary: "static only\n".to_owned(),
                    loops: 3,
                    cus: 4,
                    regions: 2,
                    doall_candidates: vec![9],
                }),
            },
            JournalEntry {
                index: 5,
                worker: 0,
                fence: 0,
                outcome: StoredOutcome::Err(EngineError::new(
                    Stage::Parse,
                    ErrorKind::Lang,
                    "syntax error\nat line 2",
                )),
            },
        ]
    }

    /// A v3 frame around a ledger head such as `claim 2 3 7 500`, framed
    /// by hand because the journal no longer writes these records.
    fn legacy_frame(head: &str) -> Vec<u8> {
        let payload = format!("{head}\n");
        let sum = hash_bytes(payload.as_bytes());
        format!("rec {} {sum:016x}\n{payload}", payload.len()).into_bytes()
    }

    /// Re-frame a v3 record as the legacy v2 form (`rec <len>\n`, no
    /// checksum) — how pre-upgrade journals framed every record.
    fn reframe_v2(v3: &[u8]) -> Vec<u8> {
        let nl = v3.iter().position(|&b| b == b'\n').unwrap();
        let frame = std::str::from_utf8(&v3[..nl]).unwrap();
        let len: usize =
            frame.strip_prefix("rec ").unwrap().split(' ').next().unwrap().parse().unwrap();
        let mut out = format!("rec {len}\n").into_bytes();
        out.extend_from_slice(&v3[nl + 1..nl + 1 + len]);
        out
    }

    #[test]
    fn records_round_trip_byte_identically() {
        for e in sample_entries() {
            let bytes = render_record(&e);
            let Step::Rec(parsed, end) = next_record(&bytes, 0) else {
                panic!("rendered record must parse");
            };
            assert_eq!(parsed, Record::Prog(e));
            assert_eq!(end, bytes.len());
        }
    }

    #[test]
    fn legacy_ledger_records_parse_as_inert() {
        for head in ["claim 2 3 7 500", "beat 2 3 7", "release 9 1 8"] {
            let bytes = legacy_frame(head);
            let Step::Rec(parsed, end) = next_record(&bytes, 0) else {
                panic!("`{head}` must parse");
            };
            assert_eq!(parsed, Record::Legacy);
            assert_eq!(end, bytes.len());
        }
        // The old shape checks still hold: a wrong field count or a
        // non-numeric field is damage, not a legacy record.
        for head in ["claim 2 3 7", "beat 2 3 7 500", "release 9 x 8"] {
            assert!(
                matches!(next_record(&legacy_frame(head), 0), Step::Stop(TailIssue::Malformed)),
                "`{head}` must stop the scan"
            );
        }
    }

    #[test]
    fn a_v2_journal_with_v2_frames_stays_readable_and_takes_v3_appends() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Craft the journal exactly as the previous release wrote it:
        // v2 header magic, no frame checksums.
        let mut bytes = format!("{MAGIC_V2} {:016x}\n", 0xfeedu64).into_bytes();
        bytes.extend_from_slice(&reframe_v2(&render_record(&entry(0, 0, 0))));
        bytes.extend_from_slice(&reframe_v2(&render_record(&entry(1, 0, 0))));
        std::fs::write(journal_path(&dir), &bytes).unwrap();

        let (journal, replayed) = Journal::resume(&dir, 0xfeed).unwrap();
        assert_eq!(replayed.entries, vec![entry(0, 0, 0), entry(1, 0, 0)]);
        // New appends land as v3 frames in the same file; the mix scans.
        journal.append(&entry(2, 0, 0)).unwrap();
        drop(journal);
        let parsed = scan(&std::fs::read(journal_path(&dir)).unwrap()).unwrap();
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.tail, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_inside_a_complete_record_stops_the_scan() {
        let mut bytes = header_bytes(5).into_bytes();
        bytes.extend_from_slice(&render_record(&entry(0, 0, 0)));
        let rot_at = bytes.len() - 3; // deep inside the record body
        let tail_start = bytes.len();
        bytes[rot_at] ^= 0x40;
        bytes.extend_from_slice(&render_record(&entry(1, 0, 0)));
        let parsed = scan(&bytes).unwrap();
        assert!(parsed.records.is_empty(), "a checksum-failing record must not replay");
        assert_eq!(parsed.tail, Some(TailIssue::Checksum));
        // The same rot in a v2 frame is invisible to framing — the legacy
        // blind spot this format version exists to close. (The flipped
        // byte lands in the summary body, which carries no other check.)
        let mut legacy = format!("{MAGIC_V2} {:016x}\n", 5u64).into_bytes();
        legacy.extend_from_slice(&reframe_v2(&bytes[header_bytes(5).len()..tail_start]));
        let parsed = scan(&legacy).unwrap();
        assert_eq!(parsed.records.len(), 1, "v2 framing cannot detect body rot");
        std::mem::drop(parsed);
    }

    #[test]
    fn a_failed_append_poisons_the_journal() {
        use crate::vfs::{DiskFault, SimFs};
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/run");
        let journal = Journal::start_via(vfs.clone(), &dir, 0xabc).unwrap();
        journal.append(&entry(0, 0, 0)).unwrap();
        vfs.set_fault(Some(DiskFault::Eio { at: vfs.ops() + 1 }));
        assert!(journal.append(&entry(1, 0, 0)).is_err());
        assert!(journal.is_poisoned());
        // The fault was transient, but the handle stays closed: the file
        // may hold a partial record past the last good boundary.
        let err = journal.append(&entry(2, 0, 0)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Resume still works and replays the durable prefix.
        let (_journal, replayed) = Journal::resume_via(vfs, &dir, 0xabc).unwrap();
        assert_eq!(replayed.entries, vec![entry(0, 0, 0)]);
    }

    #[test]
    fn start_append_resume_round_trips() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 0xfeed).unwrap();
        for e in sample_entries() {
            journal.append(&e).unwrap();
        }
        drop(journal);
        let (_journal, replayed) = Journal::resume(&dir, 0xfeed).unwrap();
        assert_eq!(replayed.entries, sample_entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 7).unwrap();
        let entries: Vec<JournalEntry> = vec![entry(0, 0, 0), entry(1, 0, 0), entry(2, 0, 0)];
        for e in &entries {
            journal.append(e).unwrap();
        }
        drop(journal);
        // Tear the last record in half.
        let path = journal_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = scan(&bytes).unwrap();
        let keep = parsed.records[1].1 + 5; // mid-way into record 3
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let (journal, replayed) = Journal::resume(&dir, 7).unwrap();
        assert_eq!(replayed.entries, entries[..2].to_vec());
        // The torn tail is gone: a fresh append lands on a clean boundary.
        journal.append(&entries[2]).unwrap();
        drop(journal);
        let all = scan(&std::fs::read(&path).unwrap()).unwrap().into_records();
        let progs: Vec<JournalEntry> = replay(&all).entries;
        assert_eq!(progs, entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_truncation_point_is_the_header_end() {
        // A journal with a torn *first* record must truncate to exactly
        // the header scan measured, whatever the header happens to be.
        let dir = std::env::temp_dir().join(format!("parpat-journal-hdr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        let mut bytes = header_bytes(0xabc).into_bytes();
        let header_len = bytes.len() as u64;
        bytes.extend_from_slice(b"rec 999\nprog 0");
        std::fs::write(&path, &bytes).unwrap();
        let (_journal, replayed) = Journal::resume(&dir, 0xabc).unwrap();
        assert!(replayed.entries.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), header_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_journal_propagates_the_error() {
        // `fs::read` on a directory fails with something other than
        // NotFound on every platform (and unlike EACCES, also fails for
        // root): resume must propagate, never destroy the path.
        let dir = std::env::temp_dir().join(format!("parpat-journal-eio-{}", std::process::id()));
        std::fs::create_dir_all(journal_path(&dir)).unwrap();
        let err = Journal::resume(&dir, 1).expect_err("an unreadable journal must propagate");
        assert_ne!(err.kind(), std::io::ErrorKind::NotFound);
        // The journal "file" (our directory) was not destroyed.
        assert!(journal_path(&dir).is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_digest_mismatch_discards_the_journal() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::start(&dir, 1).unwrap();
        journal.append(&sample_entries()[0]).unwrap();
        drop(journal);
        let (_journal, replayed) = Journal::resume(&dir, 2).unwrap();
        assert!(replayed.entries.is_empty(), "a different run must not replay stale records");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_journal_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("parpat-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(journal_path(&dir), b"\x00\xff not a journal at all").unwrap();
        let (journal, replayed) = Journal::resume(&dir, 3).unwrap();
        assert!(replayed.entries.is_empty());
        journal.append(&sample_entries()[0]).unwrap();
        drop(journal);
        let parsed = scan(&std::fs::read(journal_path(&dir)).unwrap()).unwrap();
        assert_eq!(parsed.run, 3);
        assert_eq!(parsed.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_record_length_is_rejected() {
        let mut bytes = header_bytes(9).into_bytes();
        bytes.extend_from_slice(b"rec 99999999999999\nprog");
        let parsed = scan(&bytes).unwrap();
        assert_eq!(parsed.run, 9);
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn replay_keeps_the_first_prog_per_index() {
        let records = vec![
            Record::Legacy,
            Record::Prog(entry(3, 1, 1)),
            Record::Legacy,
            Record::Prog(entry(0, 2, 2)),
            Record::Prog(entry(3, 2, 4)),
        ];
        assert_eq!(replay(&records).entries, vec![entry(0, 2, 2), entry(3, 1, 1)]);
    }

    #[test]
    fn a_ledger_journal_resumes_every_result_and_takes_appends() {
        let vfs = Arc::new(crate::vfs::SimFs::new());
        let dir = PathBuf::from("/run");
        // The shape a two-worker ledger wrote: claims, then fenced results.
        let mut bytes = header_bytes(0xabc).into_bytes();
        bytes.extend_from_slice(&legacy_frame("claim 0 1 1 500"));
        bytes.extend_from_slice(&legacy_frame("claim 1 2 2 500"));
        bytes.extend_from_slice(&legacy_frame("beat 1 2 2"));
        bytes.extend_from_slice(&render_record(&entry(1, 2, 2)));
        bytes.extend_from_slice(&legacy_frame("release 0 1 1"));
        bytes.extend_from_slice(&legacy_frame("claim 0 2 3 500"));
        bytes.extend_from_slice(&render_record(&entry(0, 2, 3)));
        vfs.create_sync(&journal_path(&dir), &bytes).unwrap();
        let (journal, replayed) = Journal::resume_via(vfs.clone(), &dir, 0xabc).unwrap();
        assert_eq!(replayed.entries, vec![entry(0, 2, 3), entry(1, 2, 2)]);
        journal.append(&entry(2, 0, 0)).unwrap();
        let parsed = scan(&vfs.read(&journal_path(&dir)).unwrap()).unwrap();
        assert_eq!(parsed.tail, None);
        assert_eq!(replay(&parsed.into_records()).entries.len(), 3);
    }
}
