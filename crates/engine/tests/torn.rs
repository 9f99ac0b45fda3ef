//! Torn-write property test: a journal truncated at *every* byte position
//! must scan without panicking to exactly the complete-record prefix, and
//! `Journal::resume` on the truncated file must replay that prefix and
//! repair the file to its last complete record.

use std::path::PathBuf;

use parpat_engine::digest::hash_bytes;
use parpat_engine::journal::{self, header_bytes, render_record, replay, scan};
use parpat_engine::{
    DegradedReport, EngineError, ErrorKind, Journal, JournalEntry, ProgramReport, Record, Stage,
    StoredOutcome,
};

const RUN: u64 = 0xfeed_beef_cafe_0042;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn report(insts: u64) -> ProgramReport {
    ProgramReport {
        summary: "loop L0: do-all\nloop L1: reduction\n".to_owned(),
        ranking: "1. geometric decomposition\n".to_owned(),
        insts,
        pipelines: 1,
        fusions: 0,
        reductions: 2,
        geodecomp: 1,
        task_regions: 0,
        static_doall: 3,
        input_sensitive: vec![1],
        consistency_errors: vec![],
    }
}

/// A program record as the journal writes it.
fn prog(entry: JournalEntry) -> (Record, Vec<u8>) {
    let bytes = render_record(&entry);
    (Record::Prog(entry), bytes)
}

/// A `claim`/`beat`/`release` record of the retired multi-process ledger,
/// framed by hand: the journal still reads these but no longer writes them.
fn legacy(head: &str) -> (Record, Vec<u8>) {
    let payload = format!("{head}\n");
    let sum = hash_bytes(payload.as_bytes());
    (Record::Legacy, format!("rec {} {sum:016x}\n{payload}", payload.len()).into_bytes())
}

/// A journal exercising every outcome kind, the legacy ledger records a
/// multi-process batch left between them, fenced and unfenced entries,
/// multi-line bodies with embedded quotes, and empty-body records.
fn sample_records() -> Vec<(Record, Vec<u8>)> {
    vec![
        prog(JournalEntry {
            index: 0,
            worker: 0,
            fence: 0,
            outcome: StoredOutcome::Ok { report: report(100), fully_cached: false },
        }),
        legacy("claim 1 2 1 500"),
        legacy("beat 1 2 1"),
        prog(JournalEntry {
            index: 1,
            worker: 2,
            fence: 1,
            outcome: StoredOutcome::Degraded(DegradedReport {
                reason: EngineError::new(
                    Stage::Profile,
                    ErrorKind::Panic,
                    "boom \"quoted\"\nline2",
                ),
                summary: "static only\n".to_owned(),
                loops: 2,
                cus: 3,
                regions: 1,
                doall_candidates: vec![4, 5],
            }),
        }),
        legacy("claim 2 3 2 250"),
        legacy("release 2 3 2"),
        legacy("claim 2 2 3 250"),
        prog(JournalEntry {
            index: 2,
            worker: 2,
            fence: 3,
            outcome: StoredOutcome::Err(EngineError::new(
                Stage::Parse,
                ErrorKind::Lang,
                "syntax error\nat line 7",
            )),
        }),
    ]
}

/// The sample's records and the journal bytes holding them.
fn sample_journal() -> (Vec<Record>, Vec<u8>) {
    let mut bytes = header_bytes(RUN).into_bytes();
    let mut records = Vec::new();
    for (rec, framed) in sample_records() {
        records.push(rec);
        bytes.extend_from_slice(&framed);
    }
    (records, bytes)
}

#[test]
fn scan_of_every_prefix_yields_exactly_the_complete_records() {
    let (records, bytes) = sample_journal();
    let full = scan(&bytes).expect("intact journal parses");
    assert_eq!(full.records.len(), records.len());
    let header_end = full.header_end;
    // End offset of each complete record, aligned with `records`.
    let ends: Vec<usize> = full.records.iter().map(|(_, e)| *e).collect();

    for cut in 0..=bytes.len() {
        let parsed = scan(&bytes[..cut]);
        if cut < header_end {
            assert!(parsed.is_none(), "cut {cut} inside the header must not parse");
            continue;
        }
        let parsed = parsed.unwrap_or_else(|| panic!("cut {cut} past the header must parse"));
        assert_eq!(parsed.run, RUN);
        let expect = ends.iter().filter(|e| **e <= cut).count();
        assert_eq!(parsed.records.len(), expect, "cut {cut}: complete-record prefix only");
        for (k, (rec, _)) in parsed.records.iter().enumerate() {
            assert_eq!(rec, &records[k], "cut {cut}: record {k} replays verbatim");
        }
    }
}

#[test]
fn resume_at_every_cut_replays_the_prefix_and_repairs_the_file() {
    let (records, bytes) = sample_journal();
    let full = scan(&bytes).expect("intact journal parses");
    let header_end = full.header_end;
    let ends: Vec<usize> = full.records.iter().map(|(_, e)| *e).collect();
    let full_replay = replay(records.iter());

    let dir = temp_dir("resume");
    let path = journal::journal_path(&dir);
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated journal");
        let (_journal, state) = Journal::resume(&dir, RUN).expect("resume never fails on a cut");
        let kept = ends.iter().filter(|e| **e <= cut).count();
        let expect = replay(records[..kept].iter());
        assert_eq!(state.entries, expect.entries, "cut {cut}: prefix entries replayed");

        // The file was repaired: header plus the complete records, with the
        // torn tail truncated away.
        let repaired = std::fs::metadata(&path).expect("journal exists").len() as usize;
        let expect_len = if kept == 0 { header_end } else { ends[kept - 1] };
        assert_eq!(repaired, expect_len, "cut {cut}: torn tail truncated");
    }
    // Sanity: the intact journal replays everything.
    std::fs::write(&path, &bytes).expect("write full journal");
    let (_journal, state) = Journal::resume(&dir, RUN).expect("resume");
    assert_eq!(state.entries, full_replay.entries);
    let _ = std::fs::remove_dir_all(&dir);
}
