//! Journals left by the retired multi-process ledger (`parpat batch
//! --workers N` in older releases) must keep resuming. Each holds `claim`
//! records and `prog` records stamped with a worker and a fencing token.
//! `tests/fixtures/legacy_ledger/` keeps the v3 journal that ledger wrote
//! for `batch tests/fixtures/legacy_ledger/programs --workers 2`, and the
//! same records in v2 framing. Each must resume every program without
//! re-analyzing one, and must scrub clean but for one F010 info finding.

use std::path::{Path, PathBuf};
use std::process::Command;

use parpat::engine::journal::scan;
use parpat::engine::Record;

/// The batch target exactly as the ledger run named it: input names are
/// part of the run digest, so resuming needs the same spelling.
const PROGRAMS: &str = "tests/fixtures/legacy_ledger/programs";
const FIXTURES: [&str; 2] = ["journal-v3.wal", "journal-v2.wal"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_ledger").join(name)
}

/// A fresh cache directory, private to test `tag`, holding a copy of
/// journal fixture `name`.
fn run_dir(tag: &str, name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("parpat-legacy-{tag}-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(fixture(name), dir.join("journal.wal")).expect("copy the fixture");
    dir
}

/// Run the binary from the repository root; returns whether it exited 0,
/// and its stdout followed by its stderr.
fn parpat(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_parpat"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run parpat");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (out.status.success(), stdout + &String::from_utf8_lossy(&out.stderr))
}

/// Counter `key` of the batch JSON's `stats` section.
fn stat(json: &str, key: &str) -> u64 {
    let json = &json[json.find("\"stats\"").expect("stats key")..];
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("stat {key} missing in {json}"));
    let digits: String = json[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("stat value")
}

#[test]
fn the_fixtures_hold_the_same_ledger_records() {
    let v3 = scan(&std::fs::read(fixture(FIXTURES[0])).expect("v3")).expect("v3 header");
    let v2 = scan(&std::fs::read(fixture(FIXTURES[1])).expect("v2")).expect("v2 header");
    assert_eq!((v3.tail, v2.tail), (None, None), "both fixtures scan to their end");
    assert_eq!(v3.run, v2.run);
    let records = v3.into_records();
    assert_eq!(records, v2.into_records());
    let claims = records.iter().filter(|r| matches!(r, Record::Legacy)).count();
    let fenced = records.iter().filter(|r| matches!(r, Record::Prog(e) if e.fence > 0)).count();
    assert_eq!((claims, fenced), (4, 4), "one claim and one fenced result per program");
}

#[test]
fn a_ledger_journal_resumes_every_program() {
    for name in FIXTURES {
        let dir = run_dir("resume", name);
        let dir_s = dir.to_str().expect("utf-8 path");
        let (ok, out) = parpat(&["batch", PROGRAMS, "--resume", "--json", "--cache-dir", dir_s]);
        assert!(ok, "{name}: {out}");
        assert_eq!(stat(&out, "programs"), 4, "{name}");
        assert_eq!(stat(&out, "resumed"), 4, "{name}: every program is restored");
        assert_eq!(out.matches("\"executed\": 0").count(), 7, "{name}: no stage ran: {out}");
        assert!(out.contains("parse error at line 2"), "{name}: the err record restores");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsck_reports_ledger_records_as_one_info_finding() {
    for name in FIXTURES {
        let dir = run_dir("fsck", name);
        let (ok, out) = parpat(&["fsck", dir.to_str().expect("utf-8 path")]);
        assert!(ok, "{name}: fsck must exit 0:\n{out}");
        assert!(out.contains("0 error(s), 0 warning(s), 1 info"), "{name}: {out}");
        assert_eq!(out.matches("F010").count(), 1, "{name}: {out}");
        assert!(out.contains("4 legacy ledger record(s)"), "{name}: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
