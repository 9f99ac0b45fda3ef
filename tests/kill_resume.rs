//! Kill-and-resume against a real process: `parpat batch` SIGKILLed once
//! its journal holds a finished program must `--resume` to the
//! uninterrupted run's output, restoring what it journaled and analyzing
//! only the rest.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use parpat::engine::journal::{journal_path, scan};
use parpat::engine::Record;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-kill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `parpat batch apps --jobs 1 --json` into cache directory `dir`,
/// plus `extra` arguments, and return its stdout.
fn batch(dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_parpat"))
        .args(["batch", "apps", "--jobs", "1", "--json", "--cache-dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("run parpat");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "parpat batch {extra:?} failed:\n{stdout}{stderr}");
    assert!(!stderr.contains("panicked at"), "panic in stderr:\n{stderr}");
    stdout
}

/// The `"programs"` section of the batch JSON. Whether a program's stages
/// all hit the cache depends on how far the killed run got, so the
/// `cached` flag is normalized; every report byte must match.
fn programs(json: &str) -> String {
    let start = json.find("\"programs\"").expect("programs key");
    let end = json.find("\"stats\"").expect("stats key");
    json[start..end].replace("\"cached\": true", "\"cached\": false")
}

fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = json.find(&pat).unwrap_or_else(|| panic!("stat {key} missing"));
    let digits: String = json[at + pat.len()..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("stat value")
}

/// Whether the journal in `dir` holds at least one complete `prog` record.
fn journaled_a_program(dir: &Path) -> bool {
    std::fs::read(journal_path(dir))
        .ok()
        .and_then(|bytes| scan(&bytes))
        .is_some_and(|s| s.records.iter().any(|(r, _)| matches!(r, Record::Prog(_))))
}

#[test]
fn a_sigkilled_batch_resumes_byte_identically() {
    let base = temp_dir("base");
    let want = programs(&batch(&base, &[]));

    let dir = temp_dir("run");
    let mut child = Command::new(env!("CARGO_BIN_EXE_parpat"))
        .args(["batch", "apps", "--jobs", "1", "--json", "--cache-dir"])
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parpat batch");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !journaled_a_program(&dir) {
        assert!(Instant::now() < deadline, "no program was journaled within 120 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL parpat batch");
    let _ = child.wait();

    let resumed = batch(&dir, &["--resume"]);
    let restored = stat(&resumed, "resumed");
    assert!((1..=16).contains(&restored), "the kill must land mid-batch, restored {restored}");
    assert_eq!(programs(&resumed), want, "resume after SIGKILL diverged");
    // The resumed run journaled the rest: a second resume restores all.
    let again = batch(&dir, &["--resume"]);
    assert_eq!(programs(&again), want);
    assert_eq!(stat(&again, "resumed"), 17, "the journal holds the full suite");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}
