//! `parpat fsck` acceptance over the real filesystem: a genuine batch
//! run, every class of seedable corruption injected into its run
//! directory, 100% detection under stable codes, and `--repair`
//! restoring a directory that a resumed batch completes byte-identically.

use std::path::PathBuf;

use parpat::cli::run;
use parpat::engine::{journal, BatchInput, Engine, EngineConfig};
use std::sync::Arc;

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_owned()).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parpat-fsck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn inputs() -> Vec<BatchInput> {
    parpat::suite::all_apps()
        .iter()
        .take(4)
        .map(|a| BatchInput { name: a.name.to_owned(), source: a.model.to_owned() })
        .collect()
}

fn engine(dir: &std::path::Path, resume: bool) -> Arc<Engine> {
    let cfg = EngineConfig { cache_dir: Some(dir.to_path_buf()), resume, ..Default::default() };
    Arc::new(Engine::new(cfg).expect("engine"))
}

fn outcome_jsons(batch: &parpat::engine::BatchReport) -> Vec<String> {
    batch
        .outcomes
        .iter()
        .map(|o| match &o.outcome {
            parpat::engine::AnalysisOutcome::Ok(r) => r.to_json(),
            parpat::engine::AnalysisOutcome::Degraded(d) => d.to_json(),
            parpat::engine::AnalysisOutcome::Err(e) => e.to_json(),
        })
        .collect()
}

#[test]
fn fsck_detects_every_seeded_corruption_and_repair_restores_resume() {
    let dir = temp_dir("golden");
    let dir_s = dir.to_string_lossy().into_owned();
    let baseline = engine(&dir, false).batch(inputs(), 1);
    let expect = outcome_jsons(&baseline);

    // A fresh run directory scrubs clean.
    let out = run(&args(&["fsck", &dir_s])).expect("clean dir passes");
    assert!(out.contains("clean"), "{out}");

    // Seed one corruption of every class fsck covers on disk:
    // 1. bit-rot inside the last journal record (F003);
    let wal = journal::journal_path(&dir);
    let mut bytes = std::fs::read(&wal).expect("journal");
    let n = bytes.len();
    bytes[n - 2] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("rot journal");
    // 2. bit-rot inside a cache record body (F021);
    let rec = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "rec"))
        .expect("at least one cache record");
    let mut rbytes = std::fs::read(&rec).expect("rec");
    let rn = rbytes.len();
    rbytes[rn - 2] ^= 0x01;
    std::fs::write(&rec, &rbytes).expect("rot rec");
    // 3. a truncated (malformed) cache record (F020);
    let rec2 = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "rec") && *p != rec)
        .expect("a second cache record");
    std::fs::write(&rec2, b"parpat-rec-v2\ngarbage").expect("truncate rec");
    // 4. an orphaned temp (F022).
    std::fs::write(dir.join("00000000000000ff.tmp.1.2"), b"partial").expect("tmp");

    // Detection: all four, each under its stable code, exit status 1
    // (errors present).
    let report = run(&args(&["fsck", &dir_s])).expect_err("corrupt dir must fail the scrub");
    for code in ["F003", "F021", "F020", "F022"] {
        assert!(report.contains(code), "missing {code} in:\n{report}");
    }

    // Repair: quarantine + truncate-to-last-good, then a clean scrub.
    let out = run(&args(&["fsck", &dir_s, "--repair"])).expect("repair clears the errors");
    assert!(out.contains("repaired"), "{out}");
    let out = run(&args(&["fsck", &dir_s])).expect("repaired dir passes");
    assert!(out.contains("clean"), "{out}");
    // The damaged journal tail was preserved, not destroyed.
    assert!(dir.join("journal.wal.tail.corrupt").exists());

    // And the repaired directory *resumes*: the batch completes with
    // outcomes byte-identical to the uninterrupted run, restoring the
    // journal's undamaged prefix and re-analyzing the rest.
    let resumed = engine(&dir, true).batch(inputs(), 1);
    assert_eq!(outcome_jsons(&resumed), expect, "repair must leave a resumable run dir");
    assert!(resumed.stats.resumed > 0, "the undamaged journal prefix is restored");
    let _ = std::fs::remove_dir_all(&dir);
}
