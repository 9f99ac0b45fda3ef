//! Cache directories written by older releases keep serving. Those
//! releases kept a disk record for every stage of a program, seven in all;
//! the engine now reads and writes only the parse, lower and rank records
//! and derives every other key. `tests/fixtures/legacy_cache/` holds the
//! records such a release wrote for `parpat batch
//! tests/fixtures/legacy_ledger/programs`: seven per analyzable program,
//! the profile's with its `insts` line. A warm batch over a copy must
//! answer every stage from them, write no record, report exactly what a
//! cold run reports, and leave a directory that scrubs clean. So this
//! fails if a parse, lower or rank key formula drifts, or the record
//! parser does.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use parpat::engine::{AnalysisOutcome, BatchInput, BatchReport, Engine, EngineConfig, Stage};

fn fixture_dir(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel)
}

/// The files directly under `dir` with extension `ext`, sorted.
fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    out.sort();
    out
}

fn inputs() -> Vec<BatchInput> {
    files(&fixture_dir("legacy_ledger/programs"), "ml")
        .iter()
        .map(|p| BatchInput {
            name: p.file_name().expect("file name").to_string_lossy().into_owned(),
            source: std::fs::read_to_string(p).expect("read program"),
        })
        .collect()
}

fn batch(cache_dir: Option<PathBuf>) -> BatchReport {
    let cfg = EngineConfig { cache_dir, ..Default::default() };
    Arc::new(Engine::new(cfg).expect("engine")).batch(inputs(), 1)
}

fn outcome_jsons(batch: &BatchReport) -> Vec<String> {
    batch
        .outcomes
        .iter()
        .map(|o| match &o.outcome {
            AnalysisOutcome::Ok(r) => r.to_json(),
            AnalysisOutcome::Degraded(d) => d.to_json(),
            AnalysisOutcome::Err(e) => e.to_json(),
        })
        .collect()
}

#[test]
fn a_warm_batch_over_an_old_cache_dir_hits_every_stage_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("parpat-legacy-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    for rec in files(&fixture_dir("legacy_cache"), "rec") {
        std::fs::copy(&rec, dir.join(rec.file_name().expect("file name"))).expect("copy");
    }
    let before = files(&dir, "rec");
    assert_eq!(before.len(), 3 * 7, "seven records for each of the three analyzable programs");

    let warm = batch(Some(dir.clone()));
    // Only the parse of `syntax_error.ml` executes (and fails); every
    // stage of the other three programs hits.
    for s in Stage::ALL {
        let st = warm.stats.stage(s);
        let expect = if s == Stage::Parse { (1, 3, 1) } else { (0, 3, 0) };
        assert_eq!(
            (st.executed, st.hits, st.misses),
            expect,
            "(executed, hits, misses) of {s}:\n{}",
            warm.stats.render_text()
        );
    }
    assert_eq!(warm.stats.served_from_cache, 3);
    assert_eq!(files(&dir, "rec"), before, "the warm batch wrote no record");
    assert_eq!(outcome_jsons(&warm), outcome_jsons(&batch(None)), "reports match a cold run's");

    let fsck = Command::new(env!("CARGO_BIN_EXE_parpat"))
        .args(["fsck", &dir.to_string_lossy()])
        .output()
        .expect("run parpat fsck");
    assert!(fsck.status.success(), "{}", String::from_utf8_lossy(&fsck.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}
