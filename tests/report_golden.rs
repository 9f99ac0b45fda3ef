//! Golden snapshot of the `programs` section of
//! `parpat batch apps --cache-dir none --json`.
//!
//! Every field of a program's report (counts, the summary with its loop
//! classes, reductions and pipelines, the static and consistency marks) is
//! a pure function of the bundled sources, so the section is byte-stable;
//! only the `stats` section carries timings, and it is left out. The
//! snapshot holds one program per line so that a drift diffs by program.
//! Any intentional change to a report must regenerate it:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test report_golden
//! ```

use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/batch_apps_programs.json")
}

/// The `programs` array of a batch JSON report, one program per line.
fn programs_section(batch_json: &str) -> String {
    let start = batch_json.find('[').expect("a programs array");
    let end = batch_json.rfind("], \"stats\": ").expect("a stats section after the programs");
    let programs = &batch_json[start + 1..end];
    // Quotes inside the JSON strings are escaped, so `}, {"name": ` only
    // ever separates two programs.
    format!("[\n{}\n]\n", programs.replace("}, {\"name\": ", "},\n{\"name\": "))
}

#[test]
fn batch_apps_programs_match_golden_snapshot() {
    let args: Vec<String> =
        ["batch", "apps", "--cache-dir", "none", "--json"].iter().map(|s| s.to_string()).collect();
    let actual = programs_section(&parpat::cli::run(&args).expect("batch apps runs"));

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &actual).expect("write golden");
        return;
    }

    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file exists — regenerate with UPDATE_GOLDEN=1");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} of tests/golden/batch_apps_programs.json drifted", i + 1);
    }
    assert_eq!(
        actual, expected,
        "batch report drifted from tests/golden/batch_apps_programs.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );

    // Sanity on the snapshot itself: every suite app is present and ok.
    for app in parpat::suite::all_apps() {
        assert!(
            expected.contains(&format!("{{\"name\": \"{}\", \"status\": \"ok\"", app.name)),
            "golden snapshot is missing app {} or it did not analyse",
            app.name
        );
    }
}
