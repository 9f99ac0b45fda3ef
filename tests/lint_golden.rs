//! Golden snapshot of `parpat lint apps --json` over the full suite.
//!
//! The static diagnostics are pure functions of the bundled sources, so
//! their JSON rendering is byte-stable. Any intentional change to the
//! diagnostic codes, messages, or verdicts must regenerate the snapshot:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test lint_golden
//! ```
//!
//! The same suite also bounds lint's cost: 50 ms per program on average.

use std::path::PathBuf;
use std::time::{Duration, Instant};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lint_apps.json")
}

#[test]
fn lint_apps_json_matches_golden_snapshot() {
    let args = vec!["lint".to_owned(), "apps".to_owned(), "--json".to_owned()];
    let actual = parpat::cli::run(&args).expect("lint apps runs");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &actual).expect("write golden");
        return;
    }

    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file exists — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        actual, expected,
        "lint output drifted from tests/golden/lint_apps.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );

    // Sanity on the snapshot itself: every suite app is present.
    for app in parpat::suite::all_apps() {
        assert!(
            expected.contains(&format!("\"name\": \"{}\"", app.name)),
            "golden snapshot is missing app {}",
            app.name
        );
    }
}

#[test]
fn suite_lint_has_no_language_errors() {
    // The bundled apps must all be clean MiniLang: only P-codes (dependence
    // verdicts), never L-codes (lex/parse/sema failures).
    for app in parpat::suite::all_apps() {
        for d in parpat::statics::lint_source(app.model) {
            assert!(
                !d.code.id().starts_with('L'),
                "{}: unexpected language diagnostic {}",
                app.name,
                d.render()
            );
        }
    }
}

#[test]
fn suite_lint_averages_under_50_ms_per_program() {
    // Lint is what an editor or a CI hook runs on every save, end to end:
    // parse, lower, SSA passes, dependence tests and diagnostics.
    let apps = parpat::suite::all_apps();
    let start = Instant::now();
    let diags: usize = apps.iter().map(|app| parpat::statics::lint_source(app.model).len()).sum();
    let per_program = start.elapsed() / apps.len() as u32;
    assert!(diags > 0, "the suite produces diagnostics");
    assert!(
        per_program <= Duration::from_millis(50),
        "linting a suite program averages {per_program:?}, over 50 ms"
    );
}
