//! The analysis stage graph.
//!
//! `analyze_source` is decomposed into seven stages forming a chain (the
//! static dependence analysis, CU build, and profiling all ride on the
//! lowered IR; detection consumes CUs and the profile, ranking folds in
//! the static verdicts for cross-validation):
//!
//! ```text
//! parse ─ lower ─┬─ cu ──────┬─ detect ─┬─ rank
//!                ├─ profile ─┘          │
//!                └─ static ─────────────┘
//! ```
//!
//! Each stage has a content-addressed cache key derived from its inputs
//! (see `cache` and DESIGN.md, "Engine"), so editing a source reruns only
//! the stages whose inputs actually changed.

/// One stage of the analysis pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// MiniLang source → checked AST.
    Parse,
    /// AST → structured IR.
    Lower,
    /// IR → static dependence verdicts per loop.
    Static,
    /// IR → computational units.
    CuBuild,
    /// One instrumented run: IR → dependence profile + PET.
    Profile,
    /// All five pattern detectors → assembled `Analysis`.
    Detect,
    /// Pattern ranking + static/dynamic cross-validation + report
    /// rendering.
    Rank,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::Parse,
        Stage::Lower,
        Stage::Static,
        Stage::CuBuild,
        Stage::Profile,
        Stage::Detect,
        Stage::Rank,
    ];

    /// Stable lowercase name (used in cache keys, stats, and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Lower => "lower",
            Stage::Static => "static",
            Stage::CuBuild => "cu",
            Stage::Profile => "profile",
            Stage::Detect => "detect",
            Stage::Rank => "rank",
        }
    }

    /// Inverse of [`Stage::name`]: resolve a stable lowercase name back to
    /// the stage (used when replaying journal records).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// `true` for the stages that depend on a dynamic (profiled) run of
    /// the program. A failure confined to these stages still leaves the
    /// static artifacts — AST, IR, CU graph, static verdicts — intact,
    /// which is what lets the engine emit a degraded report instead of a
    /// bare error.
    pub fn is_dynamic(self) -> bool {
        matches!(self, Stage::Profile | Stage::Detect | Stage::Rank)
    }

    /// Index into per-stage arrays (execution order).
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Lower => 1,
            Stage::Static => 2,
            Stage::CuBuild => 3,
            Stage::Profile => 4,
            Stage::Detect => 5,
            Stage::Rank => 6,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn indices_match_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn from_name_round_trips() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_name("warp"), None);
    }

    #[test]
    fn static_stage_is_static() {
        assert!(!Stage::Static.is_dynamic());
        assert!(Stage::Profile.is_dynamic());
    }
}
