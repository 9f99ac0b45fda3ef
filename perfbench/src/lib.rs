//! End-to-end and per-layer benchmark of parpat.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! drives one workload from a single caller with one op in flight, checks
//! every output, and prints the metrics; the last line of standard output
//! is one JSON object. See `README.md` beside this crate for the
//! workloads and metrics.

pub mod gen;
pub mod golden;
pub mod measure;
pub mod replay;
pub mod sys;
pub mod trace;
pub mod vfs;
pub mod workload;

use std::hash::{Hash, Hasher};

/// A 64-bit digest of `s`, for comparing outputs without keeping them.
pub fn hash(s: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}
