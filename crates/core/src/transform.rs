//! Transformation suggestions — the paper's future-work loop optimizations
//! (Section VI: "We plan to support more parallel patterns and loop
//! optimizations such \[as\] peeling and fission").
//!
//! - **Peeling**: a detected multi-loop pipeline with a small non-zero
//!   intercept `b` aligns perfectly after peeling |b| iterations — exactly
//!   how the paper hand-implemented reg_detect (`b = −1`, peel the
//!   producer's first iteration).
//! - **Fission**: a sequential hotspot loop whose body splits into a part
//!   that carries the dependence and a part that does not can be distributed
//!   into two loops, one of them do-all.

use std::collections::BTreeSet;

use parpat_cu::{CuId, CuSet, RegionId};
use parpat_ir::{IrProgram, LoopId};
use parpat_pet::Pet;
use parpat_profile::{DepKind, ProfileData};

use crate::doall::LoopClass;
use crate::pipeline::PipelineReport;

/// A loop-peeling suggestion derived from a pipeline's intercept.
#[derive(Debug, Clone, PartialEq)]
pub struct PeelReport {
    /// The pipeline's producer loop.
    pub x: LoopId,
    /// The pipeline's consumer loop.
    pub y: LoopId,
    /// Which loop to peel and how many leading iterations.
    pub peel: PeelSite,
    /// Human-readable rationale.
    pub rationale: String,
}

/// Where the peel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeelSite {
    /// Peel the first `n` iterations of the producer: no consumer iteration
    /// depends on them (`b < 0`).
    Producer {
        /// Iterations to peel.
        n: u64,
    },
    /// Peel the first `n` iterations of the consumer: they depend on no
    /// producer iteration (`b > 0`) and can start immediately.
    Consumer {
        /// Iterations to peel.
        n: u64,
    },
}

/// Suggest peeling for pipelines whose intercept is a small non-zero
/// integer (|b| ≤ `max_peel`), which restores one-to-one alignment.
pub fn suggest_peeling(pipelines: &[PipelineReport], max_peel: u64) -> Vec<PeelReport> {
    let mut out = Vec::new();
    for p in pipelines {
        if p.b.abs() < 0.5 {
            continue; // already aligned
        }
        let rounded = p.b.round();
        if (p.b - rounded).abs() > 0.05 {
            continue; // not an integral shift
        }
        let n = rounded.abs() as u64;
        if n == 0 || n > max_peel {
            continue;
        }
        let (peel, rationale) = if rounded < 0.0 {
            (
                PeelSite::Producer { n },
                format!(
                    "no iteration of the consumer (line {}) depends on the first {n} iteration(s) of the producer (line {}); peel them so the remaining iterations align one-to-one",
                    p.y_line, p.x_line
                ),
            )
        } else {
            (
                PeelSite::Consumer { n },
                format!(
                    "the first {n} iteration(s) of the consumer (line {}) depend on no producer iteration; peel them to start before the producer (line {})",
                    p.y_line, p.x_line
                ),
            )
        };
        out.push(PeelReport { x: p.x, y: p.y, peel, rationale });
    }
    out
}

/// A loop-fission (distribution) suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct FissionReport {
    /// The loop to distribute.
    pub l: LoopId,
    /// Source line of the loop.
    pub line: u32,
    /// CUs that carry the loop's dependence — they stay in a sequential
    /// loop.
    pub sequential_cus: Vec<CuId>,
    /// CUs free of carried dependences — they form a do-all loop.
    pub parallel_cus: Vec<CuId>,
    /// Whether the do-all loop must run *before* the sequential one
    /// (otherwise after), derived from the direction of the dependences
    /// between the two groups.
    pub parallel_first: bool,
}

/// Suggest fission for sequential hotspot loops whose carried dependences
/// touch only a strict subset of the loop body's CUs, provided all
/// intra-iteration dependences between the two groups point one way (so the
/// distributed loops have a valid order).
pub fn suggest_fission(
    prog: &IrProgram,
    profile: &ProfileData,
    pet: &Pet,
    cus: &CuSet,
    classes: &std::collections::HashMap<LoopId, LoopClass>,
    hotspot_threshold: f64,
) -> Vec<FissionReport> {
    let mut out = Vec::new();
    let mut loops: Vec<LoopId> =
        classes.iter().filter(|(_, c)| **c == LoopClass::Sequential).map(|(l, _)| *l).collect();
    loops.sort_unstable();

    for l in loops {
        // Hotspots only, like every other detector.
        let hot = pet.loop_node(l).map(|n| pet.inst_share(n) >= hotspot_threshold).unwrap_or(false);
        if !hot {
            continue;
        }
        let region = RegionId::Loop(l);
        let body: Vec<CuId> = cus.region_cus(region).to_vec();
        if body.len() < 2 {
            continue;
        }
        // CUs touched by dependences carried by this loop.
        let mut tainted: BTreeSet<CuId> = BTreeSet::new();
        for d in profile.carried_raw(l) {
            for inst in [d.src, d.sink] {
                if let Some(c) = cus.cu_of_inst(region, inst) {
                    tainted.insert(c);
                }
            }
        }
        if tainted.is_empty() || tainted.len() == body.len() {
            continue; // nothing carried maps here, or everything does
        }
        let parallel: Vec<CuId> = body.iter().copied().filter(|c| !tainted.contains(c)).collect();
        let sequential: Vec<CuId> = body.iter().copied().filter(|c| tainted.contains(c)).collect();

        // Direction of intra-region dependences between the groups.
        let mut par_to_seq = false;
        let mut seq_to_par = false;
        for &(src, sink, kind) in &profile.region_deps {
            if kind != DepKind::Raw {
                continue;
            }
            let (Some(a), Some(b)) = (cus.cu_of_inst(region, src), cus.cu_of_inst(region, sink))
            else {
                continue;
            };
            match (tainted.contains(&a), tainted.contains(&b)) {
                (false, true) => par_to_seq = true,
                (true, false) => seq_to_par = true,
                _ => {}
            }
        }
        if par_to_seq && seq_to_par {
            continue; // dependences flow both ways: no valid distribution
        }

        out.push(FissionReport {
            l,
            line: prog.loops[l as usize].line,
            sequential_cus: sequential,
            parallel_cus: parallel,
            parallel_first: !seq_to_par,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::analyze::{analyze_source, AnalysisConfig};

    #[test]
    fn reg_detect_shape_suggests_producer_peel() {
        let a = analyze_source(
            "global mean[64];
global path[64];
fn main() {
    for i in 0..63 { mean[i] = i * 2; }
    for i in 1..63 { path[i] = path[i - 1] + mean[i]; }
}",
            &AnalysisConfig::default(),
        )
        .unwrap();
        let peels = suggest_peeling(&a.pipelines, 8);
        assert_eq!(peels.len(), 1, "{peels:?}");
        assert_eq!(peels[0].peel, PeelSite::Producer { n: 1 });
        assert!(peels[0].rationale.contains("peel"));
    }

    #[test]
    fn consumer_head_start_suggests_consumer_peel() {
        // The consumer's first 4 iterations read data produced before the
        // loops (b = +4 in iteration space).
        let a = analyze_source(
            "global src[64];
global dst[68];
fn main() {
    for i in 0..64 { src[i] = i; }
    for j in 0..68 {
        if j >= 4 {
            dst[j] = src[j - 4] * 2;
        } else {
            dst[j] = j;
        }
    }
}",
            &AnalysisConfig::default(),
        )
        .unwrap();
        let peels = suggest_peeling(&a.pipelines, 8);
        assert!(
            peels.iter().any(|p| p.peel == PeelSite::Consumer { n: 4 }),
            "{:?} / {:?}",
            a.pipelines,
            peels
        );
    }

    #[test]
    fn aligned_pipeline_needs_no_peel() {
        let a = analyze_source(
            "global a[64];
global b[64];
fn main() {
    for i in 0..64 { a[i] = i; }
    for j in 0..64 { b[j] = a[j]; }
}",
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert!(suggest_peeling(&a.pipelines, 8).is_empty());
    }

    fn fissions(src: &str) -> Vec<FissionReport> {
        let a = analyze_source(src, &AnalysisConfig::default()).unwrap();
        suggest_fission(&a.ir, &a.profile, &a.pet, &a.cus, &a.loop_classes, 0.1)
    }

    #[test]
    fn mixed_loop_splits_into_doall_and_sequential() {
        // One statement is a prefix chain (sequential), the other is an
        // independent element-wise update (parallel); the parallel part
        // reads nothing from the chain.
        let src = "global acc[64];
global out[64];
global w[64];
fn main() {
    for i in 1..64 {
        acc[i] = acc[i - 1] + w[i];
        out[i] = w[i] * 3 + 1;
    }
}";
        let f = fissions(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].sequential_cus.len(), 1);
        assert_eq!(f[0].parallel_cus.len(), 1);
    }

    #[test]
    fn fully_sequential_loop_is_not_split() {
        let src = "global acc[64];
fn main() {
    for i in 1..64 {
        acc[i] = acc[i - 1] * 2;
    }
}";
        assert!(fissions(src).is_empty());
    }

    #[test]
    fn parallel_part_ordering_respects_dependence_direction() {
        // The parallel statement CONSUMES the chain's value of this
        // iteration → the sequential loop must run first.
        let src = "global acc[64];
global out[64];
fn main() {
    for i in 1..64 {
        acc[i] = acc[i - 1] + 1;
        out[i] = acc[i] * 2;
    }
}";
        let f = fissions(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(!f[0].parallel_first, "{f:?}");
    }

    #[test]
    fn bidirectional_coupling_blocks_fission() {
        // The "parallel" statement feeds the chain within the same
        // iteration AND reads the chain — both directions → no suggestion.
        let src = "global acc[64];
global out[64];
global w[64];
fn main() {
    for i in 1..64 {
        out[i] = acc[i - 1] + w[i];
        acc[i] = out[i] + acc[i - 1];
    }
}";
        let f = fissions(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn doall_loops_are_left_alone() {
        let src = "global a[64];
global b[64];
fn main() {
    for i in 0..64 {
        a[i] = i;
        b[i] = i * 2;
    }
}";
        assert!(fissions(src).is_empty());
    }
}
