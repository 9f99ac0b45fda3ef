//! N-stage pipeline chains.
//!
//! Section III-A: "If there is a chain dependence of n loops, it gives n
//! pairs of relationships. A pipeline of n stages can be easily implemented
//! by merging the information provided by the tool." This module is that
//! merge: it takes one [`PipelineSpec`](crate::pipeline::PipelineSpec)-like
//! link per adjacent loop pair and runs all stages concurrently, each
//! stage's iteration released by its predecessor's completed prefix.

use crate::pipeline::PrefixTracker;

/// One stage of a pipeline chain.
pub struct ChainStage<'a> {
    /// Iterations of this stage's loop.
    pub iterations: u64,
    /// Regression slope against the *previous* stage (`i_this = a·i_prev + b`);
    /// ignored for the first stage.
    pub a: f64,
    /// Regression intercept against the previous stage.
    pub b: f64,
    /// Whether this stage's iterations are independent (do-all). Parallel
    /// stages run on `threads` workers; sequential stages on one.
    pub doall: bool,
    /// The work of one iteration.
    pub body: Box<dyn Fn(u64) + Sync + 'a>,
}

impl<'a> ChainStage<'a> {
    /// First-stage constructor (no release rule).
    pub fn source(iterations: u64, doall: bool, body: impl Fn(u64) + Sync + 'a) -> Self {
        ChainStage { iterations, a: 1.0, b: 0.0, doall, body: Box::new(body) }
    }

    /// Dependent-stage constructor with the detector's `(a, b)` link.
    pub fn linked(
        iterations: u64,
        a: f64,
        b: f64,
        doall: bool,
        body: impl Fn(u64) + Sync + 'a,
    ) -> Self {
        ChainStage { iterations, a, b, doall, body: Box::new(body) }
    }
}

/// The producer iteration of the previous stage that iteration `j` of a
/// linked stage must wait for (`None` when independent of it).
fn required(a: f64, b: f64, prev_n: u64, j: u64) -> Option<u64> {
    if prev_n == 0 {
        return None;
    }
    if a <= 0.0 {
        return Some(prev_n - 1);
    }
    let needed = (j as f64 - b) / a;
    if needed < 0.0 {
        None
    } else {
        Some((needed.ceil() as u64).min(prev_n - 1))
    }
}

/// Run an n-stage pipeline chain. All stages execute concurrently; stage
/// `k`'s iteration `j` starts once stage `k−1` has completed its required
/// prefix per the `(a, b)` link. `threads_per_stage` bounds the worker
/// count of each do-all stage.
pub fn run_chain(threads_per_stage: usize, stages: Vec<ChainStage<'_>>) {
    if stages.is_empty() {
        return;
    }
    let trackers: Vec<PrefixTracker> =
        stages.iter().map(|s| PrefixTracker::new(s.iterations)).collect();

    std::thread::scope(|scope| {
        for (k, stage) in stages.iter().enumerate() {
            let tracker = &trackers[k];
            let prev =
                if k == 0 { None } else { Some((&trackers[k - 1], stages[k - 1].iterations)) };
            let workers = if stage.doall { threads_per_stage.max(1) } else { 1 };
            let next = std::sync::atomic::AtomicU64::new(0);
            let next = std::sync::Arc::new(next);
            for _ in 0..workers {
                let next = std::sync::Arc::clone(&next);
                let body = &stage.body;
                let (a, b, n) = (stage.a, stage.b, stage.iterations);
                scope.spawn(move || loop {
                    let j = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if j >= n {
                        break;
                    }
                    if let Some((prev_tracker, prev_n)) = prev {
                        if let Some(k) = required(a, b, prev_n, j) {
                            prev_tracker.wait_for(k);
                        }
                    }
                    body(j);
                    tracker.complete(j);
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn three_stage_chain_computes_like_sequential() {
        // a[i] = i; b[i] = a[i] * 2; c[i] = b[i] + 1 — the three-loop chain
        // of the pipeline_chains test, executed as one pipeline.
        let n = 200usize;
        let a: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let b: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let c: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        run_chain(
            2,
            vec![
                ChainStage::source(n as u64, true, |i| {
                    a[i as usize].store(i, Ordering::SeqCst);
                }),
                ChainStage::linked(n as u64, 1.0, 0.0, true, |i| {
                    let v = a[i as usize].load(Ordering::SeqCst);
                    b[i as usize].store(v * 2, Ordering::SeqCst);
                }),
                ChainStage::linked(n as u64, 1.0, 0.0, true, |i| {
                    let v = b[i as usize].load(Ordering::SeqCst);
                    c[i as usize].store(v + 1, Ordering::SeqCst);
                }),
            ],
        );
        for (i, ci) in c.iter().enumerate().take(n) {
            assert_eq!(ci.load(Ordering::SeqCst), (i as u64) * 2 + 1);
        }
    }

    #[test]
    fn sequential_stage_runs_in_order_within_chain() {
        let n = 100u64;
        let produced = AtomicU64::new(0);
        let order_ok = AtomicU64::new(1);
        let last = AtomicU64::new(0);
        run_chain(
            4,
            vec![
                ChainStage::source(n, true, |_| {
                    produced.fetch_add(1, Ordering::SeqCst);
                }),
                ChainStage::linked(n, 1.0, 0.0, false, |j| {
                    let prev = last.swap(j + 1, Ordering::SeqCst);
                    if prev > j {
                        order_ok.store(0, Ordering::SeqCst);
                    }
                    if produced.load(Ordering::SeqCst) < j + 1 {
                        order_ok.store(0, Ordering::SeqCst);
                    }
                }),
            ],
        );
        assert_eq!(order_ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shifted_link_waits_for_offset_producer() {
        // Stage 2 needs producer j+1 (b = −1) — the reg_detect link inside
        // a chain.
        let n = 50u64;
        let produced: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let violations = AtomicU64::new(0);
        run_chain(
            2,
            vec![
                ChainStage::source(n, true, |i| {
                    produced[i as usize].store(1, Ordering::SeqCst);
                }),
                ChainStage::linked(n - 1, 1.0, -1.0, false, |j| {
                    // Requires producer iteration j + 1 complete.
                    if produced[(j + 1) as usize].load(Ordering::SeqCst) == 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                }),
            ],
        );
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_chain_is_fine() {
        run_chain(4, Vec::new());
    }

    #[test]
    fn single_stage_chain_is_a_parallel_for() {
        let n = 64usize;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        run_chain(
            4,
            vec![ChainStage::source(n as u64, true, |i| {
                hits[i as usize].fetch_add(1, Ordering::SeqCst);
            })],
        );
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn required_mirrors_two_stage_rule() {
        assert_eq!(required(1.0, 0.0, 10, 3), Some(3));
        assert_eq!(required(1.0, 2.0, 10, 1), None);
        assert_eq!(required(0.5, 0.0, 10, 3), Some(6));
        assert_eq!(required(0.0, 0.0, 10, 3), Some(9));
        assert_eq!(required(1.0, 0.0, 0, 3), None);
    }
}
