//! The timed phase: ops grouped into equal-work windows, and the
//! end-to-end metrics computed from them.
//!
//! A window holds whole rounds of the op mix; the time between windows
//! (drawing inputs, checking outputs) is not timed.
//!
//! Latency percentiles come from the ops of the faster half of the
//! windows. The shared host deschedules the process for a millisecond or
//! more many times a second; a window it hit runs slower. Where ops take
//! under a millisecond, about 1% of them carry such a stall, so over every
//! op the p99 lands on the stalls and moves with the host's load (lint's
//! between 1.24 and 1.92 ms over ten runs). Every window holds the same
//! work, so taking half of them by speed keeps the op mix. A percentile
//! must also sit inside a block of similar latencies (one app's ops, or
//! one request kind): on the edge between two blocks of different cost it
//! would jump between them from run to run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::sys;

/// Fewest ops the percentiles may come from: the p99 then has at least
/// ten samples beyond it.
pub const MIN_OPS: usize = 1000;

/// Fewest ops a timed phase may hold: the faster half of its windows then
/// holds at least [`MIN_OPS`].
pub const MIN_TIMED_OPS: usize = 2 * MIN_OPS;

/// Adjacent latency blocks whose medians differ by more than this factor
/// are separated by a gap a percentile must not sit on.
const GAP: f64 = 1.25;

/// One timed op, kept small: the phase holds tens of thousands of them,
/// and their memory counts in `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time of the public call, in nanoseconds (saturating).
    latency_ns: u32,
    /// Index into [`Timed::blocks`]: an app, or a request kind.
    block: u16,
}

impl Sample {
    fn latency(&self) -> Duration {
        Duration::from_nanos(u64::from(self.latency_ns))
    }
}

/// A closed window of equal work.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// The window's ops, as a range of [`Timed::samples`].
    first_op: usize,
    end_op: usize,
    wall: Duration,
    cpu: Duration,
    programs: u64,
}

/// The record of a timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Every op, in order.
    samples: Vec<Sample>,
    /// Block names, indexed by [`Sample::block`].
    blocks: Vec<&'static str>,
    windows: Vec<Window>,
    open: Option<(usize, Instant, Duration, u64)>,
    /// Programs completed across the phase.
    pub programs: u64,
    /// Ops that failed (error, degraded, mismatch, socket error).
    pub failed: u64,
}

impl Timed {
    /// Open a window; windows must hold equal work (whole rounds).
    pub fn open_window(&mut self) {
        self.open = Some((self.samples.len(), Instant::now(), sys::process_cpu(), self.programs));
    }

    /// Close the open window.
    pub fn close_window(&mut self) {
        let (first_op, t, cpu, programs) = self.open.take().expect("a window is open");
        self.windows.push(Window {
            first_op,
            end_op: self.samples.len(),
            wall: t.elapsed(),
            cpu: sys::process_cpu() - cpu,
            programs: self.programs - programs,
        });
    }

    /// Time one op of `programs` programs. Its output is checked after
    /// the window closes; failures are added to [`Timed::failed`].
    pub fn op<T>(&mut self, block: &'static str, programs: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let latency_ns = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let block = match self.blocks.iter().position(|b| *b == block) {
            Some(i) => i,
            None => {
                self.blocks.push(block);
                self.blocks.len() - 1
            }
        };
        let block = u16::try_from(block).expect("fewer than 65536 blocks");
        self.samples.push(Sample { latency_ns, block });
        self.programs += programs;
        out
    }

    /// Ops timed so far.
    pub fn ops(&self) -> usize {
        self.samples.len()
    }

    /// Programs completed per second of timed wall time.
    pub fn programs_per_s(&self) -> f64 {
        let wall: Duration = self.windows.iter().map(|w| w.wall).sum();
        self.programs_in_windows() as f64 / wall.as_secs_f64()
    }

    /// Process CPU milliseconds, all threads, per program over the timed
    /// phase.
    pub fn cpu_ms_per_program(&self) -> f64 {
        let cpu: Duration = self.windows.iter().map(|w| w.cpu).sum();
        cpu.as_secs_f64() * 1e3 / self.programs_in_windows() as f64
    }

    fn programs_in_windows(&self) -> u64 {
        self.windows.iter().map(|w| w.programs).sum()
    }

    /// The ops of the faster half of the windows, by programs per second.
    fn fast_samples(&self) -> Vec<Sample> {
        let mut w = self.windows.clone();
        let speed = |w: &Window| w.programs as f64 / w.wall.as_secs_f64();
        w.sort_by(|a, b| speed(b).total_cmp(&speed(a)));
        w.truncate(w.len().div_ceil(2));
        w.iter().flat_map(|w| self.samples[w.first_op..w.end_op].iter().copied()).collect()
    }

    /// Latency percentile `q` (0..1) over the ops of the faster half of the
    /// windows, in milliseconds. Fails with fewer than [`MIN_OPS`] such ops,
    /// or when the percentile lies on the edge between two latency blocks.
    pub fn percentile_ms(&self, q: f64) -> Result<f64, String> {
        let fast = self.fast_samples();
        let n = fast.len();
        if n < MIN_OPS {
            return Err(format!("only {n} ops in the faster windows; percentiles need {MIN_OPS}"));
        }
        check_inside_block(&self.blocks_of(&fast), n, q)?;
        let mut l: Vec<Duration> = fast.iter().map(Sample::latency).collect();
        l.sort();
        Ok(l[rank(q, n)].as_secs_f64() * 1e3)
    }

    /// The blocks of the faster windows' ops as `(block, ops, median ms)`,
    /// cheapest first.
    pub fn blocks(&self) -> Vec<(&'static str, usize, f64)> {
        self.blocks_of(&self.fast_samples())
    }

    fn blocks_of(&self, samples: &[Sample]) -> Vec<(&'static str, usize, f64)> {
        let mut by_block: BTreeMap<u16, Vec<Duration>> = BTreeMap::new();
        for s in samples {
            by_block.entry(s.block).or_default().push(s.latency());
        }
        let mut blocks: Vec<(&'static str, usize, f64)> = by_block
            .into_iter()
            .map(|(b, mut l)| {
                l.sort();
                (self.blocks[usize::from(b)], l.len(), l[l.len() / 2].as_secs_f64() * 1e3)
            })
            .collect();
        blocks.sort_by(|a, b| a.2.total_cmp(&b.2));
        blocks
    }
}

/// Zero-based rank of percentile `q` among `n` sorted values.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Lay the blocks end to end, cheapest first; the rank of percentile `q`
/// must not lie within half a percent of the ops of an edge between two
/// blocks whose medians differ by more than [`GAP`].
fn check_inside_block(blocks: &[(&str, usize, f64)], n: usize, q: f64) -> Result<(), String> {
    let r = rank(q, n);
    let margin = (n / 200).max(2);
    let mut edge = 0;
    for pair in blocks.windows(2) {
        edge += pair[0].1;
        let ((lo, _, lo_ms), (hi, _, hi_ms)) = (pair[0], pair[1]);
        if r.abs_diff(edge) <= margin && hi_ms > GAP * lo_ms {
            return Err(format!(
                "p{} (rank {r} of {n}) lies on the edge between the `{lo}` block \
                 (median {lo_ms:.3} ms) and the `{hi}` block (median {hi_ms:.3} ms)",
                q * 100.0
            ));
        }
    }
    Ok(())
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of one-op windows with the given latencies and blocks, all
    /// windows equally fast.
    fn timed(ops: &[(f64, &'static str)]) -> Timed {
        let mut t = Timed::default();
        for &(ms, block) in ops {
            t.op(block, 1, || ());
            t.samples.last_mut().expect("just timed").latency_ns = (ms * 1e6) as u32;
            let end_op = t.samples.len();
            let d = Duration::from_millis(1);
            t.windows.push(Window { first_op: end_op - 1, end_op, wall: d, cpu: d, programs: 1 });
        }
        t
    }

    #[test]
    fn percentiles_inside_a_block_pass_and_on_a_gap_fail() {
        // 94% fast ops around 1 ms, 6% slow ops around 10 ms; every window
        // is equally fast, so all of them count.
        let lat: Vec<(f64, &str)> =
            (0..2000)
                .map(|i| {
                    if i % 50 < 47 {
                        (1.0 + (i % 7) as f64 * 0.01, "fast")
                    } else {
                        (10.0, "slow")
                    }
                })
                .collect();
        let t = timed(&lat);
        assert!((t.percentile_ms(0.5).expect("p50 inside the fast block") - 1.03).abs() < 0.05);
        assert_eq!(t.percentile_ms(0.99).expect("p99 inside the slow block"), 10.0);
        // The 94th percentile sits on the edge between the two blocks.
        assert!(t.percentile_ms(0.94).is_err());
        assert!(timed(&lat[..500]).percentile_ms(0.5).is_err(), "too few ops");
    }

    #[test]
    fn percentiles_skip_the_slower_windows() {
        // 2000 windows of ten 1 ms ops; the host stalls one op in each of
        // the odd windows, which run slower.
        let mut t = Timed::default();
        for w in 0..2000 {
            let first_op = t.samples.len();
            for i in 0..10 {
                t.op("x", 1, || ());
                let ms = if w % 2 == 1 && i == 0 { 5.0 } else { 1.0 };
                t.samples.last_mut().expect("just timed").latency_ns = (ms * 1e6) as u32;
            }
            let wall = Duration::from_millis(if w % 2 == 1 { 14 } else { 10 });
            let end_op = t.samples.len();
            t.windows.push(Window { first_op, end_op, wall, cpu: wall, programs: 10 });
        }
        assert_eq!(t.percentile_ms(0.99).expect("p99"), 1.0);
    }

    #[test]
    fn blocks_of_similar_cost_have_no_gap_between_them() {
        let lat: Vec<(f64, &str)> =
            (0..2000).map(|i| if i % 2 == 0 { (1.0, "a") } else { (1.1, "b") }).collect();
        assert!(timed(&lat).percentile_ms(0.5).is_ok());
    }

    #[test]
    fn rates_count_only_windowed_time() {
        let mut t = Timed::default();
        for ms in [10, 30] {
            let d = Duration::from_millis(ms);
            t.windows.push(Window { first_op: 0, end_op: 0, wall: d, cpu: d / 2, programs: 10 });
        }
        assert_eq!(t.programs_per_s(), 500.0);
        assert_eq!(t.cpu_ms_per_program(), 1.0);
    }

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
