//! # parpat-runtime
//!
//! Threaded executors for the supporting structures the paper maps its
//! detected patterns onto (Table I):
//!
//! - [`parfor`] — SPMD `parallel_for` for do-all loops, fused loops and
//!   geometric decomposition;
//! - [`reduce`] — parallel reduction with per-thread accumulators;
//! - [`pipeline`] — the multi-loop pipeline executor, releasing consumer
//!   iterations by the `(a, b)` rule from the detector's regression;
//! - [`chain`] — n-stage pipeline chains merged from pairwise reports;
//! - [`forkjoin`] — fork/join (`join`, `join4`) for detected task
//!   parallelism;
//! - [`pool`] — a std-only work-stealing thread pool for `'static`
//!   task loads;
//! - [`sync`] — poison-recovering lock helpers so one panicking task can
//!   never wedge the executors sharing a lock;
//! - [`heartbeat`] — watchdog supervision: jobs publish liveness beats, a
//!   supervisor thread cancels (cooperatively) any job whose beats go stale.
//!
//! All executors are correctness-tested against their sequential
//! equivalents; wall-clock speedups in this repository's experiments come
//! from the deterministic simulator in `parpat-sim` (this environment
//! exposes a single CPU core — see DESIGN.md).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod chain;
pub mod forkjoin;
pub mod heartbeat;
pub mod parfor;
pub mod pipeline;
pub mod pool;
pub mod reduce;
pub mod sync;

pub use chain::{run_chain, ChainStage};
pub use forkjoin::{join, join4};
pub use heartbeat::{Supervised, WatchGuard, Watchdog, WatchdogConfig};
pub use parfor::{parallel_for, parallel_for_chunks, parallel_for_slices};
pub use pipeline::{run_two_stage, PipelineSpec, PrefixTracker};
pub use pool::ThreadPool;
pub use reduce::{parallel_reduce, parallel_sum};
pub use sync::{lock_recover, wait_recover, wait_timeout_recover};

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn pool_runs_external_tasks() {
        let pool = ThreadPool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&count);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn pool_tasks_can_spawn_subtasks() {
        let pool = Arc::new(ThreadPool::new(2));
        let count = Arc::new(AtomicUsize::new(0));
        {
            let c = Arc::clone(&count);
            let p = Arc::clone(&pool);
            pool.spawn(move || {
                for _ in 0..10 {
                    let c2 = Arc::clone(&c);
                    p.spawn(move || {
                        c2.fetch_add(1, Ordering::SeqCst);
                    });
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn pool_wait_idle_on_empty_pool_returns() {
        let pool = ThreadPool::new(1);
        pool.wait_idle();
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn pool_survives_panicking_tasks() {
        let pool = ThreadPool::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let c = Arc::clone(&count);
            pool.spawn(move || {
                if i % 4 == 0 {
                    panic!("injected task panic");
                }
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Every non-panicking task still runs and wait_idle still returns.
        pool.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 15);
        // The pool remains usable afterwards.
        let c = Arc::clone(&count);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        pool.spawn(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        drop(pool);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
