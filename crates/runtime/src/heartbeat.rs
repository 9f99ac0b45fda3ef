//! Watchdog supervision for long-running jobs.
//!
//! Workers publish liveness through a monotone beat counter (anything
//! implementing [`Supervised`]); a single background supervisor thread scans
//! all registered jobs at a fixed cadence and requests *cooperative*
//! cancellation — the same mechanism as the interpreter's deadline poll — on
//! any job whose counter has not advanced for a configured number of
//! consecutive scans. The watchdog never kills threads: a cancelled job
//! unwinds through its own poll points and the caller decides whether to
//! requeue it.
//!
//! The supervisor is deliberately decoupled from the worker type: it sees
//! only `beats()` and `cancel()`, so the engine can register whole
//! program-analysis jobs while tests register bare counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::sync::{lock_recover, wait_timeout_recover};

/// A job the watchdog can supervise: it publishes liveness as a monotone
/// beat counter and accepts a cooperative cancellation request.
pub trait Supervised: Send + Sync {
    /// Monotone liveness counter. Any advance between two scans counts as
    /// progress; the absolute value is meaningless.
    fn beats(&self) -> u64;
    /// Request cooperative cancellation. Must be idempotent and must not
    /// block; the job observes it at its next poll point.
    fn cancel(&self);
}

/// Watchdog tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Scan cadence of the supervisor thread.
    pub poll: Duration,
    /// Number of consecutive scans without a beat before a job is declared
    /// stale and cancelled. Staleness threshold ≈ `poll * stale_scans`.
    pub stale_scans: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // 50ms × 4 scans ⇒ a job silent for ~200ms is declared stalled. The
        // interpreter beats every few thousand instructions, so any healthy
        // profile run beats orders of magnitude faster than this.
        WatchdogConfig { poll: Duration::from_millis(50), stale_scans: 4 }
    }
}

struct Entry {
    job: Arc<dyn Supervised>,
    /// Beat count observed at the previous scan.
    last: u64,
    /// Consecutive scans with no advance.
    stale: u32,
    /// Already cancelled — skip on later scans (cancel is one-shot).
    fired: bool,
}

struct Registry {
    entries: Mutex<HashMap<u64, Entry>>,
    shutdown: AtomicBool,
    /// Total jobs cancelled for staleness over the watchdog's lifetime.
    stalls: AtomicU64,
    /// Wakes the supervisor early on shutdown so `Drop` never waits a full
    /// poll interval.
    wake: Condvar,
    wake_lock: Mutex<()>,
}

/// A background supervisor thread plus the registry of jobs it scans.
///
/// Dropping the watchdog stops the thread. Jobs deregister automatically
/// when their [`WatchGuard`] drops.
pub struct Watchdog {
    registry: Arc<Registry>,
    next_id: AtomicU64,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Registration token: the job stays supervised for the guard's lifetime.
pub struct WatchGuard {
    registry: Arc<Registry>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        lock_recover(&self.registry.entries).remove(&self.id);
    }
}

impl Watchdog {
    /// Start a supervisor thread scanning at `cfg.poll` cadence.
    pub fn spawn(cfg: WatchdogConfig) -> Watchdog {
        let registry = Arc::new(Registry {
            entries: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            stalls: AtomicU64::new(0),
            wake: Condvar::new(),
            wake_lock: Mutex::new(()),
        });
        let reg = Arc::clone(&registry);
        let handle = std::thread::Builder::new()
            .name("parpat-watchdog".to_owned())
            .spawn(move || supervise(&reg, cfg))
            .ok();
        Watchdog { registry, next_id: AtomicU64::new(0), handle }
    }

    /// Register a job for supervision. It is scanned until the returned
    /// guard is dropped.
    pub fn register(&self, job: Arc<dyn Supervised>) -> WatchGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let last = job.beats();
        lock_recover(&self.registry.entries)
            .insert(id, Entry { job, last, stale: 0, fired: false });
        WatchGuard { registry: Arc::clone(&self.registry), id }
    }

    /// Total jobs cancelled for staleness since the watchdog started.
    pub fn stalls(&self) -> u64 {
        self.registry.stalls.load(Ordering::Relaxed)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::Relaxed);
        self.registry.wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn supervise(reg: &Registry, cfg: WatchdogConfig) {
    while !reg.shutdown.load(Ordering::Relaxed) {
        {
            let guard = lock_recover(&reg.wake_lock);
            drop(wait_timeout_recover(&reg.wake, guard, cfg.poll));
        }
        if reg.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = lock_recover(&reg.entries);
        for entry in entries.values_mut() {
            if entry.fired {
                continue;
            }
            let now = entry.job.beats();
            if now != entry.last {
                entry.last = now;
                entry.stale = 0;
                continue;
            }
            entry.stale += 1;
            if entry.stale >= cfg.stale_scans {
                entry.fired = true;
                reg.stalls.fetch_add(1, Ordering::Relaxed);
                entry.job.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    /// A bare beat counter + cancel flag, the minimal supervised job.
    #[derive(Default)]
    struct Probe {
        beats: AtomicU64,
        cancelled: AtomicBool,
    }

    impl Supervised for Probe {
        fn beats(&self) -> u64 {
            self.beats.load(Ordering::Relaxed)
        }
        fn cancel(&self) {
            self.cancelled.store(true, Ordering::Relaxed);
        }
    }

    fn fast_cfg() -> WatchdogConfig {
        WatchdogConfig { poll: Duration::from_millis(2), stale_scans: 3 }
    }

    #[test]
    fn silent_job_is_cancelled() {
        let dog = Watchdog::spawn(fast_cfg());
        let probe = Arc::new(Probe::default());
        let _guard = dog.register(Arc::clone(&probe) as Arc<dyn Supervised>);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !probe.cancelled.load(Ordering::Relaxed) {
            assert!(std::time::Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(dog.stalls(), 1);
    }

    #[test]
    fn beating_job_is_left_alone() {
        // A ~100 ms staleness window: a 2 ms sleep that the host stretches
        // past a few scans must not read as a stall. The job beats for at
        // least 300 ms, three windows, so a watchdog that ignored beats
        // would still fire here.
        let dog = Watchdog::spawn(WatchdogConfig { stale_scans: 50, ..fast_cfg() });
        let probe = Arc::new(Probe::default());
        let _guard = dog.register(Arc::clone(&probe) as Arc<dyn Supervised>);
        for _ in 0..150 {
            probe.beats.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!probe.cancelled.load(Ordering::Relaxed));
        assert_eq!(dog.stalls(), 0);
    }

    #[test]
    fn deregistered_job_is_not_cancelled() {
        let dog = Watchdog::spawn(fast_cfg());
        let probe = Arc::new(Probe::default());
        let guard = dog.register(Arc::clone(&probe) as Arc<dyn Supervised>);
        drop(guard);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!probe.cancelled.load(Ordering::Relaxed));
    }

    #[test]
    fn cancel_fires_once_per_job() {
        let dog = Watchdog::spawn(fast_cfg());
        let probe = Arc::new(Probe::default());
        let _guard = dog.register(Arc::clone(&probe) as Arc<dyn Supervised>);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(dog.stalls(), 1, "a stale job is counted exactly once");
    }

    #[test]
    fn drop_stops_the_supervisor_quickly() {
        let dog = Watchdog::spawn(WatchdogConfig { poll: Duration::from_secs(60), stale_scans: 2 });
        let started = std::time::Instant::now();
        drop(dog);
        assert!(started.elapsed() < Duration::from_secs(5), "drop must not wait a full poll");
    }
}
