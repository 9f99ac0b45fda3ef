//! A work-stealing thread pool.
//!
//! Classic deque-per-worker design, std-only: submitted tasks go to a
//! global injector; each worker drains its local deque first (refilled in
//! batches from the injector), then steals from siblings. A pending-task
//! counter with a condvar supports `wait_idle`, which also covers tasks
//! spawned transitively from inside other tasks.
//!
//! The deques are `Mutex<VecDeque>`s rather than lock-free ring buffers;
//! the batched injector refill keeps lock traffic at one acquisition per
//! `STEAL_BATCH` tasks on the hot path, which is plenty for the
//! coarse-grained task loads this workspace schedules (whole-program
//! analyses, chunked loop bodies).
//!
//! The pool runs `'static` tasks; the pattern executors in this crate use
//! `std::thread::scope` when they need to borrow caller data.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// How many tasks a worker moves from the injector to its local deque per
/// refill.
const STEAL_BATCH: usize = 16;

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    /// One deque per worker; owners pop the back, thieves steal the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    pending: AtomicUsize,
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Wakes parked workers when new work arrives.
    work_lock: Mutex<()>,
    work_cv: Condvar,
}

/// A fixed-size work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            work_lock: Mutex::new(()),
            work_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("parpat-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker"),
            );
        }
        ThreadPool { shared, handles, threads }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a task (safe to call from inside another pool task).
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        lock_recover(&self.shared.injector).push_back(Box::new(f));
        self.shared.work_cv.notify_all();
    }

    /// Block until every submitted task (including transitively spawned
    /// ones) has finished.
    pub fn wait_idle(&self) {
        let mut guard = lock_recover(&self.shared.idle_lock);
        while self.shared.pending.load(Ordering::SeqCst) != 0 {
            guard = wait_recover(&self.shared.idle_cv, guard);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(task) = find_task(&shared, me) {
            // A panicking task must not take the worker (or, via an
            // unwound `pending` decrement, the whole pool) down with it:
            // swallow the unwind and keep draining the queues. Callers
            // that care about panics catch them inside the task.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _g = lock_recover(&shared.idle_lock);
                shared.idle_cv.notify_all();
            }
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Park until new work or shutdown (with a timeout so a lost wakeup
        // can never hang the pool).
        let guard = lock_recover(&shared.work_lock);
        if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            drop(wait_timeout_recover(&shared.work_cv, guard, std::time::Duration::from_millis(1)));
        }
    }
}

fn find_task(shared: &Shared, me: usize) -> Option<Task> {
    // Local deque first (LIFO for cache affinity).
    if let Some(t) = lock_recover(&shared.queues[me]).pop_back() {
        return Some(t);
    }
    // Refill from the injector in a batch, keeping one to run now.
    {
        let mut injector = lock_recover(&shared.injector);
        if let Some(t) = injector.pop_front() {
            let mut local = lock_recover(&shared.queues[me]);
            for _ in 0..STEAL_BATCH - 1 {
                match injector.pop_front() {
                    Some(extra) => local.push_back(extra),
                    None => break,
                }
            }
            return Some(t);
        }
    }
    // Steal the oldest task from a sibling.
    for (i, queue) in shared.queues.iter().enumerate() {
        if i == me {
            continue;
        }
        if let Some(t) = lock_recover(queue).pop_front() {
            return Some(t);
        }
    }
    None
}
