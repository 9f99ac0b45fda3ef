//! Fork/join — the supporting structure for detected task parallelism.
//!
//! [`join`] runs two closures potentially in parallel (the fib shape);
//! [`join4`] nests it for four-way divides (the cilksort shape).

/// Run `a` and `b`, potentially in parallel, returning both results.
///
/// If branch `b` panics, the panic is re-raised *in the caller* (with its
/// original payload) only after branch `a` has completed — mirroring what
/// `a(); b()` would do sequentially, and guaranteeing `a`'s work is never
/// silently dropped mid-flight. If `a` panics, the scope joins `b` before
/// unwinding, with the same guarantee in the other direction.
pub fn join<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    let mut rb = None;
    let mut b_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let ra = std::thread::scope(|s| {
        let handle = s.spawn(b);
        let ra = a();
        match handle.join() {
            Ok(v) => rb = Some(v),
            Err(payload) => b_panic = Some(payload),
        }
        ra
    });
    if let Some(payload) = b_panic {
        std::panic::resume_unwind(payload);
    }
    (ra, rb.expect("b completed"))
}

/// Recursive 4-way divide helper (the cilksort shape): runs the four
/// closures potentially in parallel.
pub fn join4<R: Send>(
    a: impl FnOnce() -> R + Send,
    b: impl FnOnce() -> R + Send,
    c: impl FnOnce() -> R + Send,
    d: impl FnOnce() -> R + Send,
) -> [R; 4] {
    let ((ra, rb), (rc, rd)) = join(|| join(a, b), || join(c, d));
    [ra, rb, rc, rd]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_propagates_branch_panic_after_a_completes() {
        let a_done = AtomicUsize::new(0);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                || {
                    a_done.fetch_add(1, Ordering::SeqCst);
                    41
                },
                || -> i32 { std::panic::panic_any("branch b exploded") },
            )
        }))
        .expect_err("b's panic must propagate");
        // The original payload survives (not a synthesized expect message)…
        assert_eq!(*payload.downcast_ref::<&str>().unwrap(), "branch b exploded");
        // …and a's work was not dropped.
        assert_eq!(a_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join4_runs_all() {
        let r = join4(|| 1, || 2, || 3, || 4);
        assert_eq!(r, [1, 2, 3, 4]);
    }

    #[test]
    fn recursive_join_computes_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            if n < 12 {
                return fib(n - 1) + fib(n - 2);
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        assert_eq!(fib(20), 6765);
    }
}
