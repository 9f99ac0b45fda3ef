//! The process's CPU placement, and counters the kernel keeps: CPU time
//! across all threads and the resident-set high-water mark.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

/// Pin the calling thread, and every thread or process it starts later,
/// to the lowest-numbered CPU it may run on; returns that CPU.
///
/// For ops that hop between threads: with one op in flight the work is
/// sequential, but spread over two vCPUs each hop can wait for a vCPU the
/// host has descheduled; on one CPU it is a local context switch. An op
/// that stays on one thread is better left free to move away from such a
/// vCPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..1024).find(|c| allowed[c / 64] >> (c % 64) & 1 == 1).ok_or("no CPU allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, live or
/// exited, at nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always supports, so the call only writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
