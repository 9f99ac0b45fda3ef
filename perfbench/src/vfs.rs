//! A counting [`Vfs`]: delegates every call to [`RealFs`] and records
//! calls, bytes and wall time per kind of operation.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parpat_engine::{RealFs, Vfs};

/// Totals since construction. Only statistics, so `Relaxed` suffices.
#[derive(Debug, Default)]
struct Counters {
    reads: AtomicU64,
    bytes_read: AtomicU64,
    read_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    bytes_written: AtomicU64,
    write_ns: AtomicU64,
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VfsCounts {
    /// `read` and `read_prefix` calls.
    pub reads: u64,
    /// Bytes those calls returned.
    pub bytes_read: u64,
    /// Time inside those calls.
    pub read: Duration,
    /// `create_sync`, `append_sync` and `truncate_sync` calls.
    pub syncs: u64,
    /// Time inside those calls, their writes included.
    pub sync: Duration,
    /// Bytes handed to `write`, `create_new`, `create_sync` and
    /// `append_sync`.
    pub bytes_written: u64,
    /// Time inside the non-syncing mutations: `write`, `create_new`,
    /// `rename` and `remove_file`.
    pub write: Duration,
}

impl VfsCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            read: self.read - earlier.read,
            syncs: self.syncs - earlier.syncs,
            sync: self.sync - earlier.sync,
            bytes_written: self.bytes_written - earlier.bytes_written,
            write: self.write - earlier.write,
        }
    }
}

/// [`RealFs`] behind counters.
#[derive(Debug, Default)]
pub struct CountingFs {
    c: Counters,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    add(ns, t.elapsed().as_nanos() as u64);
    out
}

impl CountingFs {
    /// The counters so far.
    pub fn counts(&self) -> VfsCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let dur = |a: &AtomicU64| Duration::from_nanos(get(a));
        VfsCounts {
            reads: get(&self.c.reads),
            bytes_read: get(&self.c.bytes_read),
            read: dur(&self.c.read_ns),
            syncs: get(&self.c.syncs),
            sync: dur(&self.c.sync_ns),
            bytes_written: get(&self.c.bytes_written),
            write: dur(&self.c.write_ns),
        }
    }

    fn read_with(&self, f: impl FnOnce() -> std::io::Result<Vec<u8>>) -> std::io::Result<Vec<u8>> {
        add(&self.c.reads, 1);
        let out = timed(&self.c.read_ns, f);
        if let Ok(bytes) = &out {
            add(&self.c.bytes_read, bytes.len() as u64);
        }
        out
    }

    fn sync_with(
        &self,
        bytes: usize,
        f: impl FnOnce() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        add(&self.c.syncs, 1);
        add(&self.c.bytes_written, bytes as u64);
        timed(&self.c.sync_ns, f)
    }

    fn write_with(
        &self,
        bytes: usize,
        f: impl FnOnce() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        add(&self.c.bytes_written, bytes as u64);
        timed(&self.c.write_ns, f)
    }
}

impl Vfs for CountingFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.read_with(|| RealFs.read(path))
    }

    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        self.read_with(|| RealFs.read_prefix(path, max))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.write_with(bytes.len(), || RealFs.write(path, bytes))
    }

    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.sync_with(bytes.len(), || RealFs.create_sync(path, bytes))
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.sync_with(bytes.len(), || RealFs.append_sync(path, bytes))
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.sync_with(0, || RealFs.truncate_sync(path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.write_with(0, || RealFs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.write_with(0, || RealFs.remove_file(path))
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.write_with(bytes.len(), || RealFs.create_new(path, bytes))
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealFs.create_dir_all(path)
    }

    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        RealFs.file_age(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        RealFs.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reads_writes_and_syncs() {
        let dir = std::env::temp_dir().join(format!("perfbench-vfs-{}", std::process::id()));
        let fs = CountingFs::default();
        fs.create_dir_all(&dir).expect("mkdir");
        let rec = dir.join("a.rec");
        fs.write(&rec, b"hello").expect("write");
        assert_eq!(fs.read(&rec).expect("read"), b"hello");
        let log = dir.join("log");
        fs.create_sync(&log, b"hdr\n").expect("create");
        fs.append_sync(&log, b"rec 1\n").expect("append");
        let c = fs.counts();
        assert_eq!((c.reads, c.bytes_read), (1, 5));
        assert_eq!((c.syncs, c.bytes_written), (2, 5 + 4 + 6));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
