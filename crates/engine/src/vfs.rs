//! The storage abstraction under the durability layer.
//!
//! Every file operation that a durability claim rests on — journal
//! appends and truncation, cache record I/O, stats persistence, fsck's
//! quarantines — goes through the [`Vfs`] trait instead of raw `std::fs`,
//! so the same code paths run against two backends:
//!
//! - [`RealFs`] — a thin passthrough to `std::fs` with the exact
//!   open-flag and fsync discipline the layer always used (`O_APPEND` +
//!   `sync_data` per record, temp-file + rename).
//! - [`SimFs`] — an in-memory filesystem with deterministic, seeded fault
//!   plans: EIO at the k-th mutating operation, a disk that fills
//!   (ENOSPC) at the k-th operation and stays full, and a power cut that
//!   lands only a short prefix of the in-flight write and then drops
//!   every byte not covered by a `sync_data`.
//!
//! `SimFs` distinguishes **durable** content (covered by a sync) from
//! **live** content (visible to reads, gone after a power cut). The
//! crash-consistency harness arms a fault, runs a batch, calls
//! [`SimFs::restart`] — which resets every file to its durable content
//! and drops files that were never synced — and resumes, proving the
//! recovery invariants over every fault point.

use std::collections::HashMap;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parpat_runtime::lock_recover;

use crate::fault::xorshift64;

/// `ENOSPC` as an `io::Error` (raw OS error: the stable way to model a
/// full disk without unstable `ErrorKind` variants).
pub fn enospc() -> std::io::Error {
    std::io::Error::from_raw_os_error(28)
}

/// `EIO` as an `io::Error`.
pub fn eio() -> std::io::Error {
    std::io::Error::from_raw_os_error(5)
}

/// Whether `e` is the out-of-space error ([`enospc`]).
pub fn is_enospc(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

/// The error every operation returns while a simulated power cut is in
/// effect (cleared by [`SimFs::restart`]).
fn power_out() -> std::io::Error {
    std::io::Error::other("simulated power cut: device is gone")
}

/// Filesystem operations the durability layer depends on. All methods
/// are whole-operation (no open handles), which keeps the power-cut
/// semantics of the simulated backend explicit: an operation either
/// carries its own durability (`*_sync`) or it does not.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Read a file's full contents.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Read at most `max` bytes from the start of a file.
    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>>;
    /// Create or replace a file with `bytes`, *without* any durability
    /// guarantee (stats snapshots, temp files).
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Create or replace a file with `bytes` and `sync_data` it.
    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Append `bytes` with a single `O_APPEND` write and `sync_data` it.
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Truncate a file to `len` bytes and `sync_data` it.
    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to`).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> std::io::Result<()>;
    /// Create a file with `bytes` only if it does not exist (`O_EXCL`);
    /// fails with `AlreadyExists` otherwise.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// Create a directory and all its parents.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// Age of a file since its last modification.
    fn file_age(&self, path: &Path) -> std::io::Result<Duration>;
    /// The files (not directories) directly under `dir`, sorted by path.
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>>;
}

/// The production backend: a thin passthrough to `std::fs` preserving
/// the durability discipline (per-record `sync_data`, `O_EXCL`,
/// `O_APPEND`) the layer has always used.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        let mut file = std::fs::File::open(path)?;
        let mut buf = vec![0u8; max];
        let mut filled = 0;
        while filled < max {
            let n = file.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf.truncate(filled);
        Ok(buf)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(len)?;
        file.seek(std::io::SeekFrom::End(0))?;
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        file.write_all(bytes)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        let modified = std::fs::metadata(path)?.modified()?;
        Ok(modified.elapsed().unwrap_or(Duration::ZERO))
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }
}

/// One storage fault, armed on a [`SimFs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The `at`-th mutating operation (1-based) fails with EIO and lands
    /// nothing; later operations succeed (a transient device error).
    Eio {
        /// Mutating-operation ordinal that fails.
        at: u64,
    },
    /// The disk fills at the `at`-th mutating operation and stays full:
    /// that operation and every later one fails with ENOSPC. The first
    /// failing write still lands a short prefix (the bytes that fit);
    /// `partial` fixes its length, `None` picks it by xorshift. Removes
    /// and renames still succeed — they allocate nothing.
    Enospc {
        /// Mutating-operation ordinal at which the disk fills.
        at: u64,
        /// Bytes of the first failing write that land anyway.
        partial: Option<u64>,
    },
    /// The power dies during the `at`-th mutating operation: a prefix of
    /// the in-flight bytes lands (durably, if the operation carried its
    /// own sync), then every operation — reads included — fails until
    /// [`SimFs::restart`], which drops all unsynced content.
    PowerCut {
        /// Mutating-operation ordinal during which the power dies.
        at: u64,
        /// Bytes of the in-flight write that land anyway.
        partial: Option<u64>,
    },
}

#[derive(Debug, Clone)]
struct SimFile {
    /// Content covered by a sync — what survives a power cut.
    durable: Vec<u8>,
    /// Content as reads observe it (durable + unsynced writes).
    live: Vec<u8>,
    /// Whether the file's existence itself is durable (some sync, or a
    /// journaled metadata operation, covered it). Unsynced files vanish
    /// entirely on [`SimFs::restart`].
    synced: bool,
    mtime: Instant,
}

#[derive(Debug)]
struct Sim {
    files: HashMap<PathBuf, SimFile>,
    /// Count of mutating operations attempted so far (fault ordinals).
    ops: u64,
    rng: u64,
    fault: Option<DiskFault>,
    /// Set by a tripped `PowerCut`; cleared by `restart`.
    dead: bool,
}

/// The simulated backend. Cloning shares the same in-memory state, so a
/// harness can hold a handle while an engine owns another.
#[derive(Debug, Clone)]
pub struct SimFs {
    inner: Arc<Mutex<Sim>>,
}

/// What a tripped fault asks the current operation to do.
enum Trip {
    /// Land only this many bytes of the write, then fail with the error.
    Short(u64, std::io::Error),
    /// Fail outright, landing nothing.
    Fail(std::io::Error),
    /// Proceed normally.
    None,
}

impl Sim {
    /// Account one mutating operation of `len` payload bytes against the
    /// armed fault. `frees` marks operations that allocate no space
    /// (removes, renames — exempt from ENOSPC).
    fn mutate(&mut self, len: usize, frees: bool) -> Trip {
        self.ops += 1;
        match self.fault {
            Some(DiskFault::Eio { at }) if self.ops == at => {
                self.fault = None;
                Trip::Fail(eio())
            }
            Some(DiskFault::Enospc { at, partial }) if self.ops >= at && !frees => {
                if self.ops == at && len > 0 {
                    let n = partial.unwrap_or_else(|| xorshift64(&mut self.rng) % (len as u64 + 1));
                    Trip::Short(n.min(len as u64), enospc())
                } else {
                    Trip::Fail(enospc())
                }
            }
            Some(DiskFault::PowerCut { at, partial }) if self.ops >= at => {
                self.dead = true;
                if self.ops == at && len > 0 {
                    let n = partial.unwrap_or_else(|| xorshift64(&mut self.rng) % (len as u64 + 1));
                    Trip::Short(n.min(len as u64), power_out())
                } else {
                    Trip::Fail(power_out())
                }
            }
            _ => Trip::None,
        }
    }

    fn guard(&self) -> std::io::Result<()> {
        if self.dead {
            Err(power_out())
        } else {
            Ok(())
        }
    }
}

impl SimFs {
    /// A fault-free simulated filesystem (still deterministic).
    pub fn new() -> SimFs {
        SimFs::seeded(0x9E37_79B9_7F4A_7C15)
    }

    /// A simulated filesystem whose short-write lengths are drawn from a
    /// xorshift stream seeded with `seed`.
    pub fn seeded(seed: u64) -> SimFs {
        SimFs {
            inner: Arc::new(Mutex::new(Sim {
                files: HashMap::new(),
                ops: 0,
                rng: seed | 1,
                fault: None,
                dead: false,
            })),
        }
    }

    /// Arm (or clear) the fault plan. Faults trip against the mutating
    /// operation counter, which keeps counting across re-arms.
    pub fn set_fault(&self, fault: Option<DiskFault>) {
        lock_recover(&self.inner).fault = fault;
    }

    /// Mutating operations attempted so far — the sweep range for a
    /// fault-point enumeration.
    pub fn ops(&self) -> u64 {
        lock_recover(&self.inner).ops
    }

    /// Whether a power cut has tripped and the device is gone.
    pub fn powered_off(&self) -> bool {
        lock_recover(&self.inner).dead
    }

    /// Power back on after a cut: files that were never synced vanish,
    /// every other file falls back to its durable content, the fault
    /// disarms, and operations succeed again. Also clears a standing
    /// ENOSPC (the operator made room).
    pub fn restart(&self) {
        let mut sim = lock_recover(&self.inner);
        sim.dead = false;
        sim.fault = None;
        sim.files.retain(|_, f| f.synced);
        for f in sim.files.values_mut() {
            f.live = f.durable.clone();
        }
    }

    /// Test hook: age `path`'s mtime backwards by `age` (for age-ordered
    /// scenarios that must not sleep).
    pub fn backdate(&self, path: &Path, age: Duration) {
        if let Some(f) = lock_recover(&self.inner).files.get_mut(path) {
            if let Some(t) = f.mtime.checked_sub(age) {
                f.mtime = t;
            }
        }
    }

    /// Snapshot of a file's durable content (what a power cut preserves).
    pub fn durable(&self, path: &Path) -> Option<Vec<u8>> {
        lock_recover(&self.inner).files.get(path).filter(|f| f.synced).map(|f| f.durable.clone())
    }
}

impl Default for SimFs {
    fn default() -> Self {
        SimFs::new()
    }
}

fn not_found() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotFound, "no such simulated file")
}

impl Vfs for SimFs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let sim = lock_recover(&self.inner);
        sim.guard()?;
        sim.files.get(path).map(|f| f.live.clone()).ok_or_else(not_found)
    }

    fn read_prefix(&self, path: &Path, max: usize) -> std::io::Result<Vec<u8>> {
        let mut bytes = self.read(path)?;
        bytes.truncate(max);
        Ok(bytes)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        let trip = sim.mutate(bytes.len(), false);
        let now = Instant::now();
        let file = sim.files.entry(path.to_owned()).or_insert_with(|| SimFile {
            durable: Vec::new(),
            live: Vec::new(),
            synced: false,
            mtime: now,
        });
        match trip {
            Trip::Fail(e) => Err(e),
            Trip::Short(n, e) => {
                // An unsynced replace that dies half-way: the live view
                // holds the prefix, nothing about it is durable.
                file.live = bytes[..n as usize].to_vec();
                file.mtime = now;
                Err(e)
            }
            Trip::None => {
                file.live = bytes.to_vec();
                file.mtime = now;
                Ok(())
            }
        }
    }

    fn create_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        let trip = sim.mutate(bytes.len(), false);
        let now = Instant::now();
        let file = sim.files.entry(path.to_owned()).or_insert_with(|| SimFile {
            durable: Vec::new(),
            live: Vec::new(),
            synced: false,
            mtime: now,
        });
        match trip {
            Trip::Fail(e) => Err(e),
            Trip::Short(n, e) => {
                // The sync never completed — model the worst case where
                // only the prefix became durable (a torn file).
                file.live = bytes[..n as usize].to_vec();
                file.durable = file.live.clone();
                file.synced = true;
                file.mtime = now;
                Err(e)
            }
            Trip::None => {
                file.live = bytes.to_vec();
                file.durable = file.live.clone();
                file.synced = true;
                file.mtime = now;
                Ok(())
            }
        }
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        let trip = sim.mutate(bytes.len(), false);
        let now = Instant::now();
        let Some(file) = sim.files.get_mut(path) else {
            // The op was accounted above; surface the open failure like
            // `OpenOptions::append` on a missing path would.
            return Err(not_found());
        };
        match trip {
            Trip::Fail(e) => Err(e),
            Trip::Short(n, e) => {
                // A torn append: the prefix hit the platter before the
                // fault, the tail and the sync did not.
                file.live.extend_from_slice(&bytes[..n as usize]);
                file.durable = file.live.clone();
                file.synced = true;
                file.mtime = now;
                Err(e)
            }
            Trip::None => {
                file.live.extend_from_slice(bytes);
                file.durable = file.live.clone();
                file.synced = true;
                file.mtime = now;
                Ok(())
            }
        }
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        if let Trip::Fail(e) | Trip::Short(_, e) = sim.mutate(0, false) {
            return Err(e);
        }
        let now = Instant::now();
        let file = sim.files.get_mut(path).ok_or_else(not_found)?;
        file.live.truncate(len as usize);
        file.durable = file.live.clone();
        file.synced = true;
        file.mtime = now;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        // Metadata operations are journaled by the filesystem: atomic,
        // exempt from short writes, and — like removes — allocating no
        // space, so they pass under ENOSPC.
        if let Trip::Fail(e) | Trip::Short(_, e) = sim.mutate(0, true) {
            return Err(e);
        }
        let mut file = sim.files.remove(from).ok_or_else(not_found)?;
        file.mtime = Instant::now();
        sim.files.insert(to.to_owned(), file);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        if let Trip::Fail(e) | Trip::Short(_, e) = sim.mutate(0, true) {
            return Err(e);
        }
        sim.files.remove(path).map(|_| ()).ok_or_else(not_found)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        if sim.files.contains_key(path) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "simulated file exists",
            ));
        }
        if let Trip::Fail(e) | Trip::Short(_, e) = sim.mutate(bytes.len(), false) {
            return Err(e);
        }
        sim.files.insert(
            path.to_owned(),
            SimFile {
                durable: Vec::new(),
                live: bytes.to_vec(),
                synced: false,
                mtime: Instant::now(),
            },
        );
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> std::io::Result<()> {
        let mut sim = lock_recover(&self.inner);
        sim.guard()?;
        if let Trip::Fail(e) | Trip::Short(_, e) = sim.mutate(0, false) {
            return Err(e);
        }
        Ok(())
    }

    fn file_age(&self, path: &Path) -> std::io::Result<Duration> {
        let sim = lock_recover(&self.inner);
        sim.guard()?;
        let file = sim.files.get(path).ok_or_else(not_found)?;
        Ok(file.mtime.elapsed())
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let sim = lock_recover(&self.inner);
        sim.guard()?;
        let mut out: Vec<PathBuf> =
            sim.files.keys().filter(|p| p.parent() == Some(dir)).cloned().collect();
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn sim_round_trips_like_a_filesystem() {
        let fs = SimFs::new();
        fs.create_sync(&p("/d/a"), b"hello").unwrap();
        fs.append_sync(&p("/d/a"), b" world").unwrap();
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello world");
        assert_eq!(fs.read_prefix(&p("/d/a"), 5).unwrap(), b"hello");
        fs.truncate_sync(&p("/d/a"), 5).unwrap();
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"hello");
        fs.rename(&p("/d/a"), &p("/d/b")).unwrap();
        assert!(fs.read(&p("/d/a")).is_err());
        assert_eq!(fs.read(&p("/d/b")).unwrap(), b"hello");
        assert_eq!(fs.list_dir(&p("/d")).unwrap(), vec![p("/d/b")]);
        fs.remove_file(&p("/d/b")).unwrap();
        assert!(fs.read(&p("/d/b")).is_err());
    }

    #[test]
    fn create_new_is_exclusive() {
        let fs = SimFs::new();
        fs.create_new(&p("/lock"), b"1\n").unwrap();
        let err = fs.create_new(&p("/lock"), b"2\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        fs.remove_file(&p("/lock")).unwrap();
        fs.create_new(&p("/lock"), b"3\n").unwrap();
        assert_eq!(fs.read(&p("/lock")).unwrap(), b"3\n");
    }

    #[test]
    fn power_cut_drops_unsynced_writes_and_keeps_synced_ones() {
        let fs = SimFs::new();
        fs.create_sync(&p("/wal"), b"header\n").unwrap();
        fs.write(&p("/stats"), b"snapshot").unwrap(); // unsynced
        fs.set_fault(Some(DiskFault::PowerCut { at: fs.ops() + 1, partial: Some(2) }));
        let err = fs.append_sync(&p("/wal"), b"record").unwrap_err();
        assert!(err.to_string().contains("power"), "{err}");
        assert!(fs.powered_off());
        assert!(fs.read(&p("/wal")).is_err(), "reads fail while dead");
        fs.restart();
        // The torn append landed its 2-byte prefix; the unsynced file
        // created before the cut is gone entirely.
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"header\nre");
        assert!(fs.read(&p("/stats")).is_err());
    }

    #[test]
    fn enospc_is_sticky_and_short_writes_the_first_victim() {
        let fs = SimFs::new();
        fs.create_sync(&p("/wal"), b"hdr\n").unwrap();
        fs.set_fault(Some(DiskFault::Enospc { at: fs.ops() + 1, partial: Some(3) }));
        let err = fs.append_sync(&p("/wal"), b"abcdef").unwrap_err();
        assert!(is_enospc(&err));
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"hdr\nabc", "short prefix landed");
        let err = fs.append_sync(&p("/wal"), b"ghi").unwrap_err();
        assert!(is_enospc(&err), "the disk stays full");
        // Writes keep failing, but removes free space and still succeed.
        assert!(is_enospc(&fs.create_sync(&p("/x"), b"y").unwrap_err()));
        fs.remove_file(&p("/wal")).unwrap();
    }

    #[test]
    fn eio_is_transient_and_lands_nothing() {
        let fs = SimFs::new();
        fs.create_sync(&p("/wal"), b"hdr\n").unwrap();
        fs.set_fault(Some(DiskFault::Eio { at: fs.ops() + 1 }));
        assert!(fs.append_sync(&p("/wal"), b"rec").is_err());
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"hdr\n", "EIO landed nothing");
        fs.append_sync(&p("/wal"), b"rec").unwrap();
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"hdr\nrec");
    }

    #[test]
    fn unsynced_exclusive_creates_do_not_survive_a_power_cut() {
        let fs = SimFs::new();
        fs.create_new(&p("/lock"), b"pid 1\n").unwrap();
        fs.set_fault(Some(DiskFault::PowerCut { at: fs.ops() + 1, partial: Some(0) }));
        let _ = fs.create_sync(&p("/other"), b"x");
        fs.restart();
        assert!(fs.read(&p("/lock")).is_err(), "a never-synced file is gone");
    }

    #[test]
    fn backdate_ages_a_file() {
        let fs = SimFs::new();
        fs.create_new(&p("/lock"), b"pid\n").unwrap();
        assert!(fs.file_age(&p("/lock")).unwrap() < Duration::from_secs(1));
        fs.backdate(&p("/lock"), Duration::from_secs(60));
        assert!(fs.file_age(&p("/lock")).unwrap() >= Duration::from_secs(60));
    }

    #[test]
    fn real_fs_passthrough_round_trips() {
        let dir = std::env::temp_dir().join(format!("parpat-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        let a = dir.join("a");
        fs.create_sync(&a, b"hello").unwrap();
        fs.append_sync(&a, b" world").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"hello world");
        assert_eq!(fs.read_prefix(&a, 5).unwrap(), b"hello");
        fs.truncate_sync(&a, 5).unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"hello");
        let b = dir.join("b");
        fs.rename(&a, &b).unwrap();
        assert_eq!(fs.list_dir(&dir).unwrap(), vec![b.clone()]);
        assert!(fs.file_age(&b).unwrap() < Duration::from_secs(30));
        fs.create_new(&b, b"x").unwrap_err();
        fs.remove_file(&b).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
