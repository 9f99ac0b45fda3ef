//! The two-tier content-addressed artifact cache.
//!
//! **Memory tier** — `key → (digest, Arc<Artifact>)` with LRU eviction at a
//! fixed entry capacity. Holds live artifacts so repeated analyses inside
//! one process skip recomputation entirely. A recency index ordered by
//! each entry's last-use tick names the victim.
//!
//! **Disk tier** (optional, under a cache directory) — one small record
//! file per key of the parse, lower and rank stages: the stage's *output
//! digest*, and for rank the full [`ProgramReport`] payload. The parse and
//! lower digests are the two taken from content; every later key derives
//! from the lower digest, so a fresh process reaches a persisted report in
//! three reads without materializing a single artifact. The other stages'
//! artifacts live in the memory tier only: a record of theirs would hold
//! nothing but a digest the engine derives anyway.
//!
//! Records are written via temp-file + rename (unique temp names per
//! writer) so concurrent batch jobs never observe a torn file. A record
//! that fails to parse — torn by a crash mid-rename on a non-atomic
//! filesystem, truncated, or bit-flipped — is quarantined to a
//! `.corrupt` file and treated as a miss, so the next execution
//! regenerates it; these recoveries are counted ([`Cache::recovered`]).
//! Quarantine growth is bounded: past [`QUARANTINE_CAP`] corpses the
//! oldest is evicted (counted in [`Cache::quarantine_evicted`]), so a
//! rotting disk cannot fill the cache directory with tombstones.
//!
//! Records carry a `sum` line — an FNV-1a checksum over the record body —
//! so bit-rot that still parses structurally reads as corruption, not as
//! a wrong answer served from cache. Legacy records without the line
//! still parse, and so do the digest-only records older releases wrote
//! for the other stages (a profile's with an `insts` line): the engine
//! never reads them, but `parpat fsck` scrubs them. A disk-tier write
//! failing with ENOSPC disables further record writes (reads and the
//! memory tier keep working) instead of failing every insert against a
//! full disk; the suppressed writes are counted
//! ([`Cache::disabled_writes`]).

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use parpat_core::{Analysis, ProfiledRun};
use parpat_cu::CuSet;
use parpat_ir::IrProgram;
use parpat_minilang::Program;
use parpat_runtime::lock_recover;
use parpat_static::{LoopReport, StaticReport};

use crate::digest::hash_bytes;
use crate::report::ProgramReport;
use crate::vfs::{is_enospc, RealFs, Vfs};

/// Most `.corrupt` quarantine files kept in a cache directory before the
/// oldest is evicted to make room.
pub const QUARANTINE_CAP: usize = 8;

/// A cache key: the FNV-1a digest of a stage id + its input digests +
/// the stage-relevant configuration.
pub type Key = u64;

/// A cached stage output, kept behind `Arc` so hits are free to share.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Checked MiniLang AST.
    Ast(Arc<Program>),
    /// Lowered IR.
    Ir(Arc<IrProgram>),
    /// Static dependence verdicts per loop (memory tier only).
    Static(Arc<StaticReport>),
    /// One function's static loop reports — a per-function fragment of the
    /// static stage, keyed by the function digest (memory tier only).
    StaticFunc(Arc<Vec<LoopReport>>),
    /// Computational units (memory tier only).
    Cus(Arc<CuSet>),
    /// One function's CU set with fragment-local ids — a per-function
    /// fragment of the cu stage, keyed by the function digest (memory tier
    /// only).
    CuFunc(Arc<CuSet>),
    /// Dependence profile + PET from the instrumented run (memory tier
    /// only).
    Profile(Arc<ProfiledRun>),
    /// Assembled analysis with every detector's findings (memory tier
    /// only).
    Analysis(Arc<Analysis>),
    /// Terminal report.
    Report(Arc<ProgramReport>),
}

/// A parsed disk record.
#[derive(Debug, Clone)]
pub struct DiskRecord {
    /// The stage's output digest (chains into downstream keys).
    pub digest: u64,
    /// Terminal report payload (rank stage only).
    pub report: Option<ProgramReport>,
}

/// Result of a cache probe.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// Live artifact in memory.
    Memory(Artifact, u64),
    /// Digest (and possibly payload) proven on disk; artifact not in memory.
    Disk(DiskRecord),
    /// Unknown key.
    Miss,
}

struct MemEntry {
    digest: u64,
    artifact: Artifact,
    /// Recency tick for LRU eviction.
    tick: u64,
}

struct MemCache {
    entries: HashMap<Key, MemEntry>,
    /// Every entry's key by its tick, least recently used first. Ticks
    /// are unique: each use takes the next one.
    recency: BTreeMap<u64, Key>,
    clock: u64,
}

/// The shared cache. All methods take `&self`; internal locking makes it
/// safe to share across the engine's worker pool.
pub struct Cache {
    vfs: Arc<dyn Vfs>,
    mem: Mutex<MemCache>,
    capacity: usize,
    dir: Option<PathBuf>,
    evictions: AtomicU64,
    disk_writes: AtomicU64,
    recovered: AtomicU64,
    quarantine_evicted: AtomicU64,
    /// Disk tier went read-only after an ENOSPC write failure.
    disk_write_disabled: AtomicBool,
    disabled_writes: AtomicU64,
}

/// Makes concurrent writers' temp files distinct even within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Cache {
    /// Create a cache holding at most `capacity` in-memory artifacts,
    /// persisting records under `dir` when given (the directory is created
    /// if missing).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> std::io::Result<Self> {
        Cache::new_via(Arc::new(RealFs), capacity, dir)
    }

    /// [`Cache::new`] against an explicit storage backend.
    pub fn new_via(
        vfs: Arc<dyn Vfs>,
        capacity: usize,
        dir: Option<PathBuf>,
    ) -> std::io::Result<Self> {
        if let Some(d) = &dir {
            vfs.create_dir_all(d)?;
        }
        Ok(Cache {
            vfs,
            mem: Mutex::new(MemCache {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            dir,
            evictions: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            quarantine_evicted: AtomicU64::new(0),
            disk_write_disabled: AtomicBool::new(false),
            disabled_writes: AtomicU64::new(0),
        })
    }

    /// Probe the memory tier, then the disk tier.
    pub fn lookup(&self, key: Key) -> Lookup {
        match self.get(key) {
            Some((artifact, digest)) => Lookup::Memory(artifact, digest),
            None => self.read_record(key).map_or(Lookup::Miss, Lookup::Disk),
        }
    }

    /// Probe the memory tier alone, refreshing the entry's recency.
    pub(crate) fn get(&self, key: Key) -> Option<(Artifact, u64)> {
        let mut mem = lock_recover(&self.mem);
        let mem = &mut *mem;
        mem.clock += 1;
        let tick = mem.clock;
        let e = mem.entries.get_mut(&key)?;
        mem.recency.remove(&e.tick);
        mem.recency.insert(tick, key);
        e.tick = tick;
        Some((e.artifact.clone(), e.digest))
    }

    /// Store a freshly computed stage output in both tiers. A report is
    /// rendered into its disk record by reference, never copied.
    pub fn insert(&self, key: Key, digest: u64, artifact: Artifact) {
        let report = match &artifact {
            Artifact::Report(r) => Some(Arc::clone(r)),
            _ => None,
        };
        self.insert_memory(key, digest, artifact);
        self.write_record(key, digest, report.as_deref());
    }

    /// Store into the memory tier only: the memory-only artifacts, and
    /// reports promoted from disk hits.
    pub fn insert_memory(&self, key: Key, digest: u64, artifact: Artifact) {
        let mut mem = lock_recover(&self.mem);
        mem.clock += 1;
        let tick = mem.clock;
        if let Some(old) = mem.entries.insert(key, MemEntry { digest, artifact, tick }) {
            mem.recency.remove(&old.tick);
        }
        mem.recency.insert(tick, key);
        while mem.entries.len() > self.capacity {
            // Evict the least-recently-used entry.
            let Some((_, victim)) = mem.recency.pop_first() else {
                break;
            };
            mem.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of live in-memory entries.
    pub fn mem_entries(&self) -> usize {
        lock_recover(&self.mem).entries.len()
    }

    /// Total LRU evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Disk record writes since creation.
    pub fn disk_writes(&self) -> u64 {
        self.disk_writes.load(Ordering::Relaxed)
    }

    /// Corrupt disk records quarantined (and thereby recovered from)
    /// since creation.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Quarantine corpses evicted to hold the [`QUARANTINE_CAP`] bound.
    pub fn quarantine_evicted(&self) -> u64 {
        self.quarantine_evicted.load(Ordering::Relaxed)
    }

    /// Whether an ENOSPC write failure has put the disk tier into
    /// read-only degradation.
    pub fn disk_write_disabled(&self) -> bool {
        self.disk_write_disabled.load(Ordering::Relaxed)
    }

    /// Record writes suppressed after the disk tier was disabled.
    pub fn disabled_writes(&self) -> u64 {
        self.disabled_writes.load(Ordering::Relaxed)
    }

    /// The persistence directory, if any.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn record_path(&self, key: Key) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key:016x}.rec")))
    }

    fn read_record(&self, key: Key) -> Option<DiskRecord> {
        let path = self.record_path(key)?;
        let bytes = self.vfs.read(&path).ok()?;
        let rec = parse_record(&bytes);
        if rec.is_none() {
            // Corrupt record: quarantine it out of the key's path so the
            // slot reads as a miss and the next execution regenerates it,
            // instead of failing this key forever.
            self.evict_excess_quarantine();
            if self.vfs.rename(&path, &path.with_extension("corrupt")).is_err() {
                let _ = self.vfs.remove_file(&path);
            }
            self.recovered.fetch_add(1, Ordering::Relaxed);
        }
        rec
    }

    /// Keep the quarantine below [`QUARANTINE_CAP`] before admitting one
    /// more corpse: evict oldest-first until a slot is free.
    fn evict_excess_quarantine(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(listing) = self.vfs.list_dir(dir) else { return };
        let mut corpses: Vec<PathBuf> =
            listing.into_iter().filter(|p| p.extension().is_some_and(|e| e == "corrupt")).collect();
        while corpses.len() >= QUARANTINE_CAP {
            let Some(oldest) = corpses
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| self.vfs.file_age(p).unwrap_or_default())
                .map(|(i, _)| i)
            else {
                return;
            };
            let victim = corpses.swap_remove(oldest);
            if self.vfs.remove_file(&victim).is_ok() {
                self.quarantine_evicted.fetch_add(1, Ordering::Relaxed);
            } else {
                return;
            }
        }
    }

    fn write_record(&self, key: Key, digest: u64, report: Option<&ProgramReport>) {
        let Some(path) = self.record_path(key) else { return };
        if self.disk_write_disabled.load(Ordering::Relaxed) {
            self.disabled_writes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tmp = path.with_extension(format!(
            "tmp.{:x}.{:x}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = render_record(digest, report);
        let outcome = self.vfs.write(&tmp, &bytes).and_then(|()| self.vfs.rename(&tmp, &path));
        match outcome {
            Ok(()) => {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = self.vfs.remove_file(&tmp);
                if is_enospc(&e) {
                    // A full disk fails every write from here on: degrade
                    // to the memory tier instead of paying a syscall storm
                    // and a failure per insert. Reads still serve.
                    self.disk_write_disabled.store(true, Ordering::Relaxed);
                    self.disabled_writes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Why a record failed [`check_record`]. Both read as a miss-and-
/// quarantine to the cache; `parpat fsck` reports them under distinct
/// codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordIssue {
    /// Structurally valid but the `sum` line disagrees with the body:
    /// bit-rot inside the record.
    Checksum,
    /// Does not parse at all.
    Malformed,
}

/// Serialize a record. Header lines are ASCII; string payloads are
/// length-prefixed raw bytes, so no escaping is needed. A `sum` line
/// (FNV-1a over everything after it) follows the magic so in-body rot is
/// detected on read.
fn render_record(digest: u64, report: Option<&ProgramReport>) -> Vec<u8> {
    let body = render_body(digest, report);
    let mut out = Vec::new();
    out.extend_from_slice(b"parpat-rec-v2\n");
    out.extend_from_slice(format!("sum {:016x}\n", hash_bytes(&body)).as_bytes());
    out.extend_from_slice(&body);
    out
}

fn render_body(digest: u64, report: Option<&ProgramReport>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(format!("digest {digest:016x}\n").as_bytes());
    if let Some(r) = report {
        let mut head = format!(
            "report {} {} {} {} {} {} {} {} {} {} {}",
            r.summary.len(),
            r.ranking.len(),
            r.insts,
            r.pipelines,
            r.fusions,
            r.reductions,
            r.geodecomp,
            r.task_regions,
            r.static_doall,
            r.input_sensitive.len(),
            r.consistency_errors.len(),
        );
        for l in r.input_sensitive.iter().chain(&r.consistency_errors) {
            head.push_str(&format!(" {l}"));
        }
        head.push('\n');
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(r.summary.as_bytes());
        out.extend_from_slice(r.ranking.as_bytes());
    }
    out
}

/// Parse a record; `None` on any malformed or checksum-failing input
/// (treated as a miss).
fn parse_record(bytes: &[u8]) -> Option<DiskRecord> {
    check_record(bytes).ok()
}

/// [`parse_record`] keeping the failure reason (for `parpat fsck`).
pub(crate) fn check_record(bytes: &[u8]) -> Result<DiskRecord, RecordIssue> {
    // v1 records lack the cross-validation fields; failing the magic
    // quarantines them and the slot regenerates in the new format.
    let rest = bytes.strip_prefix(b"parpat-rec-v2\n").ok_or(RecordIssue::Malformed)?;
    // Optional `sum` line: verify, then parse the body after it. Legacy
    // records (no sum) parse with no integrity check.
    let body = if rest.starts_with(b"sum ") {
        let nl = rest.iter().position(|&b| b == b'\n').ok_or(RecordIssue::Malformed)?;
        let expect = std::str::from_utf8(&rest[4..nl])
            .ok()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(RecordIssue::Malformed)?;
        let body = &rest[nl + 1..];
        if hash_bytes(body) != expect {
            return Err(RecordIssue::Checksum);
        }
        body
    } else {
        rest
    };
    parse_body(body).ok_or(RecordIssue::Malformed)
}

fn parse_body(bytes: &[u8]) -> Option<DiskRecord> {
    let mut rest = bytes;
    let mut line = || -> Option<&[u8]> {
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let (l, r) = rest.split_at(nl);
        rest = &r[1..];
        Some(l)
    };
    let digest_line = std::str::from_utf8(line()?).ok()?;
    let digest = u64::from_str_radix(digest_line.strip_prefix("digest ")?, 16).ok()?;
    let mut rec = DiskRecord { digest, report: None };
    while let Some(l) = line() {
        let l = std::str::from_utf8(l).ok()?;
        if let Some(v) = l.strip_prefix("insts ") {
            // Older releases' profile records: validated, not kept.
            v.parse::<u64>().ok()?;
        } else if let Some(v) = l.strip_prefix("report ") {
            let nums: Vec<u64> = v.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
            if nums.len() < 11 {
                return None;
            }
            let (head, lists) = nums.split_at(11);
            let [s_len, r_len, insts, p, f, r, g, t, sd, n_is, n_ce] = *head else { return None };
            let s_len = usize::try_from(s_len).ok()?;
            let r_len = usize::try_from(r_len).ok()?;
            let n_is = usize::try_from(n_is).ok()?;
            let n_ce = usize::try_from(n_ce).ok()?;
            // checked_add: near-usize::MAX lengths in a hostile header must
            // read as malformed, not overflow the bounds check.
            if lists.len() != n_is.checked_add(n_ce)? {
                return None;
            }
            let lines = |ns: &[u64]| -> Option<Vec<u32>> {
                ns.iter().map(|&n| u32::try_from(n).ok()).collect()
            };
            let input_sensitive = lines(&lists[..n_is])?;
            let consistency_errors = lines(&lists[n_is..])?;
            if rest.len() < s_len.checked_add(r_len)? {
                return None;
            }
            let summary = String::from_utf8(rest[..s_len].to_vec()).ok()?;
            let ranking = String::from_utf8(rest[s_len..s_len + r_len].to_vec()).ok()?;
            rec.report = Some(ProgramReport {
                summary,
                ranking,
                insts,
                pipelines: p as usize,
                fusions: f as usize,
                reductions: r as usize,
                geodecomp: g as usize,
                task_regions: t as usize,
                static_doall: sd as usize,
                input_sensitive,
                consistency_errors,
            });
            break;
        } else {
            return None;
        }
    }
    Some(rec)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use std::time::Duration;

    use super::*;
    use crate::fault::xorshift64;

    fn report() -> ProgramReport {
        ProgramReport {
            summary: "=== hotspots ===\nline \"quoted\" ✓\n".to_owned(),
            ranking: "1. reduction\n".to_owned(),
            insts: 12345,
            pipelines: 1,
            fusions: 2,
            reductions: 3,
            geodecomp: 4,
            task_regions: 5,
            static_doall: 6,
            input_sensitive: vec![4, 17],
            consistency_errors: vec![9],
        }
    }

    #[test]
    fn record_roundtrip_with_report() {
        let parsed = parse_record(&render_record(0xDEADBEEF, Some(&report()))).expect("parses");
        assert_eq!(parsed.digest, 0xDEADBEEF);
        assert_eq!(parsed.report, Some(report()));
    }

    #[test]
    fn record_roundtrip_digest_only() {
        let parsed = parse_record(&render_record(42, None)).expect("parses");
        assert_eq!(parsed.digest, 42);
        assert!(parsed.report.is_none());
    }

    #[test]
    fn malformed_records_are_misses() {
        assert!(parse_record(b"").is_none());
        assert!(parse_record(b"parpat-rec-v2\n").is_none());
        assert!(parse_record(b"parpat-rec-v2\ndigest zzz\n").is_none());
        assert!(parse_record(b"parpat-rec-v2\ndigest 01\ninsts three\n").is_none());
        // Stale v1 records (pre cross-validation) fail the magic.
        assert!(parse_record(b"parpat-rec-v1\ndigest 0000000000000001\n").is_none());
        // Old 8-number report header.
        assert!(parse_record(b"parpat-rec-v2\ndigest 01\nreport 1 0 0 0 0 0 0 0\ns").is_none());
        // Line-list length disagrees with the declared counts.
        assert!(
            parse_record(b"parpat-rec-v2\ndigest 01\nreport 0 0 0 0 0 0 0 0 0 2 0 4\n").is_none()
        );
        // Truncated payload.
        assert!(parse_record(b"parpat-rec-v2\ndigest 01\nreport 99 0 0 0 0 0 0 0 0 0 0\nshort")
            .is_none());
    }

    #[test]
    fn parse_record_never_panics_on_mutated_or_truncated_bytes() {
        let valid = render_record(0xABCD_EF01, Some(&report()));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2000 {
            // Flip 1–4 bytes of a valid record at xorshift-chosen offsets.
            let mut bytes = valid.clone();
            let flips = 1 + (xorshift64(&mut state) % 4) as usize;
            for _ in 0..flips {
                let i = (xorshift64(&mut state) as usize) % bytes.len();
                bytes[i] = (xorshift64(&mut state) & 0xFF) as u8;
            }
            let _ = parse_record(&bytes);
            // And every truncation of the mutated record.
            let cut = (xorshift64(&mut state) as usize) % (bytes.len() + 1);
            let _ = parse_record(&bytes[..cut]);
        }
    }

    #[test]
    fn hostile_report_lengths_are_misses_not_overflows() {
        let evil = format!(
            "parpat-rec-v2\ndigest 0000000000000001\nreport {} {} 0 0 0 0 0 0 0 0 0\nx",
            u64::MAX,
            u64::MAX
        );
        assert!(parse_record(evil.as_bytes()).is_none());
        let evil2 = format!(
            "parpat-rec-v2\ndigest 0000000000000001\nreport {} 2 0 0 0 0 0 0 0 0 0\nx",
            u64::MAX - 1
        );
        assert!(parse_record(evil2.as_bytes()).is_none());
        // Hostile line-list counts must not overflow the length check.
        let evil3 = format!(
            "parpat-rec-v2\ndigest 0000000000000001\nreport 0 0 0 0 0 0 0 0 0 {} {}\nx",
            u64::MAX,
            u64::MAX
        );
        assert!(parse_record(evil3.as_bytes()).is_none());
    }

    #[test]
    fn corrupt_disk_record_is_quarantined_and_counted() {
        let dir = std::env::temp_dir().join(format!("parpat-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(4, Some(dir.clone())).unwrap();
        cache.insert(9, 90, Artifact::Report(Arc::new(report())));
        let rec_path = dir.join(format!("{:016x}.rec", 9));
        std::fs::write(&rec_path, b"parpat-rec-v1\ndigest zzz\n").unwrap();

        // Cold memory tier, corrupt disk record: miss, quarantined, counted.
        let cache = Cache::new(4, Some(dir.clone())).unwrap();
        assert!(matches!(cache.lookup(9), Lookup::Miss));
        assert_eq!(cache.recovered(), 1);
        assert!(!rec_path.exists(), "corrupt record left in place");
        assert!(rec_path.with_extension("corrupt").exists());

        // The slot regenerates and serves again.
        cache.insert(9, 90, Artifact::Report(Arc::new(report())));
        let cache = Cache::new(4, Some(dir.clone())).unwrap();
        assert!(matches!(cache.lookup(9), Lookup::Disk(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let cache = Cache::new(2, None).unwrap();
        let art = |n: u64| {
            Artifact::Report(Arc::new(ProgramReport {
                summary: n.to_string(),
                ranking: String::new(),
                insts: n,
                pipelines: 0,
                fusions: 0,
                reductions: 0,
                geodecomp: 0,
                task_regions: 0,
                static_doall: 0,
                input_sensitive: vec![],
                consistency_errors: vec![],
            }))
        };
        cache.insert(1, 10, art(1));
        cache.insert(2, 20, art(2));
        // Touch 1 so 2 becomes LRU.
        assert!(matches!(cache.lookup(1), Lookup::Memory(..)));
        cache.insert(3, 30, art(3));
        assert_eq!(cache.evictions(), 1);
        assert!(matches!(cache.lookup(2), Lookup::Miss));
        assert!(matches!(cache.lookup(1), Lookup::Memory(..)));
        assert!(matches!(cache.lookup(3), Lookup::Memory(..)));
        assert_eq!(cache.mem_entries(), 2);
    }

    /// The memory tier's keys, sorted.
    fn mem_keys(cache: &Cache) -> Vec<Key> {
        let mut keys: Vec<Key> = lock_recover(&cache.mem).entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn lru_index_evicts_what_a_scan_would() {
        // The model is the scan the recency index replaced: every use takes
        // the next tick, and the entry with the smallest tick goes.
        let cache = Cache::new(8, None).unwrap();
        let mut model: HashMap<Key, u64> = HashMap::new();
        let (mut clock, mut evictions) = (0u64, 0u64);
        let mut state = 0x5EED_1A0E_u64;
        for step in 0..5000 {
            let key = xorshift64(&mut state) % 24;
            clock += 1;
            if xorshift64(&mut state).is_multiple_of(3) {
                let hit = cache.get(key).map(|(_, digest)| digest);
                let expected = model.get_mut(&key).map(|tick| {
                    *tick = clock;
                    key * 10
                });
                assert_eq!(hit, expected, "step {step}: get {key}");
            } else {
                // Inserts of a live key (re-inserts) refresh it.
                cache.insert_memory(key, key * 10, Artifact::Report(Arc::new(report())));
                model.insert(key, clock);
                while model.len() > 8 {
                    let (&victim, _) = model.iter().min_by_key(|(_, tick)| **tick).unwrap();
                    model.remove(&victim);
                    evictions += 1;
                }
            }
            let mut expected: Vec<Key> = model.keys().copied().collect();
            expected.sort_unstable();
            assert_eq!(mem_keys(&cache), expected, "step {step}: victims differ");
            assert_eq!(cache.evictions(), evictions, "step {step}");
            assert_eq!(cache.mem_entries(), model.len(), "step {step}");
        }
        assert!(evictions > 1000, "{evictions} evictions");
    }

    #[test]
    fn bit_rot_in_a_record_body_reads_as_checksum_corruption() {
        let valid = render_record(0xABCD, Some(&report()));
        let mut rotted = valid.clone();
        let at = rotted.len() - 4; // inside the ranking payload
        rotted[at] ^= 0x20;
        assert_eq!(check_record(&valid).map(|r| r.digest), Ok(0xABCD));
        assert_eq!(check_record(&rotted).map(|r| r.digest), Err(RecordIssue::Checksum));
        assert!(parse_record(&rotted).is_none(), "a rotted record is a miss");
    }

    /// The body is an old profile record, instruction count and all:
    /// records older releases wrote must still parse.
    #[test]
    fn legacy_records_without_a_sum_line_still_parse() {
        let legacy = b"parpat-rec-v2\ndigest 0000000000000042\ninsts 3\n";
        let parsed = parse_record(legacy).expect("legacy record parses");
        assert_eq!(parsed.digest, 0x42);
    }

    #[test]
    fn quarantine_is_capped_and_evicts_oldest() {
        use crate::vfs::SimFs;
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/cache");
        let cache = Cache::new_via(vfs.clone(), 4, Some(dir.clone())).unwrap();
        // Seed QUARANTINE_CAP corpses, oldest first, plus one fresh
        // corrupt record awaiting quarantine.
        for i in 0..QUARANTINE_CAP {
            let p = dir.join(format!("{i:016x}.corrupt"));
            vfs.write(&p, b"junk").unwrap();
            vfs.backdate(&p, Duration::from_secs((QUARANTINE_CAP - i) as u64 * 10));
        }
        vfs.write(&dir.join(format!("{:016x}.rec", 0x99)), b"not a record").unwrap();
        assert!(matches!(cache.lookup(0x99), Lookup::Miss));
        assert_eq!(cache.recovered(), 1);
        assert_eq!(cache.quarantine_evicted(), 1, "one corpse evicted to stay at the cap");
        let corpses: Vec<PathBuf> = vfs
            .list_dir(&dir)
            .unwrap()
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "corrupt"))
            .collect();
        assert_eq!(corpses.len(), QUARANTINE_CAP);
        assert!(
            !corpses.contains(&dir.join(format!("{:016x}.corrupt", 0))),
            "the oldest corpse is the one that went"
        );
        assert!(corpses.contains(&dir.join(format!("{:016x}.rec", 0x99)).with_extension("corrupt")));
    }

    #[test]
    fn enospc_disables_the_disk_write_tier_but_not_reads_or_memory() {
        use crate::vfs::{DiskFault, SimFs};
        let vfs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/cache");
        let cache = Cache::new_via(vfs.clone(), 4, Some(dir.clone())).unwrap();
        cache.insert(1, 10, Artifact::Report(Arc::new(report())));
        assert_eq!(cache.disk_writes(), 1);
        vfs.set_fault(Some(DiskFault::Enospc { at: vfs.ops() + 1, partial: Some(0) }));
        cache.insert(2, 20, Artifact::Report(Arc::new(report())));
        assert!(cache.disk_write_disabled(), "ENOSPC write failure disables the tier");
        cache.insert(3, 30, Artifact::Report(Arc::new(report())));
        assert_eq!(cache.disk_writes(), 1, "no further disk writes attempted");
        assert_eq!(cache.disabled_writes(), 2);
        // The memory tier still serves all three; the disk tier still
        // serves what it managed to persist.
        assert!(matches!(cache.lookup(2), Lookup::Memory(..)));
        assert!(matches!(cache.lookup(3), Lookup::Memory(..)));
        vfs.set_fault(None); // the operator made room
        let cold = Cache::new_via(vfs.clone(), 4, Some(dir)).unwrap();
        assert!(matches!(cold.lookup(1), Lookup::Disk(_)));
        assert!(matches!(cold.lookup(2), Lookup::Miss));
    }

    #[test]
    fn disk_tier_roundtrip() {
        let dir = std::env::temp_dir().join(format!("parpat-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = Cache::new(4, Some(dir.clone())).unwrap();
            cache.insert(7, 70, Artifact::Report(Arc::new(report())));
            assert_eq!(cache.disk_writes(), 1);
        }
        // Fresh cache, same dir: memory is cold, disk must answer.
        let cache = Cache::new(4, Some(dir.clone())).unwrap();
        match cache.lookup(7) {
            Lookup::Disk(rec) => {
                assert_eq!(rec.digest, 70);
                assert_eq!(rec.report, Some(report()));
            }
            other => panic!("expected disk hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
