//! The resident analysis server.
//!
//! One [`Server`] owns one shared [`Engine`] (and therefore one shared
//! two-tier artifact cache), one work-stealing [`ThreadPool`] for
//! analysis jobs, and up to two listeners (TCP and unix-domain socket).
//! Each accepted connection gets a lightweight I/O thread that decodes
//! request lines, submits analysis work to the pool, and writes one
//! response line per request. Because the *cache* is the shared state —
//! not the connections — a client that disconnects mid-request cannot
//! poison anything: its job finishes on the pool, the response write
//! fails quietly, and every artifact it produced stays warm for the next
//! client.
//!
//! Incremental re-analysis falls out of the engine's per-function digest
//! chain: re-submitting an edited file re-runs only the stage fragments
//! of the functions whose digests changed, and the response reports how
//! many (`funcs_reanalyzed`) alongside whether the whole program came
//! from the cache (`cached`).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parpat_core::AnalysisConfig;
use parpat_engine::stats::json_str;
use parpat_engine::{
    AnalysisOutcome, BatchInput, Engine, EngineConfig, EngineStats, ErrorKind, FaultMode, Session,
};
use parpat_runtime::{lock_recover, ThreadPool, WatchdogConfig};

use crate::config::{ChaosConfig, ServeConfig};
use crate::proto::{
    error_json, overloaded_json, parse_request, Command, Frame, FrameReader, Request, SourceSpec,
};

/// Poll interval for non-blocking accept loops and idle connections.
const POLL: Duration = Duration::from_millis(20);

/// How long [`Server::wait`] gives open connections to drain after a
/// shutdown request before giving up on them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Extra slack the result-channel backstop grants past a request's
/// deadline before declaring the worker wedged: the cooperative
/// cancellation path (watchdog poll plus interpreter beat cadence) needs
/// a moment to surface the structured outcome.
const DEADLINE_SLACK: Duration = Duration::from_secs(2);

/// A connection admitted past the active cap, parked until a slot frees.
struct Queued {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
}

/// Per-request fault injection for the serve-layer chaos harness: a
/// deterministic xorshift roll over the request arrival order.
struct ChaosState {
    seed: u64,
    fault_permille: u16,
    requests: AtomicU64,
}

impl ChaosState {
    fn new(cfg: ChaosConfig) -> ChaosState {
        ChaosState {
            seed: cfg.seed,
            fault_permille: cfg.fault_permille,
            requests: AtomicU64::new(0),
        }
    }

    /// The fault to inject into this request, if the die says so. The
    /// sequence is a pure function of the seed and the request ordinal.
    fn roll(&self) -> Option<FaultMode> {
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let mut s = self.seed ^ n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if s == 0 {
            s = 0x2545_F491_4F6C_DD1D;
        }
        if parpat_engine::xorshift64(&mut s) % 1000 >= u64::from(self.fault_permille) {
            return None;
        }
        Some(match parpat_engine::xorshift64(&mut s) % 4 {
            0 => FaultMode::Fail(ErrorKind::Runtime),
            1 => FaultMode::Panic,
            2 => FaultMode::Stall(40),
            _ => FaultMode::Transient(1),
        })
    }
}

/// Shared service state, visible to every connection thread.
struct Shared {
    engine: Arc<Engine>,
    session: Session,
    pool: ThreadPool,
    shutdown: AtomicBool,
    /// Count of live connection threads, guarded for the drain condvar.
    active: Mutex<usize>,
    /// Notified whenever a connection thread exits, so shutdown drains
    /// without busy-polling.
    drained: Condvar,
    /// Bounded admission queue: connections waiting for an active slot.
    queue: Mutex<VecDeque<Queued>>,
    queue_depth: usize,
    max_connections: usize,
    max_frame: usize,
    request_deadline: Option<Duration>,
    idle_timeout: Duration,
    chaos: Option<ChaosState>,
    cache_dir: Option<PathBuf>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Claim one active-connection slot if any is free.
    fn try_acquire_slot(&self) -> bool {
        let mut active = lock_recover(&self.active);
        if *active < self.max_connections {
            *active += 1;
            true
        } else {
            false
        }
    }

    /// Give an active-connection slot back and wake the drain waiter.
    fn release_slot(&self) {
        let mut active = lock_recover(&self.active);
        *active = active.saturating_sub(1);
        drop(active);
        self.drained.notify_all();
    }

    /// Persist service-lifetime stats next to the cache (best-effort),
    /// so `parpat stats` reports on the service like on a batch.
    fn persist_stats(&self) -> EngineStats {
        let stats = self.engine.session_stats(&self.session, self.pool.threads() as u64);
        if let Some(dir) = &self.cache_dir {
            let _ = stats.persist_via(self.engine.vfs().as_ref(), dir);
        }
        stats
    }
}

/// A running analysis service. Dropping the handle does *not* stop the
/// daemon — call [`Server::request_shutdown`] (or send the `shutdown`
/// verb) and then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Validate `cfg`, bind the listeners, and start accepting clients.
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        cfg.validate().map_err(|issues| ServeConfig::explain(&issues))?;
        let engine = Engine::new(EngineConfig {
            analysis: AnalysisConfig { limits: cfg.limits, ..Default::default() },
            cache_capacity: cfg.cache_capacity,
            cache_dir: cfg.cache_dir.clone(),
            watchdog: cfg.watchdog.then(WatchdogConfig::default),
            ..Default::default()
        })
        .map_err(|e| format!("cannot set up cache directory: {e}"))?;
        let session = engine.open_session();
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            session,
            pool: ThreadPool::new(cfg.workers),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(0),
            drained: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_depth: cfg.queue_depth,
            max_connections: cfg.max_connections,
            max_frame: cfg.max_frame,
            request_deadline: cfg.request_deadline_ms.map(Duration::from_millis),
            idle_timeout: Duration::from_millis(cfg.idle_timeout_ms),
            chaos: cfg.chaos.map(ChaosState::new),
            cache_dir: cfg.cache_dir.clone(),
        });

        let mut accept_threads = Vec::new();
        let tcp_addr = match &cfg.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| format!("cannot bind tcp listener on `{addr}`: {e}"))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| format!("cannot resolve bound tcp address: {e}"))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("cannot set tcp listener non-blocking: {e}"))?;
                let shared = Arc::clone(&shared);
                accept_threads.push(
                    std::thread::Builder::new()
                        .name("parpat-serve-tcp".into())
                        .spawn(move || accept_tcp(listener, &shared))
                        .map_err(|e| format!("cannot spawn accept thread: {e}"))?,
                );
                Some(local)
            }
            None => None,
        };
        #[cfg(unix)]
        let unix_path = match &cfg.unix {
            Some(path) => {
                // The daemon owns its socket path: remove a stale file
                // from a previous run before binding.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| format!("cannot bind unix socket `{}`: {e}", path.display()))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("cannot set unix listener non-blocking: {e}"))?;
                let shared = Arc::clone(&shared);
                accept_threads.push(
                    std::thread::Builder::new()
                        .name("parpat-serve-unix".into())
                        .spawn(move || accept_unix(listener, &shared))
                        .map_err(|e| format!("cannot spawn accept thread: {e}"))?,
                );
                Some(path.clone())
            }
            None => None,
        };
        #[cfg(not(unix))]
        let unix_path: Option<PathBuf> = match &cfg.unix {
            Some(_) => return Err("unix-domain sockets are not available on this platform".into()),
            None => None,
        };

        Ok(Server { shared, tcp_addr, unix_path, accept_threads })
    }

    /// The bound TCP address (the actual port when `:0` was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The unix socket path, when that listener is enabled.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Ask the service to stop (same effect as the `shutdown` verb).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Block until shutdown, drain connections and in-flight jobs, then
    /// return the service-lifetime statistics (also persisted to the
    /// cache directory, when one is configured).
    pub fn wait(self) -> EngineStats {
        for t in self.accept_threads {
            let _ = t.join();
        }
        // Queued connections never got a thread: answer each with a
        // structured error instead of a silent close.
        let parked: Vec<Queued> = lock_recover(&self.shared.queue).drain(..).collect();
        for mut q in parked {
            let _ = respond(
                &mut q.writer,
                &error_json(None, "shutting-down", "service is shutting down"),
            );
        }
        // Give open connections a bounded window to finish their last
        // request. Each exiting connection thread notifies the condvar,
        // so the drain completes the instant the last one leaves instead
        // of on the next poll tick.
        let deadline = Instant::now() + DRAIN_GRACE;
        let mut active = lock_recover(&self.shared.active);
        while *active > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            active = self
                .shared
                .drained
                .wait_timeout(active, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(active);
        self.shared.pool.wait_idle();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.shared.persist_stats()
    }
}

fn accept_tcp(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => admit(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

#[cfg(unix)]
fn accept_unix(listener: UnixListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => admit(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Abstraction over the two stream types: split into an owned reader and
/// writer, and arm a read timeout so idle connections can observe the
/// shutdown flag.
trait Conn: Sized + Send + 'static {
    type Reader: Read + Send + 'static;
    type Writer: Write + Send + 'static;
    fn split(self) -> std::io::Result<(Self::Reader, Self::Writer)>;
}

impl Conn for TcpStream {
    type Reader = TcpStream;
    type Writer = TcpStream;
    fn split(self) -> std::io::Result<(TcpStream, TcpStream)> {
        self.set_read_timeout(Some(POLL))?;
        // Request/response round trips are latency-bound: never wait for
        // an ACK to coalesce the next small segment.
        self.set_nodelay(true)?;
        let writer = self.try_clone()?;
        Ok((self, writer))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    type Reader = UnixStream;
    type Writer = UnixStream;
    fn split(self) -> std::io::Result<(UnixStream, UnixStream)> {
        self.set_read_timeout(Some(POLL))?;
        let writer = self.try_clone()?;
        Ok((self, writer))
    }
}

/// Admit one accepted stream: claim an active slot if one is free,
/// otherwise park the connection in the bounded admission queue — and
/// only when *that* is full, shed the request with a structured
/// `overloaded` error carrying the queue depth and a retry-after hint.
fn admit<S: Conn>(stream: S, shared: &Arc<Shared>) {
    let (reader, writer) = match stream.split() {
        Ok(pair) => pair,
        Err(_) => return,
    };
    let reader: Box<dyn Read + Send> = Box::new(reader);
    let writer: Box<dyn Write + Send> = Box::new(writer);
    let mut conn = Some(Queued { reader, writer });
    if shared.try_acquire_slot() {
        spawn_conn(conn.take().expect("freshly wrapped"), shared);
        return;
    }
    let shed_depth = {
        let mut queue = lock_recover(&shared.queue);
        if queue.len() < shared.queue_depth {
            queue.push_back(conn.take().expect("freshly wrapped"));
            None
        } else {
            Some(queue.len())
        }
    };
    match shed_depth {
        None => {
            // A slot may have freed between the failed claim and the
            // enqueue; a dispatch pass closes that window (the same pass
            // every exiting connection thread runs).
            dispatch_queued(shared);
        }
        Some(depth) => {
            shared.session.note_shed();
            // Rough service-time heuristic: each parked connection ahead
            // costs one request's worth of pool latency.
            let retry_after_ms = (depth as u64 + 1) * 25;
            if let Some(mut shed) = conn {
                let _ = respond(&mut shed.writer, &overloaded_json(None, depth, retry_after_ms));
            }
        }
    }
}

/// Move parked connections onto freed slots: claim a slot, pop the
/// oldest queued connection, hand it a thread; repeat until either runs
/// out. Called after every enqueue and after every slot release, which
/// together close the race where a slot frees while a connection is
/// being parked.
fn dispatch_queued(shared: &Arc<Shared>) {
    loop {
        if !shared.try_acquire_slot() {
            return;
        }
        let next = lock_recover(&shared.queue).pop_front();
        match next {
            Some(conn) => spawn_conn(conn, shared),
            None => {
                shared.release_slot();
                return;
            }
        }
    }
}

/// Give one admitted connection its I/O thread. The slot is already
/// claimed; the thread releases it on exit and then runs a dispatch pass
/// so a parked connection inherits the slot immediately.
fn spawn_conn(conn: Queued, shared: &Arc<Shared>) {
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name("parpat-serve-conn".into()).spawn(move || {
        serve_connection(conn.reader, conn.writer, &conn_shared);
        conn_shared.release_slot();
        dispatch_queued(&conn_shared);
    });
    if spawned.is_err() {
        shared.release_slot();
    }
}

/// The per-connection request/response loop. The idle clock runs from
/// the last *completed* frame: a connection that holds its slot past the
/// idle timeout — silent or dribbling bytes that never finish a line —
/// is answered with a structured `idle-timeout` error and closed.
fn serve_connection<R: Read, W: Write>(reader: R, mut writer: W, shared: &Arc<Shared>) {
    let mut frames = FrameReader::new(reader, shared.max_frame);
    let mut last_frame = Instant::now();
    loop {
        if shared.shutting_down() {
            return;
        }
        let frame = match frames.next_frame_before(Some(last_frame + shared.idle_timeout)) {
            Ok(f) => f,
            Err(_) => return,
        };
        let line = match frame {
            Frame::Idle => continue,
            Frame::Eof => return,
            Frame::TimedOut => {
                let _ = respond(
                    &mut writer,
                    &error_json(
                        None,
                        "idle-timeout",
                        &format!(
                            "no complete request within {} ms, closing",
                            shared.idle_timeout.as_millis()
                        ),
                    ),
                );
                return;
            }
            Frame::Torn(n) => {
                // Best-effort: the peer is usually gone already.
                let _ = respond(
                    &mut writer,
                    &error_json(
                        None,
                        "torn-frame",
                        &format!("connection closed with {n} unterminated byte(s) pending"),
                    ),
                );
                return;
            }
            Frame::Oversized => {
                let _ = respond(
                    &mut writer,
                    &error_json(
                        None,
                        "oversized-frame",
                        &format!("request exceeds the {}-byte frame limit", shared.max_frame),
                    ),
                );
                return;
            }
            Frame::Line(bytes) => match String::from_utf8(bytes) {
                Ok(line) => line,
                Err(_) => {
                    if respond(
                        &mut writer,
                        &error_json(None, "invalid-utf8", "request line is not valid UTF-8"),
                    )
                    .is_err()
                    {
                        return;
                    }
                    continue;
                }
            },
        };
        last_frame = Instant::now();
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = handle_line(&line, shared);
        if respond(&mut writer, &response).is_err() {
            return;
        }
        if stop {
            return;
        }
    }
}

fn respond<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    // One write call per response: a split write could leave the
    // newline in a second TCP segment that Nagle holds back.
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    writer.write_all(framed.as_bytes())?;
    writer.flush()
}

/// Decode and execute one request line. Returns the response line and
/// whether the connection should close (shutdown).
fn handle_line(line: &str, shared: &Arc<Shared>) -> (String, bool) {
    let Request { id, cmd, deadline_ms, retry } = match parse_request(line) {
        Ok(req) => req,
        Err(e) => return (e.render(), false),
    };
    if retry > 0 {
        shared.session.note_client_retry();
    }
    // The deadline is absolute from this moment: queue time, chaos
    // stalls, and engine requeues all spend the same budget. The client's
    // own ask is honored but clamped to the service ceiling.
    let budget = match (deadline_ms.map(Duration::from_millis), shared.request_deadline) {
        (Some(req), Some(cap)) => Some(req.min(cap)),
        (Some(req), None) => Some(req),
        (None, cap) => cap,
    };
    let deadline = budget.map(|d| Instant::now() + d);
    match cmd {
        Command::Stats => (stats_response(id.as_deref(), shared), false),
        Command::Apps => (apps_response(id.as_deref()), false),
        Command::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (with_id(id.as_deref(), "\"status\": \"ok\", \"shutdown\": true".to_owned()), true)
        }
        Command::Analyze(spec) => (run_job(shared, id, spec, Verb::Analyze, deadline), false),
        Command::Lint(spec) => (run_job(shared, id, spec, Verb::Lint, deadline), false),
        Command::Verify(spec) => (run_job(shared, id, spec, Verb::Verify, deadline), false),
    }
}

/// Program-handling verbs that run on the analysis pool.
#[derive(Clone, Copy)]
enum Verb {
    Analyze,
    Lint,
    Verify,
}

/// Resolve the program text, schedule the work on the pool, and wait for
/// the result. The pool's unwind boundary means a panicking job kills
/// neither the worker nor this connection: the channel sender is dropped
/// and the client gets a structured `worker-lost` error. An armed chaos
/// plan injects its fault here — before the pool (structured failure,
/// transient) or inside the job (panic, stall). With a deadline, the
/// engine cancels the job cooperatively; the channel wait carries a
/// slack-extended timeout as a last-resort backstop against a worker so
/// wedged even cancellation cannot reach it.
fn run_job(
    shared: &Arc<Shared>,
    id: Option<String>,
    spec: SourceSpec,
    verb: Verb,
    deadline: Option<Instant>,
) -> String {
    let (name, source) = match spec {
        SourceSpec::Inline { name, source } => (name, source),
        SourceSpec::App(app) => match parpat_suite::app_named(&app) {
            Some(a) => (a.name.to_owned(), a.model.to_owned()),
            None => {
                return error_json(
                    id.as_deref(),
                    "unknown-app",
                    &format!("unknown app `{app}` — send {{\"cmd\": \"apps\"}} for the list"),
                )
            }
        },
    };
    if shared.shutting_down() {
        return error_json(id.as_deref(), "shutting-down", "service is shutting down");
    }
    let fault = shared.chaos.as_ref().and_then(ChaosState::roll);
    match fault {
        Some(FaultMode::Fail(_) | FaultMode::Miscompile) => {
            return error_json(id.as_deref(), "injected-fault", "chaos: injected request failure");
        }
        Some(FaultMode::Transient(_)) => {
            return error_json(
                id.as_deref(),
                "transient",
                "chaos: transient failure, safe to retry",
            );
        }
        _ => {}
    }
    let (tx, rx) = mpsc::channel::<String>();
    let job_shared = Arc::clone(shared);
    let job_id = id.clone();
    shared.pool.spawn(move || {
        if let Some(FaultMode::Panic) = fault {
            panic!("chaos: injected worker panic");
        }
        if let Some(FaultMode::Stall(ms)) = fault {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let out = match verb {
            Verb::Analyze => {
                analyze_response(&job_shared, job_id.as_deref(), &name, &source, deadline)
            }
            Verb::Lint => lint_response(job_id.as_deref(), &name, &source),
            Verb::Verify => verify_response(job_id.as_deref(), &name, &source),
        };
        let _ = tx.send(out);
    });
    let received = match deadline {
        Some(d) => {
            let wait = d.saturating_duration_since(Instant::now()) + DEADLINE_SLACK;
            rx.recv_timeout(wait).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => Some(d),
                mpsc::RecvTimeoutError::Disconnected => None,
            })
        }
        None => rx.recv().map_err(|_| None),
    };
    match received {
        Ok(response) => response,
        Err(Some(_)) => error_json(
            id.as_deref(),
            "deadline",
            "request deadline exceeded and the worker did not surface a result in time",
        ),
        Err(None) => error_json(
            id.as_deref(),
            "worker-lost",
            "analysis worker disappeared before producing a result",
        ),
    }
}

/// Prefix `body` with the echoed request id and wrap it in braces.
fn with_id(id: Option<&str>, body: String) -> String {
    match id {
        Some(id) => format!("{{\"id\": {}, {body}}}", json_str(id)),
        None => format!("{{{body}}}"),
    }
}

/// The analyze response. The `"name" … "status" … "cached" … "report"`
/// spine matches the one-shot CLI's `batch --json` program objects byte
/// for byte; the service appends its incremental-analysis counter.
fn analyze_response(
    shared: &Arc<Shared>,
    id: Option<&str>,
    name: &str,
    source: &str,
    deadline: Option<Instant>,
) -> String {
    let input = BatchInput { name: name.to_owned(), source: source.to_owned() };
    let outcome = shared.engine.analyze_in_session_before(&shared.session, &input, deadline);
    let body = match &outcome.outcome {
        AnalysisOutcome::Ok(r) => format!(
            "\"name\": {}, \"status\": \"ok\", \"cached\": {}, \"funcs_reanalyzed\": {}, \"report\": {}",
            json_str(&outcome.name),
            outcome.fully_cached,
            outcome.funcs_reanalyzed,
            r.to_json()
        ),
        AnalysisOutcome::Degraded(d) => format!(
            "\"name\": {}, \"status\": \"degraded\", \"degraded\": {}",
            json_str(&outcome.name),
            d.to_json()
        ),
        AnalysisOutcome::Err(e) => format!(
            "\"name\": {}, \"status\": \"error\", \"error\": {}",
            json_str(&outcome.name),
            e.to_json()
        ),
    };
    with_id(id, body)
}

fn lint_response(id: Option<&str>, name: &str, source: &str) -> String {
    let diags: Vec<String> =
        parpat_static::lint_source(source).iter().map(parpat_static::Diagnostic::to_json).collect();
    with_id(
        id,
        format!(
            "\"name\": {}, \"status\": \"ok\", \"diagnostics\": [{}]",
            json_str(name),
            diags.join(", ")
        ),
    )
}

fn verify_response(id: Option<&str>, name: &str, source: &str) -> String {
    let diags: Vec<String> = parpat_static::verify_source(source)
        .iter()
        .map(parpat_static::Diagnostic::to_json)
        .collect();
    with_id(
        id,
        format!(
            "\"name\": {}, \"status\": \"ok\", \"violations\": [{}]",
            json_str(name),
            diags.join(", ")
        ),
    )
}

fn stats_response(id: Option<&str>, shared: &Arc<Shared>) -> String {
    let stats = shared.persist_stats();
    with_id(id, format!("\"status\": \"ok\", \"stats\": {}", stats.render_json()))
}

/// The bundled benchmarks, sorted by name for a byte-stable listing.
fn apps_response(id: Option<&str>) -> String {
    let mut apps: Vec<String> = parpat_suite::all_apps()
        .iter()
        .chain(parpat_suite::synthetic_apps().iter())
        .map(|a| a.name.to_owned())
        .collect();
    apps.sort();
    let items: Vec<String> = apps.iter().map(|n| json_str(n)).collect();
    with_id(id, format!("\"status\": \"ok\", \"apps\": [{}]", items.join(", ")))
}
