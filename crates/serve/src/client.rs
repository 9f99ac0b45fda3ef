//! A small blocking client for the service protocol.
//!
//! Used by the CLI-adjacent tooling, the integration tests, and the
//! benchmark harness; external clients can speak the protocol with
//! nothing more than `nc` (see the README quickstart).
//!
//! Every verb helper stamps its request with an auto-incrementing id
//! (`c0`, `c1`, …) and — when a [`RetryPolicy`] grants attempts — retries
//! `overloaded`/`transient` responses and transient socket failures with
//! deterministic jittered exponential backoff, reconnecting first (a
//! shed connection is closed by the server). Re-sent requests carry a
//! `"retry": k` member so the server's `retries_client` counter sees
//! them. The backoff sequence is a pure function of the policy seed, and
//! the sleep itself is injectable ([`Client::set_sleeper`]) so tests can
//! record the exact delays without waiting them out.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use parpat_engine::stats::json_str;
use parpat_engine::xorshift64;

use crate::json::{self, Json};

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Where this client connected, kept for retry reconnection.
enum Target {
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Client-side retry discipline for `overloaded`/transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries granted after the first attempt; `0` disables retrying.
    pub attempts: u32,
    /// First backoff ceiling, in milliseconds; attempt `k` doubles it.
    pub base_ms: u64,
    /// Hard cap on any single backoff delay, in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 0, base_ms: 25, max_ms: 2_000, seed: 0x5EED_CAFE }
    }
}

/// The sleep hook (overridable for deterministic backoff tests).
type Sleeper = Box<dyn FnMut(Duration) + Send>;

/// One connection to a running [`crate::Server`].
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
    target: Target,
    retry: RetryPolicy,
    /// Jitter state, advanced once per backoff.
    rng: u64,
    /// Next auto-assigned request id ordinal.
    next_id: u64,
    sleeper: Option<Sleeper>,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = tcp_stream(addr)?;
        let reader = BufReader::new(Stream::Tcp(stream.try_clone()?));
        Ok(Client {
            writer: Stream::Tcp(stream),
            reader,
            target: Target::Tcp(addr.to_owned()),
            retry: RetryPolicy::default(),
            rng: RetryPolicy::default().seed,
            next_id: 0,
            sleeper: None,
        })
    }

    /// Connect over a unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(Stream::Unix(stream.try_clone()?));
        Ok(Client {
            writer: Stream::Unix(stream),
            reader,
            target: Target::Unix(path.to_owned()),
            retry: RetryPolicy::default(),
            rng: RetryPolicy::default().seed,
            next_id: 0,
            sleeper: None,
        })
    }

    /// Arm retries: `policy.attempts` extra tries with deterministic
    /// jittered exponential backoff on `overloaded`/`transient` responses
    /// and transient socket failures.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
        self.rng = if policy.seed == 0 { 0x5EED_CAFE } else { policy.seed };
    }

    /// Replace the backoff clock: `f` is called instead of
    /// `thread::sleep` for every retry delay, so tests can record the
    /// deterministic sequence without waiting it out.
    pub fn set_sleeper(&mut self, f: impl FnMut(Duration) + Send + 'static) {
        self.sleeper = Some(Box::new(f));
    }

    /// The deterministic jittered backoff before retry `attempt`
    /// (1-based): "equal jitter" over an exponentially growing, capped
    /// ceiling — `cap/2 + (seeded jitter in 0..=cap/2)`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self.retry.base_ms.saturating_mul(1u64 << (attempt - 1).min(20));
        let cap = exp.min(self.retry.max_ms).max(1);
        let jitter = xorshift64(&mut self.rng) % (cap / 2 + 1);
        Duration::from_millis(cap / 2 + jitter)
    }

    fn sleep_for(&mut self, d: Duration) {
        match &mut self.sleeper {
            Some(f) => f(d),
            None => std::thread::sleep(d),
        }
    }

    /// Tear down the streams and dial the stored target again (a shed
    /// connection is closed server-side, so a retry needs a fresh one).
    fn reconnect(&mut self) -> std::io::Result<()> {
        match &self.target {
            Target::Tcp(addr) => {
                let stream = tcp_stream(addr)?;
                self.reader = BufReader::new(Stream::Tcp(stream.try_clone()?));
                self.writer = Stream::Tcp(stream);
            }
            #[cfg(unix)]
            Target::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                self.reader = BufReader::new(Stream::Unix(stream.try_clone()?));
                self.writer = Stream::Unix(stream);
            }
        }
        Ok(())
    }

    /// Send one request line and read one response line. No id stamping,
    /// no retries — the raw protocol primitive.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Send `members` (the request-object body, minus braces and id) with
    /// a stamped id, retrying per the policy.
    fn call(&mut self, members: &str) -> std::io::Result<String> {
        let ordinal = self.next_id;
        self.next_id += 1;
        let mut attempt = 0u32;
        loop {
            let line = if attempt == 0 {
                format!("{{\"id\": \"c{ordinal}\", {members}}}")
            } else {
                format!("{{\"id\": \"c{ordinal}\", \"retry\": {attempt}, {members}}}")
            };
            match self.request(&line) {
                Ok(response) => {
                    if attempt < self.retry.attempts && retryable_response(&response) {
                        attempt += 1;
                        let d = self.backoff(attempt);
                        self.sleep_for(d);
                        // An overloaded shed closes the connection; a
                        // fresh dial is correct for both cases.
                        self.reconnect()?;
                        continue;
                    }
                    return Ok(response);
                }
                Err(e) if attempt < self.retry.attempts && transient_io(&e) => {
                    attempt += 1;
                    let d = self.backoff(attempt);
                    self.sleep_for(d);
                    self.reconnect()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Analyze inline source under a display name.
    pub fn analyze(&mut self, name: &str, source: &str) -> std::io::Result<String> {
        self.call(&format!(
            "\"cmd\": \"analyze\", \"name\": {}, \"source\": {}",
            json_str(name),
            json_str(source)
        ))
    }

    /// Analyze a bundled benchmark by name.
    pub fn analyze_app(&mut self, app: &str) -> std::io::Result<String> {
        self.call(&format!("\"cmd\": \"analyze\", \"app\": {}", json_str(app)))
    }

    /// Analyze inline source under a client-side deadline (ms).
    pub fn analyze_within(
        &mut self,
        name: &str,
        source: &str,
        deadline_ms: u64,
    ) -> std::io::Result<String> {
        self.call(&format!(
            "\"cmd\": \"analyze\", \"name\": {}, \"source\": {}, \"deadline_ms\": {deadline_ms}",
            json_str(name),
            json_str(source)
        ))
    }

    /// Lint inline source.
    pub fn lint(&mut self, name: &str, source: &str) -> std::io::Result<String> {
        self.call(&format!(
            "\"cmd\": \"lint\", \"name\": {}, \"source\": {}",
            json_str(name),
            json_str(source)
        ))
    }

    /// Verify inline source against the IR invariants.
    pub fn verify(&mut self, name: &str, source: &str) -> std::io::Result<String> {
        self.call(&format!(
            "\"cmd\": \"verify\", \"name\": {}, \"source\": {}",
            json_str(name),
            json_str(source)
        ))
    }

    /// Fetch the service-lifetime statistics.
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.call("\"cmd\": \"stats\"")
    }

    /// Ask the service to shut down.
    pub fn shutdown(&mut self) -> std::io::Result<String> {
        self.call("\"cmd\": \"shutdown\"")
    }
}

fn tcp_stream(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // The protocol is one small request line per response line —
    // Nagle's algorithm would serialize every round trip against the
    // peer's delayed ACK.
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// `true` for structured error responses worth re-sending: the server
/// shed the request (`overloaded`) or an injected transient fault asked
/// for a retry (`transient`).
fn retryable_response(response: &str) -> bool {
    let Ok(value) = json::parse(response) else {
        return false;
    };
    if value.get("status").and_then(Json::as_str) != Some("error") {
        return false;
    }
    matches!(value.get("code").and_then(Json::as_str), Some("overloaded" | "transient"))
}

/// `true` for socket failures that a reconnect can heal: the peer closed
/// or reset mid-exchange (e.g. a shed connection, a server-side torn
/// write), not a refused or unreachable address.
fn transient_io(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn retryable_codes_are_exactly_overloaded_and_transient() {
        assert!(retryable_response(
            r#"{"status": "error", "code": "overloaded", "message": "m", "queue_depth": 3, "retry_after_ms": 100}"#
        ));
        assert!(retryable_response(r#"{"status": "error", "code": "transient", "message": "m"}"#));
        assert!(!retryable_response(r#"{"status": "error", "code": "bad-json", "message": "m"}"#));
        assert!(!retryable_response(r#"{"status": "ok", "code": "overloaded"}"#));
        assert!(!retryable_response("not json"));
    }

    #[test]
    fn transient_io_spares_hard_failures() {
        use std::io::{Error, ErrorKind};
        for k in [
            ErrorKind::UnexpectedEof,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
        ] {
            assert!(transient_io(&Error::new(k, "x")), "{k:?}");
        }
        assert!(!transient_io(&Error::new(ErrorKind::ConnectionRefused, "x")));
        assert!(!transient_io(&Error::new(ErrorKind::PermissionDenied, "x")));
    }
}
