//! Service benchmark: batch throughput of the warm resident server
//! against the cold one-shot path, the latency of an incremental
//! single-function edit, and the tail latency + shed rate of a
//! deliberately overloaded server (more concurrent connectors than
//! slots and queue entries combined). Writes its report to
//! `BENCH_serve.json` in Cargo's per-target temporary directory
//! (`target/tmp`), where ci.sh checks it, besides the printed table.
//!
//! The comparison is deliberately end-to-end on the server side — every
//! request crosses a real TCP socket and the analysis pool — so the
//! measured speedup is what an editor-loop client would actually see,
//! not just a cache microbenchmark.

use std::time::{Duration, Instant};

use parpat_engine::{BatchInput, Engine, EngineConfig};
use parpat_serve::{parse_json, Client, Json, ServeConfig, Server};
use parpat_suite::all_apps;

/// Measured passes per side (one extra warm-up pass for the server).
const PASSES: usize = 3;

const EDIT_V1: &str = "global out[32];
fn scale(x) { return x * 2; }
fn main() {
    let sum = 0;
    for i in 0..32 {
        out[i] = scale(i);
        sum += out[i];
    }
    return sum;
}";

const EDIT_V2: &str = "global out[32];
fn scale(x) { return x * 2; }
fn main() {
    let sum = 0;
    for i in 0..32 {
        out[i] = scale(i);
        sum += out[i] + 1;
    }
    return sum;
}";

/// Cold one-shot baseline: a fresh engine (empty cache) per pass, like
/// invoking `parpat batch apps` from scratch each time.
fn cold_oneshot(programs: usize) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..PASSES {
        let engine = Engine::new(EngineConfig::default()).expect("engine");
        let start = Instant::now();
        for app in all_apps() {
            let outcome = engine.analyze_one(&BatchInput {
                name: app.name.to_owned(),
                source: app.model.to_owned(),
            });
            assert!(outcome.outcome.is_ok(), "{} analyzes cleanly", app.name);
        }
        total += start.elapsed();
    }
    assert_eq!(programs, all_apps().len());
    total / PASSES as u32
}

/// Warm resident server: one warm-up pass fills the cache, then each
/// measured pass re-submits the whole suite over the socket.
fn warm_server(client: &mut Client, programs: usize) -> Duration {
    // Warm-up: populate the cache (not measured).
    for app in all_apps() {
        let response = client.analyze_app(app.name).expect("analyze");
        assert!(response.contains("\"status\": \"ok\""), "{response}");
    }
    let mut total = Duration::ZERO;
    for _ in 0..PASSES {
        let start = Instant::now();
        for app in all_apps() {
            let response = client.analyze_app(app.name).expect("analyze");
            assert!(response.contains("\"cached\": true"), "warm pass must hit: {response}");
        }
        total += start.elapsed();
    }
    assert_eq!(programs, all_apps().len());
    total / PASSES as u32
}

/// Latency of re-submitting a file with exactly one edited function.
fn incremental_edit(client: &mut Client) -> (Duration, u64) {
    let cold = client.analyze("edit.ml", EDIT_V1).expect("analyze v1");
    assert!(cold.contains("\"status\": \"ok\""), "{cold}");
    let start = Instant::now();
    let warm = client.analyze("edit.ml", EDIT_V2).expect("analyze v2");
    let latency = start.elapsed();
    let v = parse_json(&warm).expect("valid JSON");
    let funcs = v.get("funcs_reanalyzed").and_then(Json::as_num).expect("counter") as u64;
    assert_eq!(funcs, 1, "only the edited function re-runs: {warm}");
    (latency, funcs)
}

/// Concurrent connectors hammering the overload stage.
const OVERLOAD_CLIENTS: usize = 8;
/// Requests each connector sends (fresh connection per request, so every
/// one crosses admission control).
const OVERLOAD_REQUESTS: usize = 25;

/// Overload stage: a deliberately small server (2 slots, queue depth 2)
/// under 8 concurrent connectors, one fresh connection per request.
/// Every answer must be either a successful cached report or a
/// structured `overloaded` shed; returns (p99 of successful requests,
/// shed count, total requests).
fn overload_tail() -> (Duration, usize, usize) {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        workers: 2,
        max_connections: 2,
        queue_depth: 2,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("overload server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();

    // Warm the cache so measured latencies are admission + cache-hit.
    let mut warmup = Client::connect_tcp(&addr).expect("connect");
    let response = warmup.analyze_app("sort").expect("warm-up");
    assert!(response.contains("\"status\": \"ok\""), "{response}");
    drop(warmup);

    let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut ok = Vec::new();
                let mut shed = 0usize;
                for _ in 0..OVERLOAD_REQUESTS {
                    let start = Instant::now();
                    let Ok(mut client) = Client::connect_tcp(&addr) else {
                        shed += 1;
                        continue;
                    };
                    match client.analyze_app("sort") {
                        Ok(r) if r.contains("\"code\": \"overloaded\"") => shed += 1,
                        Ok(r) => {
                            assert!(r.contains("\"status\": \"ok\""), "{r}");
                            ok.push(start.elapsed());
                        }
                        // A shed connection the client noticed as a close.
                        Err(_) => shed += 1,
                    }
                }
                (ok, shed)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut shed = 0usize;
    for h in handles {
        let (ok, s) = h.join().expect("overload client");
        latencies.extend(ok);
        shed += s;
    }
    let mut fresh = Client::connect_tcp(&addr).expect("connect");
    let _ = fresh.shutdown();
    server.wait();

    let total = OVERLOAD_CLIENTS * OVERLOAD_REQUESTS;
    assert_eq!(latencies.len() + shed, total, "every request was accounted for");
    assert!(!latencies.is_empty(), "some requests succeeded under overload");
    latencies.sort();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    (p99, shed, total)
}

fn main() {
    let programs = all_apps().len();
    let cold = cold_oneshot(programs);

    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp listener").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let warm = warm_server(&mut client, programs);
    let (edit_latency, edit_funcs) = incremental_edit(&mut client);

    let _ = client.shutdown();
    server.wait();

    let (p99, shed, total) = overload_tail();
    let shed_rate = shed as f64 / total as f64;

    let cold_tput = programs as f64 / cold.as_secs_f64();
    let warm_tput = programs as f64 / warm.as_secs_f64();
    let speedup = warm_tput / cold_tput;
    println!(
        "serve/cold_oneshot    {programs} programs in {:>10.3} ms  ({cold_tput:>8.1} programs/s)",
        cold.as_secs_f64() * 1e3
    );
    println!(
        "serve/warm_server     {programs} programs in {:>10.3} ms  ({warm_tput:>8.1} programs/s)",
        warm.as_secs_f64() * 1e3
    );
    println!("serve/speedup         {speedup:.1}x");
    println!(
        "serve/incremental     1-function edit re-analyzed {edit_funcs} function(s) in {:.3} ms",
        edit_latency.as_secs_f64() * 1e3
    );
    println!(
        "serve/overload        {OVERLOAD_CLIENTS} clients x {OVERLOAD_REQUESTS} reqs: \
         p99 {:.3} ms, shed {shed}/{total} ({:.1}%)",
        p99.as_secs_f64() * 1e3,
        shed_rate * 100.0
    );

    let json = format!(
        "{{\"programs\": {programs}, \"passes\": {PASSES}, \
         \"cold_oneshot\": {{\"wall_ms\": {:.3}, \"programs_per_sec\": {:.2}}}, \
         \"warm_server\": {{\"wall_ms\": {:.3}, \"programs_per_sec\": {:.2}}}, \
         \"speedup\": {:.2}, \
         \"incremental_edit\": {{\"latency_ms\": {:.3}, \"funcs_reanalyzed\": {edit_funcs}}}, \
         \"overload\": {{\"clients\": {OVERLOAD_CLIENTS}, \"requests\": {total}, \
         \"p99_ms\": {:.3}, \"shed\": {shed}, \"shed_rate\": {:.4}}}}}\n",
        cold.as_secs_f64() * 1e3,
        cold_tput,
        warm.as_secs_f64() * 1e3,
        warm_tput,
        speedup,
        edit_latency.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        shed_rate,
    );
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_serve.json");
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    println!("serve/report          {}", out.display());

    assert!(
        speedup >= 2.0,
        "warm server must be at least 2x the cold one-shot throughput, got {speedup:.2}x"
    );
}
