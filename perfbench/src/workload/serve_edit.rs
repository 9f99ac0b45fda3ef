//! `serve-edit`: an editor session against a resident `parpat serve`.
//!
//! An in-process server with the `parpat serve` defaults (512-entry memory
//! tier, watchdog on) but one worker answers one client on a unix socket,
//! in a closed loop. Each cycle sends, per app, two re-submits of its
//! current version (full cache hits) and one in-place edit of one function
//! (per-function incremental re-analysis), in a seeded order. About one
//! edit per three requests puts p99 inside the block of the costliest
//! app's edits while p50 stays among the hits. Timing starts once the
//! `stats` verb reports memory-tier evictions.
//!
//! The server keeps no disk tier: the benchmark may write only inside its
//! checkout, which is on a disk, and there the tier's record writes
//! stalled whole runs (throughput spread 33% over ten seeds). The traced
//! run's mirror engine keeps the default disk tier behind the counting
//! `Vfs`, so its cost is still measured. In this op mix the disk tier never
//! answers a lookup (edits make new digests, re-submits hit memory), so the
//! mirror's outcomes still match the server's; the traced run checks that.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use parpat_core::AnalysisConfig;
use parpat_engine::{
    BatchInput, Engine, EngineConfig, Journal, JournalEntry, RealFs, Session, StoredOutcome,
};
use parpat_runtime::{ThreadPool, WatchdogConfig};
use parpat_serve::{parse_json, parse_request, Client, Json, ServeConfig, Server};
use parpat_static::diag::json_str;

use super::{end_to_end, ms, run_rounds, set_up, storage_layers, Args, Layers, Report};
use crate::gen::{Gen, Variant};
use crate::measure::MIN_TIMED_OPS;
use crate::trace::Recorder;
use crate::vfs::{CountingFs, VfsCounts};

/// Requests per app per cycle: re-submits, then one edit.
const HITS_PER_EDIT: usize = 2;
/// Cycles whose counts the traced run reports.
const COUNT_CYCLES: usize = 4;

/// A request kind of the op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Edit,
}

/// An engine configured like the server's plus the default disk tier, fed
/// the same requests, whose calls the traced run times in place of the
/// server's own.
struct Mirror {
    engine: Engine,
    session: Session,
    fs: Arc<CountingFs>,
}

/// A running server with a connected client, each app's current version,
/// and the mirror engine when tracing.
pub struct Serve {
    server: Option<Server>,
    client: Client,
    sock: PathBuf,
    gen: Gen,
    /// Each app's current version.
    current: Vec<Variant>,
    mirror: Option<Mirror>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.wait();
        }
    }
}

/// The checked fields of an analyze response.
#[derive(Debug, PartialEq)]
struct Answer {
    summary: u64,
    funcs_reanalyzed: u64,
}

fn answer(response: &str) -> Option<Answer> {
    let j = parse_json(response).ok()?;
    if j.get("status").and_then(Json::as_str) != Some("ok") {
        return None;
    }
    Some(Answer {
        summary: crate::hash(j.get("report")?.get("summary")?.as_str()?),
        funcs_reanalyzed: j.get("funcs_reanalyzed")?.as_num()? as u64,
    })
}

impl Serve {
    fn request(&mut self, app: usize) -> (BatchInput, std::io::Result<String>) {
        let v = &self.current[app];
        let input = BatchInput { name: self.gen.name(v).to_owned(), source: self.gen.source(v) };
        let out = self.client.analyze(&input.name, &input.source);
        (input, out)
    }

    /// Send `app`'s current version, and mirror it when tracing.
    fn submit(&mut self, app: usize) -> Result<(), String> {
        let (input, out) = self.request(app);
        let response = out.map_err(|e| format!("set-up request failed: {e}"))?;
        if answer(&response).is_none() {
            return Err(format!("set-up request for `{}` failed: {response}", input.name));
        }
        if let Some(m) = &self.mirror {
            m.engine.analyze_in_session(&m.session, &input);
        }
        Ok(())
    }

    fn evictions(&mut self) -> Result<f64, String> {
        let stats = self.client.stats().map_err(|e| format!("stats request failed: {e}"))?;
        parse_json(&stats)
            .ok()
            .and_then(|j| j.get("stats")?.get("cache")?.get("evictions")?.as_num())
            .ok_or_else(|| format!("malformed stats response: {stats}"))
    }

    /// One cycle of the op mix: per app, re-submits and one edit, in a
    /// seeded order.
    fn cycle(&mut self) -> Vec<(usize, Kind)> {
        let n = self.gen.templates().len();
        let mut ops: Vec<(usize, Kind)> = (0..n)
            .flat_map(|a| {
                std::iter::repeat_n((a, Kind::Hit), HITS_PER_EDIT).chain([(a, Kind::Edit)])
            })
            .collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, self.gen.below(i + 1));
        }
        ops
    }

    /// Reconnect after a socket error, so later ops can proceed.
    fn reconnect(&mut self) -> Result<(), String> {
        self.client =
            Client::connect_unix(&self.sock).map_err(|e| format!("cannot reconnect: {e}"))?;
        Ok(())
    }
}

/// Pin to one CPU, start the server, submit every app, then edit until the
/// `stats` verb reports memory-tier evictions.
pub fn setup(args: &Args, mirrored: bool) -> Result<Serve, String> {
    // Before the server starts, so that its threads inherit the pin.
    crate::sys::pin_to_one_cpu()?;
    let sock = args.work.join("serve.sock");
    let server = Server::start(ServeConfig {
        tcp: None,
        unix: Some(sock.clone()),
        workers: 1,
        ..ServeConfig::default()
    })?;
    let client =
        Client::connect_unix(&sock).map_err(|e| format!("cannot connect to the server: {e}"))?;
    let mirror = if mirrored {
        let fs = Arc::new(CountingFs::default());
        let mirror_dir = args.work.join("mirror-cache");
        if mirror_dir.exists() {
            std::fs::remove_dir_all(&mirror_dir)
                .map_err(|e| format!("cannot clear {}: {e}", mirror_dir.display()))?;
        }
        let defaults = ServeConfig::default();
        let engine = Engine::new(EngineConfig {
            analysis: AnalysisConfig { limits: defaults.limits, ..Default::default() },
            cache_capacity: defaults.cache_capacity,
            cache_dir: Some(mirror_dir),
            watchdog: defaults.watchdog.then(WatchdogConfig::default),
            vfs: fs.clone(),
            ..Default::default()
        })
        .map_err(|e| format!("cannot build the mirror engine: {e}"))?;
        let session = engine.open_session();
        Some(Mirror { engine, session, fs })
    } else {
        None
    };
    let mut gen = Gen::new(args.seed)?;
    let n = gen.templates().len();
    let current: Vec<Variant> = (0..n).map(|a| gen.variant(a)).collect();
    let mut s = Serve { server: Some(server), client, sock, gen, current, mirror };
    for app in 0..n {
        s.submit(app)?;
    }
    let mut app = 0;
    while s.evictions()? == 0.0 {
        let Serve { gen, current, .. } = &mut s;
        gen.edit(&mut current[app]);
        s.submit(app)?;
        app = (app + 1) % n;
    }
    Ok(s)
}

/// An op's request and what came back, checked after the timed phase.
struct Sent {
    app: usize,
    version: Vec<u64>,
    answer: Option<Answer>,
}

/// Count ops whose response failed or differs from the one-shot
/// `parpat_core::analyze_source` summary of the same text.
fn failures(gen: &Gen, sent: &[Sent]) -> u64 {
    let cfg = AnalysisConfig::default();
    let mut versions: Vec<(usize, &[u64])> =
        sent.iter().map(|s| (s.app, s.version.as_slice())).collect();
    versions.sort();
    versions.dedup();
    let references: Vec<Option<u64>> = versions
        .iter()
        .map(|&(app, pads)| {
            let v = Variant { app, pads: pads.to_vec() };
            let src = gen.source(&v);
            parpat_core::analyze_source(&src, &cfg).ok().map(|a| crate::hash(&a.summary()))
        })
        .collect();
    let reference: std::collections::HashMap<(usize, &[u64]), Option<u64>> =
        versions.into_iter().zip(references).collect();
    sent.iter()
        .filter(|s| {
            let want = reference[&(s.app, s.version.as_slice())];
            want.is_none() || s.answer.as_ref().map(|a| a.summary) != want
        })
        .count() as u64
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Report, String> {
    let (mut s, setup_s) = set_up(args, || setup(args, false))?;
    let mut sent: Vec<Sent> = Vec::new();
    let mut t = run_rounds(args.seconds, MIN_TIMED_OPS, |t| {
        let ops = s.cycle();
        let mut responses = Vec::with_capacity(ops.len());
        t.open_window();
        for (app, kind) in ops {
            if kind == Kind::Edit {
                let Serve { gen, current, .. } = &mut s;
                gen.edit(&mut current[app]);
            }
            let block = if kind == Kind::Hit { "hit" } else { s.gen.templates()[app].name };
            let (_, out) = t.op(block, 1, || s.request(app));
            if out.is_err() {
                s.reconnect()?;
            }
            responses.push((app, s.current[app].pads.clone(), out));
        }
        t.close_window();
        for (app, version, out) in responses {
            sent.push(Sent { app, version, answer: out.ok().as_deref().and_then(answer) });
        }
        Ok(())
    })?;
    let rss = crate::sys::peak_rss_mb()?;
    t.failed += failures(&s.gen, &sent);
    drop(s);
    end_to_end(&t, setup_s, rss)
}

/// The traced run: each request, then the mirror engine on the same
/// input, the protocol pieces alone, an engine-free round trip, a pool
/// hand-off, and a batch-journal append of the mirror's outcome. The
/// journal probe is the only place a kept workload measures the journal:
/// it appends through `RealFs`, device flush included.
pub fn traced(args: &Args, rec: &mut Recorder) -> Result<Report, String> {
    let mut s = setup(args, true)?;
    let pool = ThreadPool::new(1);
    let journal_dir = args.work.join("journal");
    std::fs::create_dir_all(&journal_dir).map_err(|e| format!("cannot create journal dir: {e}"))?;
    let journal = Journal::start_via(Arc::new(RealFs), &journal_dir, args.seed)
        .map_err(|e| format!("cannot start the journal: {e}"))?;
    let n = s.gen.templates().len();
    let count_ops = COUNT_CYCLES * n * (HITS_PER_EDIT + 1);
    let m = s.mirror.as_ref().expect("traced set-up mirrors");
    let fs_before = m.fs.counts();
    let stats_before = m.engine.session_stats(&m.session, 1).cache;
    let evictions_before = m.engine.cache().evictions();
    let mut counted = VfsCounts::default();
    let (mut hit_ratio, mut evictions, mut mem_entries) = (0.0, 0, 0);
    let (mut edits, mut reanalyzed) = (0u64, 0u64);
    let mut sent: Vec<Sent> = Vec::new();
    let mut mirror_mismatches = 0;
    let mut op = 0u64;
    let mut t = run_rounds(args.seconds, count_ops, |t| {
        let ops = s.cycle();
        t.open_window();
        for (app, kind) in ops {
            if kind == Kind::Edit {
                let Serve { gen, current, .. } = &mut s;
                gen.edit(&mut current[app]);
            }
            rec.set_op(op);
            op += 1;
            let block = if kind == Kind::Hit { "hit" } else { s.gen.templates()[app].name };
            let (out, mirrored) = t.op(block, 1, || {
                rec.span("op", |rec| {
                    let (input, out) = rec.span("serve.request", |_| s.request(app));
                    let m = s.mirror.as_ref().expect("traced set-up mirrors");
                    let mo = rec.span("engine.analyze_in_session", |_| {
                        m.engine.analyze_in_session(&m.session, &input)
                    });
                    let line = format!(
                        "{{\"id\": \"c{op}\", \"cmd\": \"analyze\", \"name\": {}, \"source\": {}}}",
                        json_str(&input.name),
                        json_str(&input.source)
                    );
                    let parsed = rec.span("serve.parse_request", |_| parse_request(&line));
                    let json =
                        mo.outcome.report().map(|r| rec.span("serve.report_json", |_| r.to_json()));
                    rec.span("serve.apps", |_| s.client.request("{\"cmd\": \"apps\"}")).ok();
                    rec.span("runtime.handoff", |_| {
                        let (tx, rx) = mpsc::channel();
                        pool.spawn(move || {
                            let _ = tx.send(());
                        });
                        rx.recv().ok()
                    });
                    let appended = mo.outcome.report().map(|r| {
                        let entry = JournalEntry {
                            index: op as usize,
                            worker: 0,
                            fence: 0,
                            outcome: StoredOutcome::Ok {
                                report: r.clone(),
                                fully_cached: mo.fully_cached,
                            },
                        };
                        rec.span("journal.append", |_| journal.append(&entry).is_ok())
                    });
                    let mirrored = mo
                        .outcome
                        .report()
                        .filter(|_| parsed.is_ok() && json.is_some() && appended == Some(true))
                        .map(|r| crate::hash(&r.summary));
                    (out, (mirrored, mo.funcs_reanalyzed))
                })
            });
            if out.is_err() {
                s.reconnect()?;
            }
            let answer = out.ok().as_deref().and_then(answer);
            let (mirror_summary, funcs) = mirrored;
            if answer.as_ref().map(|a| (a.summary, a.funcs_reanalyzed))
                != mirror_summary.map(|h| (h, funcs))
            {
                mirror_mismatches += 1;
            }
            if kind == Kind::Edit && op as usize <= count_ops {
                edits += 1;
                reanalyzed += funcs;
            }
            if op as usize == count_ops {
                let m = s.mirror.as_ref().expect("traced set-up mirrors");
                counted = m.fs.counts().since(&fs_before);
                let c = m.engine.session_stats(&m.session, 1).cache;
                let (h, miss) = (c.hits - stats_before.hits, c.misses - stats_before.misses);
                hit_ratio = h as f64 / (h + miss).max(1) as f64;
                evictions = m.engine.cache().evictions() - evictions_before;
                mem_entries = m.engine.cache().mem_entries();
            }
            sent.push(Sent { app, version: s.current[app].pads.clone(), answer });
        }
        t.close_window();
        Ok(())
    })?;
    t.failed += failures(&s.gen, &sent) + mirror_mismatches;
    let m = s.mirror.as_ref().expect("traced set-up mirrors");
    let all = m.fs.counts().since(&fs_before);
    drop(s);

    let programs = t.programs;
    let p = programs as f64;
    let mut l = Layers::default();
    l.set("trace.programs_per_s", t.programs_per_s());
    let request = rec.total("serve.request");
    l.per_program("op.wall_ms", request, programs);
    l.per_program("serve.rtt_ms", rec.total("serve.apps"), programs);
    // The mirror's disk tier is work the server does not do.
    let mirror = ms(rec.total("engine.analyze_in_session")) - ms(all.read + all.write + all.sync);
    l.set("serve.self_ms", (ms(request) - mirror) / p);
    l.per_program("serve.parse_request_ms", rec.total("serve.parse_request"), programs);
    l.per_program("serve.report_json_ms", rec.total("serve.report_json"), programs);
    l.per_program("runtime.handoff_ms", rec.total("runtime.handoff"), programs);
    storage_layers(&mut l, &counted, count_ops as f64, &all, programs);
    l.per_program("journal.append_ms", rec.total("journal.append"), programs);
    l.set("engine.hit_ratio", hit_ratio);
    l.set("engine.evictions", evictions as f64 / count_ops as f64);
    l.set("engine.mem_entries", mem_entries as f64);
    l.set("engine.funcs_reanalyzed_per_edit", reanalyzed as f64 / edits.max(1) as f64);
    Ok(Report { attempted: t.ops() as u64, failed: t.failed, metrics: l.into_metrics() })
}
