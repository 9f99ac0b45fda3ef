//! Command-line interface logic for the `parpat` binary.
//!
//! Kept as a library module so the argument handling and output formatting
//! are unit-testable; `main.rs` is a thin shell around [`run`].

use std::fmt::Write as _;

use parpat_core::{
    analyze_source, infer_operator, rank_patterns, render_ranking, suggest_fission,
    suggest_peeling, AnalysisConfig, RankConfig,
};
use parpat_static::diag::json_str;

/// Usage text printed on demand and on argument errors.
pub const USAGE: &str =
    "parpat — parallel pattern detection in sequential programs (IPPS'16 reproduction)

USAGE:
    parpat analyze <file.ml> [--hotspot <percent>] [--max-steps <n>] [--timeout-ms <ms>]
                   [--max-mem-cells <n>]             full findings summary
    parpat suggest <file.ml> [--workers <n>] [--json]  ranked patterns + transformations
    parpat run <file.ml>                             execute the program, print stats
    parpat batch <dir|apps> [--jobs <n>] [--cache-dir <d>] [--max-steps <n>] [--timeout-ms <ms>]
                 [--max-mem-cells <n>] [--retries <n>] [--resume] [--sanitize] [--json]
                                                     analyze every .ml file of a directory (or the
                                                     bundled apps) in parallel with artifact caching
    parpat serve [--tcp <addr>] [--unix <path>] [--workers <n>] [--max-connections <n>]
                 [--queue-depth <n>] [--request-deadline-ms <ms>] [--idle-timeout-ms <ms>]
                 [--chaos-permille <n>] [--chaos-seed <n>]
                 [--cache-dir <d>] [--max-steps <n>] [--timeout-ms <ms>] [--max-mem-cells <n>]
                                                     resident analysis service: line-delimited JSON
                                                     over TCP/unix sockets, one warm shared cache,
                                                     per-function incremental re-analysis
    parpat stats [--cache-dir <d>] [--json]          per-stage stats persisted by the last batch
                                                     (or by a `parpat serve` session)
    parpat fsck <run-dir> [--repair]                 offline scrub of a cache/run directory:
                                                     journal framing + record checksums, cache
                                                     record integrity (stable F0xx codes; exits 1
                                                     on unrepaired damage; --repair quarantines
                                                     and truncates back to a resumable state)
    parpat lint <file.ml|dir|apps> [--json]          static dependence diagnostics with stable
                                                     codes (P001 carried dep, P020 proven do-all, …)
    parpat lint --explain <CODE>                     print the documentation for one stable
                                                     diagnostic code (L0xx, P0xx, or V0xx)
    parpat verify <file.ml|dir|apps>                 lower each program and check the tree IR and
                                                     its CFG/SSA form against their structural
                                                     invariants (V001–V009); exits 1 on any violation
    parpat shrink <file.ml> [--inject <corruption>]  minimize a failing program to a small
                                                     reproducer by deterministic delta debugging
    parpat demo <app> [--json]                       analyze a bundled benchmark (e.g. sort, ludcmp)
    parpat apps                                      list the bundled benchmarks
    parpat dot <file.ml> [--region <function>]       Graphviz DOT of a region's classified CU graph
    parpat help | --help | -h                        this text

Batch runs default to the `.parpat-cache` cache directory (pass
`--cache-dir none` for a purely in-memory cache); a warm second run skips
every unchanged stage and says so in the stats.

`--max-steps`, `--timeout-ms`, and `--max-mem-cells` bound every profiled
run (dynamic IR instructions / wall-clock milliseconds / allocated memory
cells). A program that exceeds a budget — or whose dynamic stages fail for
any other reason — is reported as *degraded* with its static results
(loops with their dependence verdicts, CU graph, statically proven do-all
candidates) instead of failing the whole batch.

Every batch run verifies the lowered IR and cross-checks each profiled
execution against an independent reference evaluator (the differential
oracle); a disagreement fails that program with a [MISCOMPILE] marker
instead of producing wrong pattern reports. `--sanitize` additionally
validates the recorded dependence stream. `parpat shrink` minimizes such
a failure; `--inject <corruption>` (swap-add-sub, out-of-range-slot,
bogus-line, drop-store) seeds one for testing the pipeline itself.

Batch runs journal every completed program to `journal.wal` in the cache
directory; after a crash or kill, `--resume` restores the completed
prefix from the journal and re-analyzes only the rest. `--retries <n>`
re-runs transiently failed programs (e.g. corrupted cache records) up to
n times with exponential backoff; a watchdog cancels and requeues stalled
jobs once.

`parpat serve` keeps the engine (and its cache) resident: clients send
one JSON request per line — `{\"cmd\": \"analyze\", \"app\": \"ludcmp\"}` or
`{\"cmd\": \"analyze\", \"name\": \"f.ml\", \"source\": \"…\"}` — and get one JSON
response per line. Re-submitting an edited file re-runs only the edited
functions' static/CU stages; the response's `funcs_reanalyzed` field and
`parpat stats` show it. Send `{\"cmd\": \"shutdown\"}` to stop the daemon.

Under load, connections beyond `--max-connections` park in a bounded
admission queue (`--queue-depth`, default 16); past that they are shed
with a structured `overloaded` error carrying a `retry_after_ms` hint.
`--request-deadline-ms` caps every request's wall-clock budget (clients
may ask for less via a `deadline_ms` member): an out-of-time analysis is
cancelled and answered with its degraded static report or a `deadline`
error. Clients that never complete a request line — slow-loris or
byte-dribbling peers — are cut off after `--idle-timeout-ms` (default
30000) with an `idle-timeout` error. `--chaos-permille <n>` injects a
deterministic fault (failure, worker panic, stall, or transient) into
roughly n/1000 requests, seeded by `--chaos-seed`, for soak-testing the
failure envelope.

The input is a MiniLang program (see README / crates/minilang). The bundled
benchmarks are the paper's 17 evaluation applications plus the two
synthetic reduction programs.";

/// Run the CLI on the given arguments (without the program name).
/// Returns the text to print, or an error message (exit status 1).
pub fn run(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") | None => Ok(USAGE.to_owned()),
        Some("analyze") => {
            let (path, opts) = split_opts(&args[1..])?;
            check_opts(
                "analyze",
                &opts,
                &["--hotspot", "--max-steps", "--timeout-ms", "--max-mem-cells"],
                &[],
            )?;
            let threshold = match opt_value(&opts, "--hotspot")? {
                Some(v) => {
                    let pct: f64 =
                        v.parse().map_err(|_| format!("invalid --hotspot value `{v}`"))?;
                    if !pct.is_finite() || pct <= 0.0 || pct > 100.0 {
                        return Err(format!(
                            "--hotspot must be a percentage in (0, 100], got `{v}`"
                        ));
                    }
                    pct / 100.0
                }
                None => 0.1,
            };
            let limits = exec_limits_opts(&opts)?;
            let src = read(&path)?;
            let cfg = AnalysisConfig { hotspot_threshold: threshold, limits, ..Default::default() };
            let analysis = analyze_source(&src, &cfg).map_err(|e| e.to_string())?;
            Ok(analysis.summary())
        }
        Some("suggest") => {
            let (path, opts) = split_opts(&args[1..])?;
            check_opts("suggest", &opts, &["--workers"], &["--json"])?;
            let workers = match opt_value(&opts, "--workers")? {
                Some(v) => {
                    let n: f64 = v.parse().map_err(|_| format!("invalid --workers value `{v}`"))?;
                    if !n.is_finite() || n < 1.0 {
                        return Err(format!(
                            "--workers must be a finite number of at least 1, got `{v}`"
                        ));
                    }
                    n
                }
                None => 8.0,
            };
            let src = read(&path)?;
            let analysis =
                analyze_source(&src, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
            if opts.iter().any(|o| o == "--json") {
                return Ok(json_report(&analysis));
            }

            let mut out = String::new();
            let ranked = rank_patterns(&analysis, &RankConfig { workers });
            if ranked.is_empty() {
                out.push_str("no parallel patterns detected\n");
            } else {
                writeln!(out, "=== ranked patterns (workers = {workers}) ===")
                    .expect("write to String");
                out.push_str(&render_ranking(&ranked));
            }

            let peels = suggest_peeling(&analysis.pipelines, 16);
            if !peels.is_empty() {
                writeln!(out, "=== peeling suggestions ===").expect("write to String");
                for p in &peels {
                    writeln!(out, "- {}", p.rationale).expect("write to String");
                }
            }
            let fissions = suggest_fission(
                &analysis.ir,
                &analysis.profile,
                &analysis.pet,
                &analysis.cus,
                &analysis.loop_classes,
                0.1,
            );
            if !fissions.is_empty() {
                writeln!(out, "=== fission suggestions ===").expect("write to String");
                for f in &fissions {
                    writeln!(
                        out,
                        "- distribute loop at line {}: {} unit(s) stay sequential, {} unit(s) become do-all ({} loop first)",
                        f.line,
                        f.sequential_cus.len(),
                        f.parallel_cus.len(),
                        if f.parallel_first { "do-all" } else { "sequential" }
                    )
                    .expect("write to String");
                }
            }
            if !analysis.reductions.is_empty() {
                writeln!(out, "=== reduction operators ===").expect("write to String");
                for r in &analysis.reductions {
                    match infer_operator(&analysis.ir, r) {
                        Some(op) => writeln!(
                            out,
                            "- `{}` at line {}: {op} reduction (identity {})",
                            r.var,
                            r.line,
                            op.identity()
                        )
                        .expect("write to String"),
                        None => writeln!(
                            out,
                            "- `{}` at line {}: operator not inferable, review manually",
                            r.var, r.line
                        )
                        .expect("write to String"),
                    }
                }
            }
            Ok(out)
        }
        Some("apps") => {
            check_opts("apps", &args[1..], &[], &[])?;
            let mut out = String::new();
            for app in parpat_suite::all_apps().iter().chain(parpat_suite::synthetic_apps().iter())
            {
                writeln!(out, "{:<14} {:<10} {}", app.name, app.suite.to_string(), app.expected)
                    .expect("write to String");
            }
            Ok(out)
        }
        Some("demo") => {
            let (name, opts) = split_opts(&args[1..])?;
            check_opts("demo", &opts, &[], &["--json"])?;
            let app = parpat_suite::app_named(&name)
                .ok_or_else(|| format!("unknown app `{name}` — try `parpat apps`"))?;
            let analysis = app.analyze().map_err(|e| e.to_string())?;
            if opts.iter().any(|o| o == "--json") {
                Ok(json_report(&analysis))
            } else {
                let mut out = format!(
                    "=== {} ({}) — paper pattern: {} ===\n",
                    app.name, app.suite, app.expected
                );
                out.push_str(&analysis.summary());
                Ok(out)
            }
        }
        Some("dot") => {
            let (path, opts) = split_opts(&args[1..])?;
            check_opts("dot", &opts, &["--region"], &[])?;
            let src = read(&path)?;
            let analysis =
                analyze_source(&src, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
            let wanted = opt_value(&opts, "--region")?;
            let pick = analysis
                .tasks
                .iter()
                .zip(&analysis.graphs)
                .find(|(_, g)| match (&wanted, g.region) {
                    (Some(name), parpat_cu::RegionId::FuncBody(f)) => {
                        &analysis.ir.functions[f].name == name
                    }
                    (None, _) => true,
                    _ => false,
                })
                .ok_or_else(|| "no matching analyzed region (try without --region)".to_owned())?;
            let (report, graph) = pick;
            let marks = |cu: usize| {
                report.marks.get(&cu).map(|m| match m {
                    parpat_core::CuMark::Fork => ("fork", "lightblue"),
                    parpat_core::CuMark::Worker => ("worker", "palegreen"),
                    parpat_core::CuMark::Barrier => ("barrier", "lightsalmon"),
                })
            };
            Ok(parpat_cu::cu_graph_to_dot(graph, &analysis.cus, &path, &marks))
        }
        Some("batch") => {
            let (target, opts) = split_opts(&args[1..])?;
            check_opts(
                "batch",
                &opts,
                &[
                    "--jobs",
                    "--cache-dir",
                    "--max-steps",
                    "--timeout-ms",
                    "--max-mem-cells",
                    "--retries",
                ],
                &["--resume", "--sanitize", "--json"],
            )?;
            let jobs = match opt_value(&opts, "--jobs")? {
                Some(v) => match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--jobs must be a positive integer, got `{v}`")),
                },
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            let limits = exec_limits_opts(&opts)?;
            let retries = match opt_value(&opts, "--retries")? {
                Some(v) => v
                    .parse::<u32>()
                    .map_err(|_| format!("--retries must be a non-negative integer, got `{v}`"))?,
                None => 0,
            };
            let resume = opts.iter().any(|o| o == "--resume");
            let sanitize = opts.iter().any(|o| o == "--sanitize");
            let cache_dir = cache_dir_opt(&opts)?;
            if resume && cache_dir.is_none() {
                return Err("--resume needs a cache directory (the journal lives there); \
                     drop `--cache-dir none`"
                    .to_owned());
            }
            let inputs = batch_inputs(&target)?;
            let json = opts.iter().any(|o| o == "--json");
            let cfg = parpat_engine::EngineConfig {
                cache_dir,
                analysis: AnalysisConfig { limits, ..Default::default() },
                retries,
                resume,
                sanitize,
                watchdog: Some(parpat_runtime::WatchdogConfig::default()),
                ..Default::default()
            };
            let engine = std::sync::Arc::new(
                parpat_engine::Engine::new(cfg)
                    .map_err(|e| format!("cannot set up cache directory: {e}"))?,
            );
            let batch = engine.batch(inputs, jobs);
            if json {
                Ok(render_batch_json(&batch))
            } else {
                Ok(render_batch_text(&batch))
            }
        }
        Some("lint") => {
            // `--explain <CODE>` is a documentation lookup, not a lint run:
            // it takes no input program, so handle it before `split_opts`
            // demands a positional argument.
            if args[1..].first().map(String::as_str) == Some("--explain") {
                let id = opt_value(&args[1..], "--explain")?.expect("flag is present");
                return explain_code(&id);
            }
            let (target, opts) = split_opts(&args[1..])?;
            check_opts("lint", &opts, &[], &["--json"])?;
            let inputs = lint_inputs(&target)?;
            let results: Vec<(String, Vec<parpat_static::Diagnostic>)> = inputs
                .into_iter()
                .map(|i| (i.name, parpat_static::lint_source(&i.source)))
                .collect();
            if opts.iter().any(|o| o == "--json") {
                Ok(render_lint_json(&results))
            } else {
                Ok(render_lint_text(&results))
            }
        }
        Some("verify") => {
            let (target, opts) = split_opts(&args[1..])?;
            check_opts("verify", &opts, &[], &[])?;
            let inputs = lint_inputs(&target)?;
            let total = inputs.len();
            let mut out = String::new();
            let mut bad = 0usize;
            for i in &inputs {
                let diags = parpat_static::verify_source(&i.source);
                if diags.is_empty() {
                    writeln!(out, "{:<14} ok", i.name).expect("write to String");
                } else {
                    bad += 1;
                    writeln!(out, "{:<14} {} violation(s)", i.name, diags.len())
                        .expect("write to String");
                    for d in &diags {
                        writeln!(out, "    {}", d.render()).expect("write to String");
                    }
                }
            }
            writeln!(out, "\n{} program(s) verified, {bad} with violations", total - bad)
                .expect("write to String");
            // A violation means the pipeline's own artifacts are wrong:
            // make it an error so CI fails loudly (exit status 1).
            if bad > 0 {
                Err(out)
            } else {
                Ok(out)
            }
        }
        Some("shrink") => {
            let (path, opts) = split_opts(&args[1..])?;
            check_opts("shrink", &opts, &["--inject"], &[])?;
            let inject = match opt_value(&opts, "--inject")? {
                Some(v) => Some(parpat_ir::Corruption::from_name(&v).ok_or_else(|| {
                    format!(
                        "unknown corruption `{v}` — one of: swap-add-sub, \
                         out-of-range-slot, bogus-line, drop-store"
                    )
                })?),
                None => None,
            };
            let src = read(&path)?;
            let shrunk = crate::shrink::shrink(&src, inject)?;
            Ok(shrunk.render())
        }
        Some("serve") => {
            let opts: Vec<String> = args[1..].to_vec();
            check_opts(
                "serve",
                &opts,
                &[
                    "--tcp",
                    "--unix",
                    "--workers",
                    "--max-connections",
                    "--queue-depth",
                    "--request-deadline-ms",
                    "--idle-timeout-ms",
                    "--chaos-permille",
                    "--chaos-seed",
                    "--cache-dir",
                    "--max-steps",
                    "--timeout-ms",
                    "--max-mem-cells",
                ],
                &[],
            )?;
            let mut cfg = parpat_serve::ServeConfig {
                limits: exec_limits_opts(&opts)?,
                cache_dir: cache_dir_opt(&opts)?,
                ..Default::default()
            };
            let unix = opt_value(&opts, "--unix")?.map(std::path::PathBuf::from);
            cfg.tcp = match opt_value(&opts, "--tcp")? {
                Some(addr) => Some(addr),
                // Default to a fixed local port, unless only a unix
                // socket was asked for.
                None if unix.is_some() => None,
                None => Some("127.0.0.1:7117".to_owned()),
            };
            cfg.unix = unix;
            if let Some(v) = opt_value(&opts, "--workers")? {
                cfg.workers = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--workers must be a positive integer, got `{v}`")),
                };
            }
            if let Some(v) = opt_value(&opts, "--max-connections")? {
                cfg.max_connections = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(format!(
                            "--max-connections must be a positive integer, got `{v}`"
                        ))
                    }
                };
            }
            if let Some(v) = opt_value(&opts, "--queue-depth")? {
                cfg.queue_depth = v.parse::<usize>().map_err(|_| {
                    format!("--queue-depth must be a non-negative integer, got `{v}`")
                })?;
            }
            if let Some(v) = opt_value(&opts, "--request-deadline-ms")? {
                cfg.request_deadline_ms = Some(v.parse::<u64>().map_err(|_| {
                    format!("--request-deadline-ms must be a positive integer, got `{v}`")
                })?);
            }
            if let Some(v) = opt_value(&opts, "--idle-timeout-ms")? {
                cfg.idle_timeout_ms = v.parse::<u64>().map_err(|_| {
                    format!("--idle-timeout-ms must be a positive integer, got `{v}`")
                })?;
            }
            // Range checks for all of the above (and the chaos knobs)
            // live in ServeConfig::validate, which reports every
            // violation at once on startup.
            let permille = opt_value(&opts, "--chaos-permille")?;
            let seed = opt_value(&opts, "--chaos-seed")?;
            if permille.is_some() || seed.is_some() {
                let fault_permille = match &permille {
                    Some(v) => v.parse::<u16>().map_err(|_| {
                        format!("--chaos-permille must be an integer in 0..=1000, got `{v}`")
                    })?,
                    None => return Err("--chaos-seed needs --chaos-permille".to_owned()),
                };
                let seed = match seed {
                    Some(v) => v.parse::<u64>().map_err(|_| {
                        format!("--chaos-seed must be a non-negative integer, got `{v}`")
                    })?,
                    None => 0,
                };
                cfg.chaos = Some(parpat_serve::ChaosConfig { seed, fault_permille });
            }
            let server = parpat_serve::Server::start(cfg)?;
            if let Some(addr) = server.tcp_addr() {
                eprintln!("parpat serve: listening on tcp://{addr}");
            }
            if let Some(path) = server.unix_path() {
                eprintln!("parpat serve: listening on unix:{}", path.display());
            }
            eprintln!("parpat serve: send {{\"cmd\": \"shutdown\"}} to stop");
            let stats = server.wait();
            Ok(format!("=== serve session ===\n{}", stats.render_text()))
        }
        Some("stats") => {
            let opts: Vec<String> = args[1..].to_vec();
            check_opts("stats", &opts, &["--cache-dir"], &["--json"])?;
            let dir = cache_dir_opt(&opts)?
                .ok_or_else(|| "`parpat stats` needs a cache directory".to_owned())?;
            let file = if opts.iter().any(|o| o == "--json") { "stats.json" } else { "stats.txt" };
            std::fs::read_to_string(dir.join(file)).map_err(|_| {
                format!("no persisted stats under `{}` — run `parpat batch` first", dir.display())
            })
        }
        Some("fsck") => {
            let (dir, opts) =
                split_opts(&args[1..]).map_err(|_| format!("missing <run-dir>\n\n{USAGE}"))?;
            check_opts("fsck", &opts, &[], &["--repair"])?;
            let repair = opts.iter().any(|o| o == "--repair");
            let dir = std::path::PathBuf::from(&dir);
            let report = parpat_engine::fsck(&parpat_engine::RealFs, &dir, repair)
                .map_err(|e| format!("fsck: cannot scan `{}`: {e}", dir.display()))?;
            let text = report.render(&dir);
            if report.errors_remaining() > 0 {
                Err(text)
            } else {
                Ok(text)
            }
        }
        Some("run") => {
            let (path, opts) = split_opts(&args[1..])?;
            check_opts("run", &opts, &[], &[])?;
            let src = read(&path)?;
            let ir = parpat_ir::compile(&src).map_err(|e| e.to_string())?;
            let out = parpat_ir::run(&ir, &mut parpat_ir::event::NullObserver)
                .map_err(|e| e.to_string())?;
            Ok(format!("executed {} instructions; main returned {}", out.insts, out.return_value))
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn split_opts(args: &[String]) -> Result<(String, Vec<String>), String> {
    let mut it = args.iter();
    let path = it.next().ok_or_else(|| format!("missing <file.ml>\n\n{USAGE}"))?;
    Ok((path.clone(), it.cloned().collect()))
}

fn opt_value(opts: &[String], flag: &str) -> Result<Option<String>, String> {
    for (i, o) in opts.iter().enumerate() {
        if o == flag {
            return opts
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value"));
        }
    }
    Ok(None)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Parse the execution-budget flags into interpreter limits. Both take a
/// positive integer; anything else (zero, negatives, non-numbers) is
/// rejected with a precise message, like `--hotspot`.
fn exec_limits_opts(opts: &[String]) -> Result<parpat_ir::ExecLimits, String> {
    let mut limits = parpat_ir::ExecLimits::default();
    if let Some(v) = opt_value(opts, "--max-steps")? {
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => limits.max_insts = n,
            _ => return Err(format!("--max-steps must be a positive integer, got `{v}`")),
        }
    }
    if let Some(v) = opt_value(opts, "--timeout-ms")? {
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => limits.timeout_ms = Some(n),
            _ => return Err(format!("--timeout-ms must be a positive integer, got `{v}`")),
        }
    }
    if let Some(v) = opt_value(opts, "--max-mem-cells")? {
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => limits.max_mem_cells = n,
            _ => return Err(format!("--max-mem-cells must be a positive integer, got `{v}`")),
        }
    }
    Ok(limits)
}

/// Reject any option in `opts` that is neither in `valued` (flags that
/// take the next argument as their value) nor in `switches`, naming the
/// first offender.
fn check_opts(
    cmd: &str,
    opts: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        if valued.contains(&o.as_str()) {
            it.next();
        } else if !switches.contains(&o.as_str()) {
            return Err(format!("unknown {cmd} option `{o}`\n\n{USAGE}"));
        }
    }
    Ok(())
}

/// Resolve `--cache-dir`: default `.parpat-cache`, literal `none` disables
/// the disk tier.
fn cache_dir_opt(opts: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    Ok(match opt_value(opts, "--cache-dir")? {
        Some(v) if v == "none" => None,
        Some(v) => Some(std::path::PathBuf::from(v)),
        None => Some(std::path::PathBuf::from(".parpat-cache")),
    })
}

/// Batch inputs: the bundled apps (`apps`) or every `.ml` file of a
/// directory, sorted by name for deterministic ordering.
fn batch_inputs(target: &str) -> Result<Vec<parpat_engine::BatchInput>, String> {
    if target == "apps" {
        return Ok(parpat_suite::all_apps()
            .iter()
            .map(|a| parpat_engine::BatchInput {
                name: a.name.to_owned(),
                source: a.model.to_owned(),
            })
            .collect());
    }
    let entries =
        std::fs::read_dir(target).map_err(|e| format!("cannot read directory `{target}`: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .ml files in `{target}`"));
    }
    paths
        .into_iter()
        .map(|p| {
            let name = p.to_string_lossy().into_owned();
            read(&name).map(|source| parpat_engine::BatchInput { name, source })
        })
        .collect()
}

/// Lint inputs: a single `.ml` file, the bundled apps, or every `.ml`
/// file of a directory (reusing the batch discovery rules).
fn lint_inputs(target: &str) -> Result<Vec<parpat_engine::BatchInput>, String> {
    if target != "apps" && std::path::Path::new(target).is_file() {
        return Ok(vec![parpat_engine::BatchInput {
            name: target.to_owned(),
            source: read(target)?,
        }]);
    }
    batch_inputs(target)
}

/// `parpat lint --explain <CODE>`: the documentation paragraph for one
/// stable diagnostic code, wrapped to a readable width.
fn explain_code(id: &str) -> Result<String, String> {
    let code = parpat_static::Code::from_id(&id.to_uppercase()).ok_or_else(|| {
        let known: Vec<&str> = parpat_static::Code::ALL.iter().map(|c| c.id()).collect();
        format!("unknown diagnostic code `{id}` — one of: {}", known.join(", "))
    })?;
    let mut out = format!("{} ({})\n\n", code.id(), code.severity());
    let mut col = 0usize;
    for word in code.explain().split_whitespace() {
        if col > 0 && col + 1 + word.len() > 76 {
            out.push('\n');
            col = 0;
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out.push('\n');
    Ok(out)
}

fn render_lint_text(results: &[(String, Vec<parpat_static::Diagnostic>)]) -> String {
    let mut out = String::new();
    for (name, diags) in results {
        writeln!(out, "== {name} ==").expect("write to String");
        if diags.is_empty() {
            out.push_str("(no diagnostics)\n");
        } else {
            for d in diags {
                writeln!(out, "{}", d.render()).expect("write to String");
            }
        }
    }
    out
}

fn render_lint_json(results: &[(String, Vec<parpat_static::Diagnostic>)]) -> String {
    let programs: Vec<String> = results
        .iter()
        .map(|(name, diags)| {
            let items: Vec<String> = diags.iter().map(parpat_static::Diagnostic::to_json).collect();
            format!("{{\"name\": {}, \"diagnostics\": [{}]}}", json_str(name), items.join(", "))
        })
        .collect();
    format!("{{\"programs\": [{}]}}\n", programs.join(", "))
}

fn render_batch_text(batch: &parpat_engine::BatchReport) -> String {
    let mut out = String::new();
    for o in &batch.outcomes {
        match &o.outcome {
            parpat_engine::AnalysisOutcome::Ok(r) => {
                let mut marks = String::new();
                if !r.input_sensitive.is_empty() {
                    write!(marks, "  [input-sensitive: line(s) {}]", join_u32(&r.input_sensitive))
                        .expect("write to String");
                }
                if !r.consistency_errors.is_empty() {
                    write!(
                        marks,
                        "  [CONSISTENCY ERROR: line(s) {}]",
                        join_u32(&r.consistency_errors)
                    )
                    .expect("write to String");
                }
                writeln!(
                    out,
                    "{:<14} ok    {:>10} insts  {} pipeline(s) {} fusion(s) {} reduction(s) {} geodecomp {} task region(s){}{}",
                    o.name,
                    r.insts,
                    r.pipelines,
                    r.fusions,
                    r.reductions,
                    r.geodecomp,
                    r.task_regions,
                    if o.fully_cached { "  [cached]" } else { "" },
                    marks
                )
                .expect("write to String");
            }
            parpat_engine::AnalysisOutcome::Degraded(d) => writeln!(
                out,
                "{:<14} degraded  {} loop(s) {} CU(s) {} static do-all candidate(s) — {}",
                o.name,
                d.loops,
                d.cus,
                d.doall_candidates.len(),
                d.reason
            )
            .expect("write to String"),
            parpat_engine::AnalysisOutcome::Err(e) => {
                let tag = if e.kind == parpat_engine::ErrorKind::Miscompile {
                    " [MISCOMPILE]"
                } else {
                    ""
                };
                writeln!(out, "{:<14} error{tag} {e}", o.name).expect("write to String");
            }
        }
    }
    out.push('\n');
    out.push_str(&batch.stats.render_text());
    out
}

fn render_batch_json(batch: &parpat_engine::BatchReport) -> String {
    let programs: Vec<String> = batch
        .outcomes
        .iter()
        .map(|o| match &o.outcome {
            parpat_engine::AnalysisOutcome::Ok(r) => format!(
                "{{\"name\": {}, \"status\": \"ok\", \"cached\": {}, \"report\": {}}}",
                json_str(&o.name),
                o.fully_cached,
                r.to_json()
            ),
            parpat_engine::AnalysisOutcome::Degraded(d) => format!(
                "{{\"name\": {}, \"status\": \"degraded\", \"degraded\": {}}}",
                json_str(&o.name),
                d.to_json()
            ),
            parpat_engine::AnalysisOutcome::Err(e) => format!(
                "{{\"name\": {}, \"status\": \"error\", \"error\": {}}}",
                json_str(&o.name),
                e.to_json()
            ),
        })
        .collect();
    format!(
        "{{\"programs\": [{}], \"stats\": {}}}\n",
        programs.join(", "),
        batch.stats.render_json()
    )
}

fn join_u32(lines: &[u32]) -> String {
    let strs: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    strs.join(", ")
}

/// Machine-readable report of an analysis: the detected patterns, ranked,
/// with the transformation suggestions. Hand-rolled JSON (keeps the
/// dependency set to the pre-approved crates).
fn json_report(analysis: &parpat_core::Analysis) -> String {
    let mut out = String::from("{\n");

    // Pipelines.
    out.push_str("  \"pipelines\": [");
    let items: Vec<String> = analysis
        .pipelines
        .iter()
        .map(|p| {
            format!(
                "{{\"x_line\": {}, \"y_line\": {}, \"a\": {:.6}, \"b\": {:.6}, \"e\": {:.6}, \"x_doall\": {}, \"y_doall\": {}}}",
                p.x_line, p.y_line, p.a, p.b, p.e, p.x_doall, p.y_doall
            )
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("],\n");

    // Fusions.
    out.push_str("  \"fusions\": [");
    let items: Vec<String> = analysis
        .fusions
        .iter()
        .map(|f| format!("{{\"x_line\": {}, \"y_line\": {}}}", f.lines.0, f.lines.1))
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("],\n");

    // Reductions with inferred operators.
    out.push_str("  \"reductions\": [");
    let items: Vec<String> = analysis
        .reductions
        .iter()
        .map(|r| {
            let op = infer_operator(&analysis.ir, r)
                .map(|o| json_str(&o.to_string()))
                .unwrap_or_else(|| "null".to_owned());
            format!(
                "{{\"var\": {}, \"line\": {}, \"loop_line\": {}, \"operator\": {}}}",
                json_str(&r.var),
                r.line,
                r.loop_line,
                op
            )
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("],\n");

    // Geometric decomposition.
    out.push_str("  \"geometric_decomposition\": [");
    let items: Vec<String> = analysis.geodecomp.iter().map(|g| json_str(&g.name)).collect();
    out.push_str(&items.join(", "));
    out.push_str("],\n");

    // Task parallelism (regions with real parallelism).
    out.push_str("  \"task_parallelism\": [");
    let items: Vec<String> = analysis
        .tasks
        .iter()
        .zip(&analysis.graphs)
        .filter(|(t, _)| t.estimated_speedup > 1.05)
        .map(|(t, g)| {
            let region = match g.region {
                parpat_cu::RegionId::FuncBody(f) => {
                    format!("function {}", analysis.ir.functions[f].name)
                }
                parpat_cu::RegionId::Loop(l) => {
                    format!("loop@{}", analysis.ir.loops[l as usize].line)
                }
            };
            format!(
                "{{\"region\": {}, \"estimated_speedup\": {:.4}, \"units\": {}}}",
                json_str(&region),
                t.estimated_speedup,
                g.nodes.len()
            )
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("],\n");

    // Ranking.
    out.push_str("  \"ranking\": [");
    let ranked = rank_patterns(analysis, &RankConfig::default());
    let items: Vec<String> = ranked
        .iter()
        .map(|r| {
            format!(
                "{{\"pattern\": {}, \"target\": {}, \"coverage\": {:.4}, \"expected_speedup\": {:.4}, \"effort\": {}, \"score\": {:.4}}}",
                json_str(&r.pattern.to_string()),
                json_str(&r.target),
                r.coverage,
                r.expected_speedup,
                json_str(&format!("{:?}", r.effort)),
                r.score
            )
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("parpat-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write");
        path.to_string_lossy().into_owned()
    }

    const REDUCTION_SRC: &str = "global a[64];
fn main() {
    let s = 0;
    for i in 0..64 {
        s += a[i];
    }
    return s;
}";

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_prints_usage() {
        for spelling in ["help", "--help", "-h"] {
            assert_eq!(run(&args(&[spelling])).unwrap(), USAGE, "{spelling}");
        }
        assert!(USAGE.contains("parpat help | --help | -h"));
        assert_eq!(run(&[]).unwrap(), USAGE);
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn fsck_scrubs_detects_and_repairs() {
        let dir = std::env::temp_dir().join(format!("parpat-fsck-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dir_s = dir.to_string_lossy().into_owned();
        // Empty directory: clean, exit ok.
        let out = run(&args(&["fsck", &dir_s])).unwrap();
        assert!(out.contains("clean"), "{out}");
        // A rotted cache record fails the scrub with its stable code...
        std::fs::write(dir.join("00000000000000aa.rec"), b"garbage").expect("write");
        let err = run(&args(&["fsck", &dir_s])).unwrap_err();
        assert!(err.contains("F020"), "{err}");
        // ...and --repair quarantines it; the next scrub is clean again.
        let out = run(&args(&["fsck", &dir_s, "--repair"])).unwrap();
        assert!(out.contains("repaired"), "{out}");
        let out = run(&args(&["fsck", &dir_s])).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(dir.join("00000000000000aa.corrupt").exists());
        assert!(run(&args(&["fsck"])).is_err(), "missing dir must be a usage error");
        assert!(run(&args(&["fsck", &dir_s, "--bogus"])).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn analyze_summarizes() {
        let path = write_temp("red.ml", REDUCTION_SRC);
        let out = run(&args(&["analyze", &path])).unwrap();
        assert!(out.contains("hotspots"), "{out}");
        assert!(out.contains("reductions"), "{out}");
    }

    #[test]
    fn analyze_respects_hotspot_flag() {
        let path = write_temp("red2.ml", REDUCTION_SRC);
        let out = run(&args(&["analyze", &path, "--hotspot", "1"])).unwrap();
        assert!(out.contains("hotspots"), "{out}");
        assert!(run(&args(&["analyze", &path, "--hotspot", "zap"])).is_err());
    }

    #[test]
    fn analyze_rejects_out_of_range_hotspot() {
        let path = write_temp("red4.ml", REDUCTION_SRC);
        for bad in ["-5", "0", "150", "nan", "inf"] {
            let err = run(&args(&["analyze", &path, "--hotspot", bad])).unwrap_err();
            assert!(err.contains("(0, 100]"), "`{bad}` gave: {err}");
        }
        assert!(run(&args(&["analyze", &path, "--hotspot", "100"])).is_ok());
    }

    /// Removes a test's input directory when dropped.
    struct RemoveOnDrop(std::path::PathBuf);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh directory of batch inputs, its path and a cache path inside
    /// it. Tests run in parallel, so each call gets a directory of its own:
    /// a shared one would be rewritten under a sibling test's batch.
    fn batch_dir() -> (RemoveOnDrop, String, String) {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("parpat-batch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("red.ml"), REDUCTION_SRC).expect("write");
        std::fs::write(
            dir.join("pipe.ml"),
            "global a[64];\nglobal b[64];\nfn main() {\n    for i in 0..64 { a[i] = i * 2; }\n    for j in 0..64 { b[j] = a[j] + 1; }\n}",
        )
        .expect("write");
        std::fs::write(dir.join("notes.txt"), "ignored").expect("write");
        let cache = dir.join("cache").to_string_lossy().into_owned();
        let path = dir.to_string_lossy().into_owned();
        (RemoveOnDrop(dir), path, cache)
    }

    #[test]
    fn batch_analyzes_directory_and_warm_run_is_cached() {
        let (_inputs, dir, cache) = batch_dir();
        let cold = run(&args(&["batch", &dir, "--jobs", "2", "--cache-dir", &cache])).unwrap();
        assert!(cold.contains("red.ml"), "{cold}");
        assert!(cold.contains("pipe.ml"), "{cold}");
        assert!(!cold.contains("notes.txt"), "{cold}");
        assert!(cold.contains("=== engine stats ==="), "{cold}");

        let warm = run(&args(&["batch", &dir, "--jobs", "2", "--cache-dir", &cache])).unwrap();
        assert_eq!(warm.matches("[cached]").count(), 2, "{warm}");

        // Persisted stats are readable afterwards, in both forms.
        let stats = run(&args(&["stats", "--cache-dir", &cache])).unwrap();
        assert!(stats.contains("=== engine stats ==="), "{stats}");
        let stats_json = run(&args(&["stats", "--cache-dir", &cache, "--json"])).unwrap();
        assert!(stats_json.contains("\"stages\""), "{stats_json}");
    }

    #[test]
    fn batch_json_reports_programs_and_stats() {
        let (_inputs, dir, _) = batch_dir();
        let out = run(&args(&["batch", &dir, "--cache-dir", "none", "--json"])).unwrap();
        assert!(out.contains("\"programs\""), "{out}");
        assert!(out.contains("\"stats\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
    }

    #[test]
    fn batch_rejects_bad_inputs() {
        let (_inputs, dir, _) = batch_dir();
        assert!(run(&args(&["batch", &dir, "--jobs", "0", "--cache-dir", "none"]))
            .unwrap_err()
            .contains("--jobs"));
        assert!(run(&args(&["batch", "/definitely/not/here", "--cache-dir", "none"]))
            .unwrap_err()
            .contains("cannot read directory"));
    }

    #[test]
    fn batch_rejects_unknown_flags_by_name() {
        let (_inputs, dir, cache) = batch_dir();
        for bad in [["--workers", "2"], ["--lease-ms", "5"], ["--jbos", "2"]] {
            let err =
                run(&args(&["batch", &dir, "--cache-dir", &cache, bad[0], bad[1]])).unwrap_err();
            assert!(err.starts_with(&format!("unknown batch option `{}`", bad[0])), "{err}");
        }
    }

    #[test]
    fn budget_flags_are_validated_like_hotspot() {
        let path = write_temp("lim.ml", REDUCTION_SRC);
        let (_inputs, dir, _) = batch_dir();
        for flag in ["--max-steps", "--timeout-ms", "--max-mem-cells"] {
            for bad in ["0", "-3", "zap", "1.5"] {
                let err = run(&args(&["analyze", &path, flag, bad])).unwrap_err();
                assert!(err.contains("positive integer"), "`analyze {flag} {bad}` gave: {err}");
                let err =
                    run(&args(&["batch", &dir, "--cache-dir", "none", flag, bad])).unwrap_err();
                assert!(err.contains("positive integer"), "`batch {flag} {bad}` gave: {err}");
            }
        }
        assert!(run(&args(&["analyze", &path, "--max-steps", "100000", "--timeout-ms", "5000"]))
            .is_ok());
    }

    #[test]
    fn retries_flag_is_validated_and_accepted() {
        let (_inputs, dir, _) = batch_dir();
        for bad in ["-1", "zap", "1.5"] {
            let err =
                run(&args(&["batch", &dir, "--cache-dir", "none", "--retries", bad])).unwrap_err();
            assert!(err.contains("--retries"), "`{bad}` gave: {err}");
        }
        let out = run(&args(&["batch", &dir, "--cache-dir", "none", "--retries", "2"])).unwrap();
        assert!(out.contains("0 retries"), "{out}");
    }

    #[test]
    fn resume_requires_a_cache_directory() {
        let (_inputs, dir, _) = batch_dir();
        let err = run(&args(&["batch", &dir, "--cache-dir", "none", "--resume"])).unwrap_err();
        assert!(err.contains("--resume needs a cache directory"), "{err}");
    }

    #[test]
    fn resume_restores_completed_programs_from_the_journal() {
        let dir = std::env::temp_dir().join(format!("parpat-cli-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("red.ml"), REDUCTION_SRC).expect("write");
        let cache = dir.join("cache").to_string_lossy().into_owned();
        let dir = dir.to_string_lossy().into_owned();

        let cold = run(&args(&["batch", &dir, "--cache-dir", &cache])).unwrap();
        assert!(cold.contains("0 resumed from journal"), "{cold}");
        let resumed = run(&args(&["batch", &dir, "--cache-dir", &cache, "--resume"])).unwrap();
        assert!(resumed.contains("1 resumed from journal"), "{resumed}");
        // The stats survive for `parpat stats` like any other counter.
        let stats = run(&args(&["stats", "--cache-dir", &cache])).unwrap();
        assert!(stats.contains("1 resumed from journal"), "{stats}");
    }

    #[test]
    fn memory_budget_overruns_degrade_with_a_diagnostic() {
        let dir = std::env::temp_dir().join(format!("parpat-cli-mem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("huge.ml"),
            "global big[20000000];\nfn main() {\n    for i in 0..64 { big[i] = i; }\n}",
        )
        .expect("write");
        let dir = dir.to_string_lossy().into_owned();

        let out =
            run(&args(&["batch", &dir, "--cache-dir", "none", "--max-mem-cells", "1000"])).unwrap();
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("budget exceeded"), "{out}");
    }

    #[test]
    fn over_budget_batch_programs_degrade_with_static_results() {
        let dir = std::env::temp_dir().join(format!("parpat-degraded-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(
            dir.join("spin.ml"),
            "fn main() { let x = 0; while true { x += 1; } return x; }",
        )
        .expect("write");
        std::fs::write(dir.join("red.ml"), REDUCTION_SRC).expect("write");
        let dir = dir.to_string_lossy().into_owned();

        let base = args(&["batch", &dir, "--cache-dir", "none", "--max-steps", "10000"]);
        let text = run(&base).unwrap();
        assert!(text.contains("degraded"), "{text}");
        assert!(text.contains("budget exceeded at profile stage"), "{text}");
        assert!(text.contains(" ok "), "{text}");
        assert!(text.contains("1 budget-exceeded"), "{text}");

        let mut jargs = base.clone();
        jargs.push("--json".to_owned());
        let json = run(&jargs).unwrap();
        assert!(json.contains("\"status\": \"degraded\""), "{json}");
        assert!(json.contains("\"kind\": \"budget\""), "{json}");
        assert!(json.contains("\"status\": \"ok\""), "{json}");
        assert!(json.contains("\"budget_exceeded\": 1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }

    #[test]
    fn lint_reports_diagnostics_for_a_file() {
        let path = write_temp(
            "lint-stencil.ml",
            "global a[16];\nfn main() {\n    for i in 1..16 { a[i] = a[i - 1] + 1; }\n}",
        );
        let out = run(&args(&["lint", &path])).unwrap();
        assert!(out.contains("warning[P001]"), "{out}");
        assert!(out.contains("carries a flow dependence"), "{out}");

        let clean = write_temp(
            "lint-clean.ml",
            "global a[16];\nfn main() {\n    for i in 0..16 { a[i] = i; }\n}",
        );
        let out = run(&args(&["lint", &clean])).unwrap();
        assert!(out.contains("info[P020]"), "{out}");
    }

    #[test]
    fn lint_reports_language_errors_with_codes() {
        let path = write_temp("lint-broken.ml", "fn main() { let = ; }");
        let out = run(&args(&["lint", &path])).unwrap();
        assert!(out.contains("error[L002]"), "{out}");
    }

    #[test]
    fn lint_apps_json_covers_the_suite() {
        let out = run(&args(&["lint", "apps", "--json"])).unwrap();
        assert!(out.contains("\"programs\""), "{out}");
        for app in parpat_suite::all_apps() {
            assert!(out.contains(&format!("\"name\": \"{}\"", app.name)), "missing {}", app.name);
        }
        assert_eq!(out.matches('{').count(), out.matches('}').count(), "{out}");
    }

    #[test]
    fn lint_directory_lints_every_ml_file() {
        let (_inputs, dir, _) = batch_dir();
        let out = run(&args(&["lint", &dir])).unwrap();
        assert!(out.contains("red.ml"), "{out}");
        assert!(out.contains("pipe.ml"), "{out}");
        assert!(out.contains("[P010]"), "reduction diagnostic expected: {out}");
    }

    #[test]
    fn lint_explain_documents_a_code() {
        let out = run(&args(&["lint", "--explain", "P001"])).unwrap();
        assert!(out.starts_with("P001 (warning)"), "{out}");
        assert!(out.contains("loop-carried flow dependence"), "{out}");
        assert!(out.lines().all(|l| l.len() <= 78), "over-long line in:\n{out}");
        // Lower-case ids are accepted for convenience.
        assert_eq!(run(&args(&["lint", "--explain", "p001"])).unwrap(), out);
    }

    #[test]
    fn lint_explain_rejects_unknown_codes_and_missing_values() {
        let err = run(&args(&["lint", "--explain", "Z999"])).unwrap_err();
        assert!(err.contains("unknown diagnostic code `Z999`"), "{err}");
        assert!(err.contains("P001"), "the error lists the known codes: {err}");
        let err = run(&args(&["lint", "--explain"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn every_stable_code_has_an_explanation() {
        for code in parpat_static::Code::ALL {
            let out = run(&args(&["lint", "--explain", code.id()])).unwrap();
            assert!(
                out.starts_with(&format!("{} ({})", code.id(), code.severity())),
                "{} explanation has the wrong header:\n{out}",
                code.id()
            );
            assert!(out.trim_end().len() > 80, "{} explanation is too thin:\n{out}", code.id());
        }
    }

    #[test]
    fn verify_reports_clean_apps() {
        let out = run(&args(&["verify", "apps"])).unwrap();
        assert!(out.contains("17 program(s) verified, 0 with violations"), "{out}");
        assert!(!out.contains("violation(s)"), "{out}");
    }

    #[test]
    fn verify_fails_on_front_end_errors() {
        let path = write_temp("verify-broken.ml", "fn main() { let = ; }");
        let err = run(&args(&["verify", &path])).unwrap_err();
        assert!(err.contains("[L0"), "front-end errors keep their L-codes: {err}");
        assert!(err.contains("1 with violations"), "{err}");
    }

    const MISCOMPILE_SEED: &str = "global a[8];
fn main() {
    let s = 0;
    for i in 0..8 {
        a[i] = i * 2;
        s += a[i];
    }
    return s;
}";

    #[test]
    fn shrink_minimizes_a_seeded_miscompile() {
        let path = write_temp("shrink-seed.ml", MISCOMPILE_SEED);
        let out = run(&args(&["shrink", &path, "--inject", "swap-add-sub"])).unwrap();
        assert!(out.starts_with("shrink: miscompile"), "{out}");
        let body: Vec<&str> = out.splitn(2, "\n\n").collect();
        let lines = body[1].trim_end().lines().count();
        assert!(lines <= 10, "reproducer should be <= 10 lines, got {lines}:\n{out}");
    }

    #[test]
    fn shrink_rejects_unknown_corruptions_and_healthy_seeds() {
        let path = write_temp("shrink-healthy.ml", MISCOMPILE_SEED);
        let err = run(&args(&["shrink", &path, "--inject", "gremlin"])).unwrap_err();
        assert!(err.contains("unknown corruption"), "{err}");
        let err = run(&args(&["shrink", &path])).unwrap_err();
        assert!(err.contains("nothing to shrink"), "{err}");
    }

    #[test]
    fn batch_sanitize_flag_is_accepted_and_counted() {
        let (_inputs, dir, _) = batch_dir();
        let out = run(&args(&["batch", &dir, "--cache-dir", "none", "--sanitize"])).unwrap();
        assert!(out.contains(" ok "), "clean programs pass the sanitizer: {out}");
        assert!(out.contains("0 sanitizer reject(s)"), "{out}");
        assert!(out.contains("2 verified"), "{out}");
    }

    #[test]
    fn miscompile_errors_are_tagged_in_batch_text() {
        let engine = std::sync::Arc::new(
            parpat_engine::Engine::new(parpat_engine::EngineConfig::default()).unwrap(),
        );
        let mut batch = engine.batch(vec![], 1);
        batch.outcomes.push(parpat_engine::ProgramOutcome {
            name: "bad".into(),
            outcome: parpat_engine::AnalysisOutcome::Err(parpat_engine::EngineError::new(
                parpat_engine::Stage::Profile,
                parpat_engine::ErrorKind::Miscompile,
                "differential oracle: return value diverges",
            )),
            wall: std::time::Duration::ZERO,
            fully_cached: false,
            funcs_reanalyzed: 0,
        });
        let text = render_batch_text(&batch);
        assert!(text.contains("error [MISCOMPILE]"), "{text}");
    }

    #[test]
    fn batch_directory_order_is_sorted_and_deterministic() {
        let (_inputs, dir, _) = batch_dir();
        let run_once = || {
            let out = run(&args(&["batch", &dir, "--cache-dir", "none"])).unwrap();
            // Program lines only — the trailing stats include wall time.
            out.lines().take_while(|l| !l.is_empty()).map(str::to_owned).collect::<Vec<_>>()
        };
        let first = run_once();
        let pipe = first.iter().position(|l| l.contains("pipe.ml")).unwrap();
        let red = first.iter().position(|l| l.contains("red.ml")).unwrap();
        assert!(pipe < red, "directory inputs must be sorted by name: {first:?}");
        assert_eq!(first, run_once(), "batch program listing over a directory is deterministic");
    }

    #[test]
    fn serve_validates_its_flags() {
        for bad in ["0", "-1", "zap"] {
            let err = run(&args(&["serve", "--workers", bad])).unwrap_err();
            assert!(err.contains("--workers"), "`{bad}` gave: {err}");
            let err = run(&args(&["serve", "--max-connections", bad])).unwrap_err();
            assert!(err.contains("--max-connections"), "`{bad}` gave: {err}");
        }
        let err = run(&args(&["serve", "--tcp", "definitely:not:an:address"])).unwrap_err();
        assert!(err.contains("cannot bind"), "{err}");
        let err = run(&args(&["serve", "--max-steps", "0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        // The overload knobs parse here and range-check in ServeConfig.
        let err = run(&args(&["serve", "--queue-depth", "zap"])).unwrap_err();
        assert!(err.contains("--queue-depth"), "{err}");
        let err = run(&args(&["serve", "--queue-depth", "99999"])).unwrap_err();
        assert!(err.contains("queue_depth"), "{err}");
        let err = run(&args(&["serve", "--request-deadline-ms", "0"])).unwrap_err();
        assert!(err.contains("request_deadline_ms"), "{err}");
        let err = run(&args(&["serve", "--idle-timeout-ms", "5"])).unwrap_err();
        assert!(err.contains("idle_timeout_ms"), "{err}");
        let err = run(&args(&["serve", "--chaos-permille", "1001"])).unwrap_err();
        assert!(err.contains("chaos.fault_permille"), "{err}");
        let err = run(&args(&["serve", "--chaos-seed", "3"])).unwrap_err();
        assert!(err.contains("needs --chaos-permille"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn serve_round_trips_over_a_unix_socket() {
        let sock = std::env::temp_dir().join(format!("parpat-serve-{}.sock", std::process::id()));
        let sock_str = sock.to_string_lossy().into_owned();
        // `run` blocks until shutdown; drive it from a second thread.
        let server = std::thread::spawn({
            let a = args(&["serve", "--unix", &sock_str, "--workers", "2", "--cache-dir", "none"]);
            move || run(&a)
        });
        // Wait for the socket to appear, then do one warm/cold round.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut client = loop {
            if let Ok(c) = parpat_serve::Client::connect_unix(&sock) {
                break c;
            }
            assert!(std::time::Instant::now() < deadline, "socket never appeared");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let cold = client.analyze("cli.ml", REDUCTION_SRC).unwrap();
        assert!(cold.contains("\"status\": \"ok\""), "{cold}");
        assert!(cold.contains("\"cached\": false"), "{cold}");
        let warm = client.analyze("cli.ml", REDUCTION_SRC).unwrap();
        assert!(warm.contains("\"cached\": true"), "{warm}");
        assert!(warm.contains("\"funcs_reanalyzed\": 0"), "{warm}");
        client.shutdown().unwrap();
        let summary = server.join().expect("server thread").unwrap();
        assert!(summary.contains("=== serve session ==="), "{summary}");
        assert!(summary.contains("2 request(s)"), "{summary}");
        assert!(!sock.exists(), "socket file is removed on shutdown");
    }

    #[test]
    fn stats_without_prior_batch_errors() {
        let err = run(&args(&["stats", "--cache-dir", "/definitely/not/here"])).unwrap_err();
        assert!(err.contains("run `parpat batch` first"), "{err}");
    }

    #[test]
    fn suggest_ranks_and_infers_operator() {
        let path = write_temp("red3.ml", REDUCTION_SRC);
        let out = run(&args(&["suggest", &path])).unwrap();
        assert!(out.contains("ranked patterns"), "{out}");
        assert!(out.contains("sum reduction"), "{out}");
    }

    #[test]
    fn suggest_rejects_non_finite_and_sub_one_workers() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/legacy_ledger/programs/pipe.ml");
        for bad in ["nan", "inf", "0", "-3"] {
            let err = run(&args(&["suggest", path, "--workers", bad])).unwrap_err();
            assert!(
                err.contains(&format!(
                    "--workers must be a finite number of at least 1, got `{bad}`"
                )),
                "`{bad}` gave: {err}"
            );
        }
        let err = run(&args(&["suggest", path, "--workers", "zap"])).unwrap_err();
        assert!(err.contains("invalid --workers value `zap`"), "{err}");
        let out = run(&args(&["suggest", path, "--workers", "1"])).unwrap();
        assert!(out.contains("(workers = 1)"), "{out}");
    }

    /// `argv` must fail, naming `flag` as an unknown `cmd` option.
    fn rejects_unknown(argv: &[&str], cmd: &str, flag: &str) {
        let err = run(&args(argv)).unwrap_err();
        assert!(err.contains(&format!("unknown {cmd} option `{flag}`")), "{argv:?} gave: {err}");
    }

    #[test]
    fn analyze_rejects_unknown_flags() {
        let path = write_temp("unknown-analyze.ml", REDUCTION_SRC);
        rejects_unknown(&["analyze", &path, "--bogus", "1"], "analyze", "--bogus");
        rejects_unknown(&["analyze", &path, "--hotpsot", "5"], "analyze", "--hotpsot");
        assert!(run(&args(&["analyze", &path, "--max-mem-cells", "100000"])).is_ok());
    }

    #[test]
    fn suggest_rejects_unknown_flags() {
        let path = write_temp("unknown-suggest.ml", REDUCTION_SRC);
        rejects_unknown(&["suggest", &path, "--worker", "4"], "suggest", "--worker");
    }

    #[test]
    fn lint_rejects_unknown_flags() {
        rejects_unknown(&["lint", "apps", "--jsn"], "lint", "--jsn");
    }

    #[test]
    fn verify_rejects_unknown_flags() {
        rejects_unknown(&["verify", "apps", "--verbsoe"], "verify", "--verbsoe");
    }

    #[test]
    fn shrink_rejects_unknown_flags() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/miscompile_seed.ml");
        rejects_unknown(&["shrink", path, "--injcet", "swap-add-sub"], "shrink", "--injcet");
    }

    #[test]
    fn serve_rejects_unknown_flags() {
        rejects_unknown(&["serve", "--worker", "2"], "serve", "--worker");
    }

    #[test]
    fn stats_rejects_unknown_flags() {
        rejects_unknown(&["stats", "--cache-dr", "none"], "stats", "--cache-dr");
    }

    #[test]
    fn run_rejects_unknown_flags() {
        let path = write_temp("unknown-run.ml", "fn main() { return 6 * 7; }");
        rejects_unknown(&["run", &path, "--foo"], "run", "--foo");
    }

    #[test]
    fn apps_demo_and_dot_reject_unknown_flags() {
        rejects_unknown(&["apps", "--jsn"], "apps", "--jsn");
        rejects_unknown(&["demo", "fib", "--jsno"], "demo", "--jsno");
        let path = write_temp("unknown-dot.ml", REDUCTION_SRC);
        rejects_unknown(&["dot", &path, "--regoin", "main"], "dot", "--regoin");
    }

    #[test]
    fn run_executes() {
        let path = write_temp("run.ml", "fn main() { return 6 * 7; }");
        let out = run(&args(&["run", &path])).unwrap();
        assert!(out.contains("main returned 42"), "{out}");
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&args(&["analyze", "/definitely/not/here.ml"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn apps_lists_the_suite() {
        let out = run(&args(&["apps"])).unwrap();
        assert!(out.contains("ludcmp"));
        assert!(out.contains("sum_module"));
        assert_eq!(out.lines().count(), 19);
    }

    #[test]
    fn demo_analyzes_registered_app() {
        let out = run(&args(&["demo", "fib"])).unwrap();
        assert!(out.contains("task parallelism"), "{out}");
        assert!(run(&args(&["demo", "nope"])).is_err());
    }

    #[test]
    fn json_output_is_emitted_and_balanced() {
        let path = write_temp("json.ml", REDUCTION_SRC);
        let out = run(&args(&["suggest", &path, "--json"])).unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"reductions\""), "{out}");
        assert!(out.contains("\"operator\": \"sum\""), "{out}");
        // Braces and brackets balance.
        let bal = |open: char, close: char| {
            out.chars().filter(|&c| c == open).count()
                == out.chars().filter(|&c| c == close).count()
        };
        assert!(bal('{', '}'));
        assert!(bal('[', ']'));
    }

    #[test]
    fn dot_renders_classified_graph() {
        let path = write_temp(
            "dot.ml",
            "global e[8];
global f[8];
global g[8];
fn main() {
    for i in 0..8 { e[i] = i; }
    for i in 0..8 { f[i] = i * 2; }
    for i in 0..8 { g[i] = e[i] + f[i]; }
}",
        );
        let out = run(&args(&["dot", &path])).unwrap();
        assert!(out.starts_with("digraph"), "{out}");
        assert!(out.contains("barrier"), "{out}");
        assert!(out.contains("->"), "{out}");
    }

    #[test]
    fn parse_errors_are_surfaced() {
        let path = write_temp("broken.ml", "fn main() { let = ; }");
        let err = run(&args(&["analyze", &path])).unwrap_err();
        assert!(err.contains("parse error"), "{err}");
    }
}
