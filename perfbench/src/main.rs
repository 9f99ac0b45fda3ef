use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::trace::Recorder;
use perfbench::workload::{self, Args, Report};

const USAGE: &str = "usage: perfbench --workload <batch-cold|serve-edit|lint> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Scratch and trace output, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up once, print the set-up time and exit (a set-up child).
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, got `{value}`")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Cli { workload, seed, seconds, trace, setup_only })
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn run(cli: &Cli, args: &Args) -> Result<Report, String> {
    let mut rec = Recorder::default();
    let report = match (cli.workload.as_str(), cli.trace) {
        ("batch-cold", false) => workload::batch_cold::run(args),
        ("batch-cold", true) => workload::batch_cold::traced(args, &mut rec),
        ("serve-edit", false) => workload::serve_edit::run(args),
        ("serve-edit", true) => workload::serve_edit::traced(args, &mut rec),
        ("lint", false) => workload::lint::run(args),
        ("lint", true) => workload::lint::traced(args, &mut rec),
        (w, _) => Err(format!("unknown workload `{w}`\n{USAGE}")),
    }?;
    if cli.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", cli.workload, cli.seed));
        std::fs::write(&path, rec.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace: {} spans written to {}", rec.spans().len(), path.display());
    }
    Ok(report)
}

fn render(r: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(r.metrics.len());
    for (name, value, unit) in &r.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("{name:<34} {value:>16.4} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!("ops timed: {}, failed: {}/{}", r.attempted, r.failed, r.attempted);
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(OUT_DIR).join(format!("{}-{}", cli.workload, std::process::id()));
    let created = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()));
    let args = Args {
        workload: cli.workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        work: work.clone(),
    };
    let result = created.and_then(|()| {
        if cli.setup_only {
            workload::setup_only(&args).map(|secs| secs.to_string())
        } else {
            run(&cli, &args).and_then(|r| render(&r))
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
