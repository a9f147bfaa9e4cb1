//! `bench_e2e`: one packet → verdict benchmark over the repository's public
//! API, with named workloads, end-to-end metrics and per-layer attribution.
//!
//! ```text
//! bench_e2e [run] --workload <name> | --all
//!                 [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! bench_e2e compare <parent.jsonl> <change.jsonl> [--bounds BENCHMARK.json]
//! ```
//!
//! The last line a single-workload run prints is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod adapter;
mod calib;
mod compare;
mod host;
mod json;
mod metrics;
mod placement;
mod run;
mod stats;
mod trace;
mod workloads;

use json::{object, render, string, Json};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  bench_e2e [run] (--workload <name> | --all) [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  bench_e2e compare <parent.jsonl> <change.jsonl> [--bounds BENCHMARK.json]
workloads: collect-mix, center-paper, wire-udp-lossy, tiered-chan";

struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        seed: run::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--all" => cli.all = true,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => cli.trace = false,
                "1" => cli.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(cli)
}

fn out_dir() -> std::path::PathBuf {
    std::env::var_os("BENCH_E2E_OUT")
        .map_or_else(|| "target/bench_e2e".into(), std::path::PathBuf::from)
}

/// The line the benchmark contract prescribes.
fn contract_line(outcome: &run::Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|((name, unit), value)| {
            (
                name.to_string(),
                object(vec![("value", Json::Float(*value)), ("unit", string(unit))]),
            )
        })
        .collect();
    object(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", Json::Object(metrics)),
    ])
}

fn run_one(cli: &Cli, name: &str, process_start: Instant) -> Result<ExitCode, String> {
    let spec = workloads::spec(name, cli.smoke)
        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    // The harness never runs more threads than the host has processors.
    let threads = spec.threads();
    if threads > host::nproc() {
        return Err(format!(
            "{name} needs {threads} threads and this host has {} processor: unmeasured",
            host::nproc()
        ));
    }
    let outcome = run::run(&run::Options {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        out_dir: out_dir(),
        process_start,
    })?;

    let header = host::header();
    println!(
        "# bench_e2e {name} seed={} trace={} smoke={}",
        cli.seed,
        u8::from(cli.trace),
        cli.smoke
    );
    println!("# host {}", render(header.clone()));
    println!(
        "# epochs attempted={} failed={} latency_samples={} verdict_digest={:016x} golden={:?}",
        outcome.attempted, outcome.failed, outcome.samples, outcome.digest, outcome.golden
    );
    println!(
        "# host slowdown {:.3} (median over the timed epochs; end-to-end times are scaled to nominal host speed)",
        outcome.slowdown
    );
    for why in &outcome.failures {
        println!("# failure: {why}");
    }
    for ((metric, unit), value) in &outcome.metrics {
        println!("{metric:<34} {value:>18.6} {unit}");
    }
    let line = contract_line(&outcome);
    if let Some(path) = &cli.out {
        let record = object(vec![
            ("workload", string(name)),
            ("seed", Json::UInt(cli.seed)),
            ("trace", Json::UInt(u64::from(cli.trace))),
            ("smoke", Json::Bool(cli.smoke)),
            ("digest", string(&format!("{:016x}", outcome.digest))),
            ("samples", Json::UInt(outcome.samples as u64)),
            ("host_slowdown", Json::Float(outcome.slowdown)),
            ("host", header),
            ("result", line.clone()),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", render(record)))
            .map_err(|e| format!("appending to {path}: {e}"))?;
    }
    println!("{}", render(line));
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in a process of its own so that set-up time
/// and peak memory are that workload's alone.
fn run_all(cli: &Cli, args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let passthrough: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut results = Vec::new();
    for name in workloads::NAMES {
        if workloads::spec(name, false).is_some_and(|s| s.threads() > host::nproc()) {
            println!("# {name}: unmeasured (needs 2 threads, host has 1 processor)");
            results.push((name.to_string(), string("unmeasured")));
            continue;
        }
        let out = std::process::Command::new(&exe)
            .arg("run")
            .args(["--workload", name])
            .args(&passthrough)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{name} exited with {}", out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        results.push((name.to_string(), json::parse(last)?));
    }
    // No performance claim rides on a benchmark's own definition.
    let summary = object(vec![
        ("seed", Json::UInt(cli.seed)),
        ("trace", Json::UInt(u64::from(cli.trace))),
        ("host", host::header()),
        ("workloads", Json::Object(results)),
        ("claim", Json::Null),
    ]);
    println!("{}", render(summary));
    Ok(ExitCode::SUCCESS)
}

fn dispatch(process_start: Instant) -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => compare::main(&args[1..]),
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            let cli = parse_run_args(rest)?;
            match &cli.workload {
                Some(name) => run_one(&cli, name, process_start),
                None => run_all(&cli, rest),
            }
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match dispatch(process_start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
