//! The repo's benchmark: one table ladder through cube, session, serve and
//! ingest. See README.md for the vocabulary and BENCHMARK.json for the
//! contract with the driver.
//!
//! ```text
//! ccube-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! ccube-benchmark run    [--workload NAME] [--seed N] [--quick]      end-to-end metrics, every workload
//! ccube-benchmark trace  [--workload NAME] [--seed N]                per-layer metrics and span files
//! ccube-benchmark repeat [--workload NAME] [--seed N]                A/A: everything twice, compared
//! ```

mod api;
mod digest;
mod exec;
mod json;
mod ladder;
mod metrics;
mod oracle;
mod probes;
mod runner;
mod stats;
mod trace;
mod workload;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use workload::Opts;

/// Rows per ladder table, and the `--quick` smoke's.
const ROWS: usize = 25_000;
const QUICK_ROWS: usize = 5_000;
/// `run_seconds` of BENCHMARK.json, for the commands people type.
const SECONDS: f64 = 20.0;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: SECONDS,
            trace: false,
            rows: 0,
            quick: false,
            corrupt: false,
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "trace" | "repeat" if parsed.command.is_none() => {
                parsed.command = Some(arg.clone())
            }
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; have {:?}",
                        workloads::NAMES
                    ));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                parsed.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.opts.quick = true,
            "--corrupt" => parsed.opts.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.opts.rows = if parsed.opts.quick { QUICK_ROWS } else { ROWS };
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (parsed.command.as_deref(), &parsed.workload) {
        (None, Some(name)) => {
            let outcome = runner::run(name, &parsed.opts);
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            outcome.correct()
        }
        (None, None) => {
            eprintln!("error: name a command (run, trace, repeat) or a --workload");
            return ExitCode::from(2);
        }
        (Some("repeat"), _) => repeat(&parsed),
        (Some(command), _) => {
            let trace = command == "trace";
            let results = run_set(&parsed, trace);
            write_report(if trace { "trace" } else { "run" }, &parsed.opts, &results);
            results.iter().all(|r| r.ok)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's result as its child process reported it.
struct ChildResult {
    workload: String,
    ok: bool,
    result: Json,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Run the chosen workloads, each in a child process of its own so that
/// `peak_rss_mb` and every cache start from nothing, and print what they
/// report.
fn run_set(parsed: &Args, trace: bool) -> Vec<ChildResult> {
    let exe = std::env::current_exe().expect("own path");
    let names: Vec<&str> = match &parsed.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    names
        .into_iter()
        .map(|name| {
            let opts = &parsed.opts;
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if opts.quick {
                child.arg("--quick");
            }
            if opts.corrupt {
                child.arg("--corrupt");
            }
            let output = child.output().expect("start own executable");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines
                .pop()
                .and_then(|l| Json::parse(l).ok())
                .unwrap_or(Json::Obj(Vec::new()));
            for line in lines {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let ok = output.status.success() && result.get("correct") == Some(&Json::Bool(true));
            let child = ChildResult {
                workload: name.to_string(),
                ok,
                result,
            };
            print_metrics(&child, trace);
            child
        })
        .collect()
}

fn print_metrics(child: &ChildResult, trace: bool) {
    let attempted = child
        .result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let failed = child
        .result
        .get("failed")
        .and_then(Json::as_f64)
        .unwrap_or(attempted);
    println!(
        "  {} ops attempted, {} failed: fail_ratio {}{}",
        attempted,
        failed,
        failed / attempted.max(1.0),
        if child.ok { "" } else { "  <-- FAILED" }
    );
    if trace {
        for m in &PER_LAYER {
            if let Some(v) = child.metric(m.name) {
                println!(
                    "  {:42} {:>16.6} {:5} ({} is better)",
                    m.name, v, m.unit, m.better
                );
            }
        }
    } else {
        for m in &END_TO_END {
            if let Some(v) = child.metric(m.name) {
                println!(
                    "  {:24} {:>16.6} {:4} ({} is better; may worsen by {} %)",
                    m.name,
                    v,
                    m.unit,
                    m.better,
                    m.bound * 100.0
                );
            }
        }
    }
    println!();
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `out/<kind>.json`: every result with where it came from.
fn write_report(kind: &str, opts: &Opts, results: &[ChildResult]) {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = Json::obj([
        ("seed", Json::Int(opts.seed)),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"], manifest_dir)),
        ),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("rows_per_table", Json::Int(opts.rows as u64)),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        (
            "workloads",
            Json::obj(
                results
                    .iter()
                    .map(|r| (r.workload.clone(), r.result.clone())),
            ),
        ),
    ]);
    let dir = runner::out_dir();
    let path = dir.join(format!("{kind}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report.render() + "\n"))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// A/A: the full set twice on this binary. Every end-to-end metric must
/// agree within its own bound, every exact count must be identical.
fn repeat(parsed: &Args) -> bool {
    let mut ok = true;
    for trace in [false, true] {
        let first = run_set(parsed, trace);
        let second = run_set(parsed, trace);
        ok &= first.iter().chain(&second).all(|r| r.ok);
        for (a, b) in first.iter().zip(&second) {
            println!(
                "A/A {} ({}):",
                a.workload,
                if trace { "exact counts" } else { "end to end" }
            );
            if trace {
                for m in PER_LAYER.iter().filter(|m| m.exact) {
                    let (x, y) = (a.metric(m.name), b.metric(m.name));
                    let same = x == y && x.is_some();
                    ok &= same;
                    println!(
                        "  {:42} {:?} / {:?}{}",
                        m.name,
                        x,
                        y,
                        if same { "" } else { "  <-- DIFFERS" }
                    );
                }
            } else {
                for m in &END_TO_END {
                    let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                        ok = false;
                        println!("  {:24} missing", m.name);
                        continue;
                    };
                    // Relative to the first run, signed so that positive
                    // is worse.
                    let worse = if m.better == "lower" {
                        (y - x) / x
                    } else {
                        (x - y) / x
                    };
                    let within = worse.abs() <= m.bound;
                    ok &= within;
                    println!(
                        "  {:24} {:>14.6} / {:>14.6} {:4} {:+7.2} % (bound {} %){}",
                        m.name,
                        x,
                        y,
                        m.unit,
                        worse * 100.0,
                        m.bound * 100.0,
                        if within { "" } else { "  <-- OUTSIDE" }
                    );
                }
            }
        }
    }
    println!("{}", if ok { "A/A passed" } else { "A/A FAILED" });
    ok
}
