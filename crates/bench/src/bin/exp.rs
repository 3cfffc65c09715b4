//! `exp` — regenerate the C-Cubing paper's tables and figures.
//!
//! ```text
//! exp [--scale F] [--seed N] [--threads N] [--out PATH] [list | all | <id>...]
//! ```
//!
//! * `list` prints the available experiment ids.
//! * `all` runs every experiment in paper order.
//! * `--scale` multiplies tuple counts relative to the paper (default 0.1;
//!   use `--scale 1.0` for paper-sized inputs).
//! * `--threads` routes every timed cube computation through the
//!   partition-parallel engine on N worker threads (default 1 =
//!   sequential, the paper's setting).
//! * `--out` additionally appends the Markdown report to a file.

use ccube_bench::{all_experiments, ExpOptions};
use std::io::Write;

fn main() {
    let mut opts = ExpOptions::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| die("--scale needs a value"));
                opts.scale = v.parse().unwrap_or_else(|_| die("bad --scale value"));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| die("--seed needs a value"));
                opts.seed = v.parse().unwrap_or_else(|_| die("bad --seed value"));
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--threads needs a value"));
                opts.threads = v.parse().unwrap_or_else(|_| die("bad --threads value"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        print_help();
        return;
    }

    let registry = all_experiments();
    if ids.iter().any(|i| i == "list") {
        for (id, _) in &registry {
            println!("{id}");
        }
        return;
    }
    let selected: Vec<&(&str, ccube_bench::figures::ExperimentFn)> =
        if ids.iter().any(|i| i == "all") {
            registry.iter().collect()
        } else {
            ids.iter()
                .map(|want| {
                    registry
                        .iter()
                        .find(|(id, _)| id == want)
                        .unwrap_or_else(|| die(&format!("unknown experiment `{want}`")))
                })
                .collect()
        };

    let mut report = String::new();
    report.push_str(&format!(
        "## C-Cubing experiment run (scale {}, seed {}, threads {})\n\n",
        opts.scale, opts.seed, opts.threads
    ));
    for (id, f) in selected {
        eprintln!("[exp] running {id} ...");
        let start = std::time::Instant::now();
        let fig = f(&opts);
        eprintln!("[exp] {id} done in {:.1}s", start.elapsed().as_secs_f64());
        let md = fig.to_markdown();
        println!("{md}");
        report.push_str(&md);
    }
    if let Some(path) = out_path {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
        file.write_all(report.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("[exp] report appended to {path}");
    }
}

fn print_help() {
    println!(
        "exp — regenerate the C-Cubing paper's tables and figures\n\n\
         USAGE: exp [--scale F] [--seed N] [--threads N] [--out PATH] [list | all | <id>...]\n\n\
         IDs: tbl1, fig3..fig18, rules, ablate-mm, ablate-order (the paper),\n\
         lifecycle, serve, ingest (see `exp list`).\n\
         Default scale 0.1 (100K tuples where the paper used 1M); \
         --scale 1.0 reproduces paper-sized inputs.\n\
         --threads N times every figure through the parallel engine.\n\
         `lifecycle` (cancel latency, token-poll overhead) writes\n\
         BENCH_lifecycle.json and `serve` (1/8/64 concurrent TCP clients) writes\n\
         BENCH_serve.json; CCUBE_ASSERT_LIFECYCLE=1 / CCUBE_ASSERT_SERVE=1 arm\n\
         their acceptance gates. `ingest` times ingests and patches on the\n\
         four ladder tables, ungated. Per-layer performance numbers come from\n\
         benchmark/ (see benchmark/README.md), not from here."
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}
