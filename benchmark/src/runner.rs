//! One workload in this process: set up, warm up, time, verify, report.

use crate::json::Json;
use crate::metrics::{metrics_json, Value, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::median;
use crate::trace::{self_seconds_by_layer, spans_json, Recorder};
use crate::workload::{Log, Opts, Verdict};
use crate::workloads;
use std::time::{Duration, Instant};

/// Set-ups before the warm-up; `setup_s` takes their median, so one slow
/// page-fault storm does not decide it.
const SETUP_REPS: usize = 3;

/// A field of `/proc/self/status` (`VmHWM:`, `Threads:`), as the number
/// the kernel prints.
pub fn proc_status(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// What one run found.
pub struct Outcome {
    pub verdict: Verdict,
    pub values: Vec<Value>,
    /// Lines for people, printed above the result line.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.verdict.failed == 0
    }

    /// The line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.verdict.attempted)),
            ("failed", Json::Int(self.verdict.failed)),
            ("metrics", metrics_json(&self.values)),
        ])
        .render()
    }
}

pub fn run(name: &str, opts: &Opts) -> Outcome {
    let mut workload = workloads::by_name(name, opts).expect("caller checked the name");
    let epoch = Instant::now();

    // Set-up: everything from the seed to a state ops can run against,
    // then one untimed round so caches fill and lazy artifacts exist.
    let mut construct_s: Vec<f64> = (0..if opts.quick { 1 } else { SETUP_REPS })
        .map(|_| {
            let t0 = Instant::now();
            workload.construct();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let t0 = Instant::now();
    if !opts.quick {
        workload.timed(None, false, epoch);
    }
    let warmup_s = t0.elapsed().as_secs_f64();

    let budget = (!opts.quick).then(|| Duration::from_secs_f64(opts.seconds));
    let mut log = workload.timed(budget, opts.trace && !opts.quick, epoch);
    // Peak memory of the workload itself: the oracle below would dwarf it.
    let peak_rss_mb = proc_status("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0);

    if opts.corrupt {
        if let Some(digest) = log.checks.first_mut().and_then(|c| c.digest.as_mut()) {
            digest.hash ^= 1;
        }
    }
    let t0 = Instant::now();
    let verdict = workload.verify(&log);
    let verify_s = t0.elapsed().as_secs_f64();

    construct_s.extend(&log.construct_s);
    let setup_s = median(&mut construct_s) + warmup_s;
    let classes = workload.classes();
    let mut report = vec![format!(
        "{name}: seed {} rows {} | {} rounds, {} query ops ({} per round), {} cells per round | set-up {:.3} s = median of {} constructs {:.3} s + warm-up {:.3} s | verify {:.3} s",
        opts.seed,
        opts.rows,
        log.rounds.len(),
        log.ops(),
        log.round_ops,
        log.round_cells,
        setup_s,
        construct_s.len(),
        setup_s - warmup_s,
        warmup_s,
        verify_s,
    )];
    for p in [50.0, 90.0] {
        let at = log.class_at(p, &classes);
        report.push(format!(
            "  op_p{p:.0}_ms {:.3} (n = {}) lands among `{}` ops: {:.0} % of the samples within 5 points of it",
            log.latency_ms(p),
            log.ops(),
            classes[at.class],
            at.purity * 100.0,
        ));
    }
    if !log.ingests.is_empty() {
        report.push(format!(
            "  ingest p50 {:.3} ms, p90 {:.3} ms (n = {})",
            log.ingest_ms(50.0),
            log.ingest_ms(90.0),
            log.ingests.len()
        ));
    }
    for detail in &verdict.details {
        report.push(format!("  FAILED {detail}"));
    }

    let values = if opts.quick {
        report.push("  timings not comparable (--quick)".into());
        Vec::new()
    } else if opts.trace {
        let of_the_run = vec![
            (
                "fail_ratio".to_string(),
                verdict.failed as f64 / verdict.attempted.max(1) as f64,
            ),
            ("verify_s".to_string(), verify_s),
            ("peak_rss_mb".to_string(), peak_rss_mb),
        ];
        let values = per_layer(name, opts, &mut log, of_the_run, epoch);
        if name == "serve_mix" {
            // The layer's self time must add up: what the wire adds plus
            // what the same requests cost in process is what clients saw.
            let of = |metric: &str| {
                values
                    .iter()
                    .find(|v| v.name == metric)
                    .map_or(0.0, |v| v.value)
            };
            let (sum, seen) = (
                of("serve.wire_overhead_ms") + of("serve.twin_p50_ms"),
                log.latency_ms(50.0),
            );
            report.push(format!(
                "  serve.wire_overhead_ms + serve.twin_p50_ms = {sum:.3} ms against op_p50_ms {seen:.3} ms ({:+.1} %)",
                (sum / seen - 1.0) * 100.0
            ));
        }
        values
    } else {
        let found = [
            ("setup_s", setup_s),
            ("op_p50_ms", log.latency_ms(50.0)),
            ("op_p90_ms", log.latency_ms(90.0)),
            ("first_batch_p50_ms", log.first_p50_ms()),
            ("ops_per_s", log.ops_per_s()),
            ("cells_per_s", log.cells_per_s()),
        ];
        END_TO_END
            .iter()
            .map(|m| {
                let (_, value) = found
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .expect("every end-to-end metric is measured");
                Value {
                    name: m.name,
                    value: *value,
                    unit: m.unit,
                }
            })
            .collect()
    };
    Outcome {
        verdict,
        values,
        report,
    }
}

/// The traced run's metrics: what `found` already holds of the run, the
/// workload's own spans reduced to self time per layer, then the probe
/// suite, all in vocabulary order. Also writes the
/// span file.
fn per_layer(
    name: &str,
    opts: &Opts,
    log: &mut Log,
    mut found: probes::Found,
    epoch: Instant,
) -> Vec<Value> {
    let by_layer = self_seconds_by_layer(&log.spans);
    for layer in ["algo", "session", "serve", "delta"] {
        found.push((
            format!("trace.self_s.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
        ));
    }
    found.push(("trace.spans".into(), log.spans.len() as f64));
    found.push(("trace.overhead_ratio".into(), log.trace_overhead_ratio()));
    found.push(("round.ops".into(), log.round_ops as f64));
    found.push(("round.cells".into(), log.round_cells as f64));

    let mut rec = Recorder::new(epoch, 7, 1 << 13);
    found.extend(probes::suite(opts, &mut rec));
    log.spans.extend(rec.into_spans());
    write_spans(name, log);

    PER_LAYER
        .iter()
        .filter_map(|m| {
            let (_, value) = found.iter().find(|(n, _)| n == m.name)?;
            Some(Value {
                name: m.name,
                value: *value,
                unit: m.unit,
            })
        })
        .collect()
}

/// `out/` beside the benchmark's manifest: inside the checkout wherever
/// the benchmark was built.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_spans(name: &str, log: &Log) {
    let dir = out_dir();
    let path = dir.join(format!("trace.{name}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans_json(&log.spans).render()));
    if let Err(e) = written {
        // The metrics do not depend on the file; say so and go on.
        eprintln!("could not write {}: {e}", path.display());
    }
}
