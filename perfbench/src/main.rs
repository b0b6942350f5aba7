//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints every metric
//! with its name and unit, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones and the spans are written as Chrome trace-event JSON.
//! The result, with host metadata, is also written under `.perfbench/`.

use perfbench::metrics::{Metrics, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, RunOpts, WORKLOADS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join("|")
    );
    exit(2);
}

fn parse_args() -> (String, RunOpts) {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        minimal: false,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("`{flag}` expects a value"));
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.iter().any(|(name, _)| *name == value) => {
                workload = Some(value)
            }
            "--workload" => usage(&format!("unknown workload `{value}`")),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("`--seed` expects a whole number"))
            }
            "--seconds" => {
                opts.seconds = match value.parse::<f64>() {
                    Ok(s) if s >= 0.0 && s.is_finite() => s,
                    _ => usage("`--seconds` expects a non-negative number"),
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("`--trace` expects 0 or 1"),
                }
            }
            other => usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(workload) = workload else {
        usage("`--workload` is required");
    };
    (workload, opts)
}

/// A metric value as JSON: finite numbers with all their digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &Metrics, trace: bool) -> String {
    let listed: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let fields: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(metrics.get(name))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let (workload, opts) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        exit(1);
    }
    let outcome = match workloads::run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            exit(1);
        }
    };
    let host = perfbench::host::metadata(std::path::Path::new("."));
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let mut report = String::new();
    let _ = writeln!(report, "# host: {}", host_line.join(" "));
    let _ = writeln!(
        report,
        "# workload={workload} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for note in &outcome.notes {
        let _ = writeln!(report, "# {note}");
    }
    let units: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in units {
        let _ = writeln!(
            report,
            "{name:<40} {:>18.4} {unit}",
            outcome.metrics.get(name)
        );
    }
    print!("{report}");

    let correct = outcome.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics, opts.trace)
    );
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{{}}}, \"result\": {line}}}\n",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_json.join(", "),
    );
    let path = opts.work_dir.join(format!(
        "result-{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}
