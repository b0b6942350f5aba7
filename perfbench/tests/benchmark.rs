//! The benchmark's own tests: seeded job lists, the metric tables against
//! `BENCHMARK.json` and the README, and a minimal-size run of every
//! workload with and without tracing.

use perfbench::metrics::{Metrics, END_TO_END, PER_LAYER};
use perfbench::workloads::{job_list, run, RunOpts, WORKLOADS};
use std::path::PathBuf;

/// The command that runs the benchmark, and how long one run measures.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
const RUN_SECONDS: u32 = 20;

fn quoted(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `BENCHMARK.json` as the tables describe it.
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_lists_the_tables() {
    let expected = benchmark_json();
    assert!(
        repo_file("../BENCHMARK.json") == expected,
        "BENCHMARK.json is out of date; expected:\n{expected}"
    );
}

#[test]
fn readme_maps_every_per_layer_metric_to_what_it_moves() {
    let readme = repo_file("README.md");
    for m in PER_LAYER {
        let row = format!("| `{}` | {} | {} |", m.name, m.unit, m.moves);
        assert!(readme.contains(&row), "README.md lacks the row\n{row}");
    }
}

#[test]
fn a_seed_fixes_the_job_list() {
    for (workload, _) in WORKLOADS {
        let first = job_list(workload, 7);
        assert!(!first.is_empty(), "{workload}");
        assert_eq!(first, job_list(workload, 7), "{workload}");
        assert_ne!(first, job_list(workload, 8), "{workload}");
    }
}

/// A minimal run of `workload`, which must finish with `failed_ratio` 0.
fn minimal_run(workload: &str, trace: bool) -> Metrics {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-trace{}", u8::from(trace)));
    std::fs::create_dir_all(&work_dir).expect("the work directory can be created");
    let opts = RunOpts {
        seed: 3,
        seconds: 0.0,
        trace,
        minimal: true,
        work_dir,
    };
    let outcome = run(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.attempted > 0, "{workload}");
    assert_eq!(outcome.failed, 0, "{workload}: failed_ratio must be 0");
    outcome.metrics
}

fn emits_every_end_to_end_metric(workload: &str) {
    let metrics = minimal_run(workload, false);
    for m in END_TO_END {
        assert!(metrics.has(m.name), "{workload} does not emit {}", m.name);
        assert!(metrics.get(m.name) > 0.0, "{workload}: {} is 0", m.name);
    }
}

#[test]
fn minimal_compile_run_succeeds() {
    emits_every_end_to_end_metric("compile");
}

#[test]
fn minimal_simulate_run_succeeds() {
    emits_every_end_to_end_metric("simulate");
}

#[test]
fn minimal_batch_run_succeeds() {
    emits_every_end_to_end_metric("batch");
}

#[test]
fn minimal_rebuild_run_succeeds() {
    emits_every_end_to_end_metric("rebuild");
}

/// A workload that is run reports only the per-layer metrics it set;
/// every listed one must be set by at least one workload, so that a
/// metric whose layer stops being reached shows here.
#[test]
fn traced_minimal_runs_set_every_per_layer_metric() {
    let traced: Vec<Metrics> = WORKLOADS
        .iter()
        .map(|(workload, _)| minimal_run(workload, true))
        .collect();
    for m in PER_LAYER {
        assert!(
            traced.iter().any(|metrics| metrics.has(m.name)),
            "no workload sets {}",
            m.name
        );
    }
}
