//! Throughput bench for the compilation service: the full PolyBench
//! suite (19 kernels, each compiled twice — a fresh pass and a warm
//! recompile, the shape of an edit-rebuild sweep) through the verilog
//! backend, three ways:
//!
//! 1. **single-shot** — one `futil` process per job, serially: the
//!    workflow `--batch` replaces. Pays process spawn + registry
//!    construction + a full generator run per job.
//! 2. **batch --jobs 1** — one process, one worker: isolates the warm
//!    registries and the parse cache (the recompile pass clones the
//!    cached parsed program instead of re-running the generator).
//! 3. **batch --jobs N** — the default worker count: adds pipelining
//!    across jobs. On a single-CPU host this measures scheduling
//!    overhead, not speedup; the honest headline on such hosts is
//!    batch-vs-single-shot.
//!
//! Each configuration reports wall time, kernels/sec, and p50/p99 job
//! latency; the final lines give the kernels/sec speedups over the
//! single-shot baseline. Run with `cargo bench --bench batch_throughput`.

use calyx_polybench::KERNELS;
use calyx_service::{percentile, CompileService, JobDefaults, JobRequest, WorkerPool};
use std::process::Command;
use std::time::{Duration, Instant};

/// The sweep: every kernel twice — fresh, then a warm recompile.
fn sweep(kernels: &[&str], backend: &str) -> Vec<JobRequest> {
    let mut reqs = Vec::new();
    for _pass in 0..2 {
        for name in kernels {
            reqs.push(JobRequest {
                frontend: Some("polybench".to_string()),
                fopts: vec![("kernel".to_string(), name.to_string())],
                backend: Some(backend.to_string()),
                name: Some(name.to_string()),
                ..JobRequest::default()
            });
        }
    }
    reqs
}

struct Sample {
    wall: Duration,
    latencies: Vec<Duration>,
}

impl Sample {
    fn kernels_per_sec(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn report(&self, label: &str) {
        let mut lat = self.latencies.clone();
        lat.sort();
        println!(
            "  {label:<22} {:>10.3?}  {:>7.1} kernels/sec  p50 {:.3?}  p99 {:.3?}",
            self.wall,
            self.kernels_per_sec(),
            percentile(&lat, 50),
            percentile(&lat, 99),
        );
    }
}

/// One `futil` process per job, serially — the pre-`--batch` workflow.
fn run_single_shot(reqs: &[JobRequest]) -> Sample {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(reqs.len());
    for req in reqs {
        let t = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_futil"))
            .args([
                "-",
                "-f",
                "polybench",
                "--fopt",
                &format!("kernel={}", req.name.as_deref().unwrap()),
                "-b",
                req.backend.as_deref().unwrap(),
            ])
            .output()
            .expect("futil spawns");
        assert!(
            out.status.success(),
            "single-shot {} failed: {}",
            req.name.as_deref().unwrap(),
            String::from_utf8_lossy(&out.stderr)
        );
        latencies.push(t.elapsed());
    }
    Sample {
        wall: start.elapsed(),
        latencies,
    }
}

/// One process, one shared service — `futil --batch` in-process.
fn run_batch(reqs: &[JobRequest], jobs: usize) -> Sample {
    // A fresh service per sample: every sample pays the same cache
    // misses on the first pass and earns the same hits on the second.
    let service = CompileService::new();
    let start = Instant::now();
    let summary = service.run_batch(reqs, jobs, false, &JobDefaults::default());
    let wall = start.elapsed();
    assert!(summary.all_ok(), "batch job failed");
    Sample {
        wall,
        latencies: summary.latencies(),
    }
}

fn best<F: FnMut() -> Sample>(samples: usize, mut f: F) -> Sample {
    let mut best: Option<Sample> = None;
    for _ in 0..samples {
        let s = f();
        if best.as_ref().is_none_or(|b| s.wall < b.wall) {
            best = Some(s);
        }
    }
    best.unwrap()
}

fn main() {
    // `cargo test` runs bench binaries with `--test`: shrink to a smoke
    // run that still exercises all three configurations.
    let test_mode = std::env::args().any(|a| a == "--test");
    let kernels: Vec<&str> = if test_mode {
        KERNELS.iter().take(2).map(|k| k.name).collect()
    } else {
        KERNELS.iter().map(|k| k.name).collect()
    };
    let samples = if test_mode { 1 } else { 3 };
    // At least 4 workers even on small hosts, so the multi-worker row
    // always measures a real pool (on one CPU: its scheduling overhead).
    let n = WorkerPool::default_jobs().max(4);

    for backend in ["verilog", "sim"] {
        let reqs = sweep(&kernels, backend);
        println!(
            "batch_throughput: {} kernels x 2 passes -> {backend} ({} jobs, best of {samples})",
            kernels.len(),
            reqs.len(),
        );
        let single = best(samples, || run_single_shot(&reqs));
        single.report("single-shot (1/proc)");
        let batch1 = best(samples, || run_batch(&reqs, 1));
        batch1.report("batch --jobs 1");
        let batch_n = best(samples, || run_batch(&reqs, n));
        batch_n.report(&format!("batch --jobs {n}"));

        println!(
            "  speedup vs single-shot: batch --jobs 1: {:.2}x, batch --jobs {n}: {:.2}x",
            batch1.kernels_per_sec() / single.kernels_per_sec(),
            batch_n.kernels_per_sec() / single.kernels_per_sec(),
        );
    }
}
