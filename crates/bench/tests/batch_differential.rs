//! Determinism differential: `futil --batch` must emit **byte-identical**
//! output to single-shot `futil` for every PolyBench kernel — including
//! on the parse-cache hit path, where a batch job clones the cached
//! parsed program instead of re-running the generator.
//!
//! The suite drives the real binary both ways: once per kernel in
//! single-shot mode (`-o`), and once as one manifest batch with every
//! kernel listed twice (the second copy is guaranteed to hit the cache).

use calyx_polybench::KERNELS;
use calyx_service::json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn futil(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_futil"))
        .args(args)
        .output()
        .expect("futil spawns")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("futil-batch-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("missing output {}: {e}", path.display()))
}

#[test]
fn batch_is_byte_identical_to_single_shot_for_all_polybench_kernels() {
    let dir = scratch("polybench");
    let single = dir.join("single");
    let fresh = dir.join("fresh");
    let cached = dir.join("cached");

    // Single-shot baseline: one process per kernel.
    for k in KERNELS {
        let out = single.join(format!("{}.sv", k.name));
        std::fs::create_dir_all(&single).unwrap();
        let run = futil(&[
            "-",
            "-f",
            "polybench",
            "--fopt",
            &format!("kernel={}", k.name),
            "-b",
            "verilog",
            "-o",
            out.to_str().unwrap(),
        ]);
        assert!(
            run.status.success(),
            "single-shot {} failed: {}",
            k.name,
            String::from_utf8_lossy(&run.stderr)
        );
    }

    // One batch, every kernel twice: the first copy misses the cache
    // (runs the generator), the second hits it (clones the parsed program).
    let mut manifest = String::new();
    for k in KERNELS {
        for out_dir in [&fresh, &cached] {
            manifest.push_str(&format!(
                "{{\"frontend\": \"polybench\", \"fopts\": {{\"kernel\": \"{}\"}}, \
                 \"backend\": \"verilog\", \"name\": \"{}\", \"out\": \"{}/{}.sv\"}}\n",
                k.name,
                k.name,
                out_dir.display(),
                k.name
            ));
        }
    }
    let manifest_path = dir.join("jobs.jsonl");
    std::fs::write(&manifest_path, manifest).unwrap();
    let run = futil(&[
        "--batch",
        manifest_path.to_str().unwrap(),
        "--jobs",
        "4",
        "--format",
        "json",
    ]);
    assert!(
        run.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The summary agrees: 38 jobs, all ok, and every job either hit or
    // missed the cache. With 4 workers the two copies of a kernel may
    // race and both miss (the cache is check-then-insert, not a lock
    // around the generator), so the split is `misses >= 19`, not exactly
    // 19/19 — the deterministic single-worker split is pinned by the
    // service crate's own unit tests.
    let summary = json::parse(&String::from_utf8_lossy(&run.stdout)).expect("summary parses");
    assert_eq!(summary.get("jobs").unwrap().as_u64(), Some(38));
    assert_eq!(summary.get("ok").unwrap().as_u64(), Some(38));
    let cache = summary.get("parse_cache").unwrap();
    let misses = cache.get("misses").unwrap().as_u64().unwrap();
    let hits = cache.get("hits").unwrap().as_u64().unwrap();
    assert!(misses >= 19, "each kernel runs its generator at least once");
    assert_eq!(hits + misses, 38, "every job consults the cache");

    // The payoff: three compilation paths, identical bytes.
    for k in KERNELS {
        let name = format!("{}.sv", k.name);
        let baseline = read(&single.join(&name));
        assert!(!baseline.is_empty(), "{} emitted nothing", k.name);
        assert_eq!(
            baseline,
            read(&fresh.join(&name)),
            "{}: batch (cache miss) diverged from single-shot futil",
            k.name
        );
        assert_eq!(
            baseline,
            read(&cached.join(&name)),
            "{}: batch (cache hit) diverged from single-shot futil",
            k.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same job list must produce the same summary whether it runs on
/// one worker or many — only the timings may differ.
#[test]
fn job_order_and_statuses_are_deterministic_across_worker_counts() {
    let dir = scratch("order");
    let mut manifest = String::new();
    for k in KERNELS.iter().take(5) {
        manifest.push_str(&format!(
            "{{\"frontend\": \"polybench\", \"fopts\": {{\"kernel\": \"{}\"}}, \
             \"name\": \"{}\"}}\n",
            k.name, k.name
        ));
    }
    // One failing job in the middle: status must be stable too.
    manifest.push_str("{\"source\": \"component main( {\", \"name\": \"broken\"}\n");
    let manifest_path = dir.join("jobs.jsonl");
    std::fs::write(&manifest_path, manifest).unwrap();

    let mut rows_by_jobs = Vec::new();
    for jobs in ["1", "8"] {
        let run = futil(&[
            "--batch",
            manifest_path.to_str().unwrap(),
            "--jobs",
            jobs,
            "--format",
            "json",
        ]);
        assert_eq!(run.status.code(), Some(1), "a failing job exits 1");
        let summary = json::parse(&String::from_utf8_lossy(&run.stdout)).unwrap();
        let rows: Vec<(u64, String, String)> = summary
            .get("results")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.get("id").unwrap().as_u64().unwrap(),
                    r.get("name").unwrap().as_str().unwrap().to_string(),
                    r.get("status").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        rows_by_jobs.push(rows);
    }
    assert_eq!(rows_by_jobs[0], rows_by_jobs[1]);
    assert_eq!(rows_by_jobs[0][5].2, "error");
    let _ = std::fs::remove_dir_all(&dir);
}
