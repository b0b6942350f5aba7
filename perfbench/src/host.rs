//! Host metadata recorded with every result, the process's peak
//! resident memory, and the calibration loop that tells quiet stretches
//! of a shared host from busy ones.

use crate::rng::Rng;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Entries of the calibration chain: 4 MiB of `u32`, past the private
/// caches, so that other tenants' use of the shared cache and memory
/// shows as well as their use of the CPUs.
const CHAIN_ENTRIES: usize = 1 << 20;
/// Steps each calibration thread follows the chain for.
const CHAIN_STEPS: usize = 1 << 14;

/// A random cyclic permutation of the chain's indices (Sattolo's
/// algorithm), so that following it visits every entry in an order the
/// prefetcher cannot guess.
fn chain() -> &'static [u32] {
    static CHAIN: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHAIN_ENTRIES as u32).collect();
        let mut rng = Rng::new(0);
        for i in (1..next.len()).rev() {
            next.swap(i, rng.below(i));
        }
        next
    })
}

/// The time `threads` threads take, started together, to each follow the
/// calibration chain for a fixed number of steps. The work never changes
/// and does not involve the program under test, so it measures only how
/// much of the machine the host gives this process: a thread that waits
/// for a vCPU or for memory shows as a longer time.
pub fn calibrate(threads: usize) -> Duration {
    let chain = chain();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let walkers: Vec<_> = (0..threads.max(1))
            .map(|t| {
                scope.spawn(move || {
                    let mut at = (t * CHAIN_ENTRIES / threads.max(1)) as u32;
                    for _ in 0..CHAIN_STEPS {
                        at = chain[at as usize];
                    }
                    std::hint::black_box(at);
                })
            })
            .collect();
        for walker in walkers {
            walker.join().expect("the calibration loop does not panic");
        }
    });
    started.elapsed()
}

/// Peak resident set size of this process in MiB (`VmHWM`), zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `unknown` outside a git checkout.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The type of the filesystem holding `dir`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount_point = Path::new(fields.get(4)?);
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs = fields.get(dash + 1)?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.as_os_str().len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// `key=value` pairs describing the host and the build.
pub fn metadata(root: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
        ("git_sha", git_sha(root)),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("filesystem", filesystem(root)),
    ]
}
