//! `batch`: one shared `CompileService` driven by `nproc` client threads.
//!
//! Each round starts a fresh service (so its parse cache starts cold) and
//! a seeded queue of jobs drawn with replacement from the PolyBench
//! kernels × n ∈ {4, 8} × {verilog, calyx, area}; the parse cache keys on
//! (kernel, n), so about half the jobs repeat an earlier key and can be
//! served from it. Clients take the next job as soon as their last one
//! returns (closed loop) and receive output inline, without disk I/O.
//! Every artifact must equal the direct in-process path computed in
//! set-up. The compile layers run concurrently here, so shared state
//! (the parse cache, `Id`'s global interner) shows.

use super::{finish, measure, repeat_setup, setup_repeats, Outcome, Phase, Report, RunOpts};
use crate::designs::{Design, DesignStats, Stimulus};
use crate::metrics::{add_ms, ratio, tail_percentile, Metrics};
use crate::rng::Rng;
use crate::trace::Recorder;
use calyx_backend::{BackendOpts, BackendRegistry};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_frontend::{FrontendOpts, FrontendRegistry};
use calyx_polybench::KERNELS;
use calyx_service::{CompileService, JobDefaults, JobRequest, JobResponse, Status};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SIZES: [u64; 2] = [4, 8];
const BACKENDS: [&str; 3] = ["verilog", "calyx", "area"];
const EMIT_SPANS: [&str; 3] = ["emit.verilog", "emit.calyx", "emit.area"];
/// Jobs per round: twice the number of parse-cache keys.
const ROUND_JOBS: usize = 2 * 19 * SIZES.len();
/// Latencies a run's quiet rounds hold at least; the tail percentile is
/// fixed by it.
const TAIL_SAMPLES: usize = 1000;

/// One queue entry: kernel, size, backend.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kernel: usize,
    n: u64,
    backend: usize,
}

impl Key {
    fn label(self) -> String {
        format!(
            "{} n={} -> {}",
            KERNELS[self.kernel].name, self.n, BACKENDS[self.backend]
        )
    }

    fn request(self) -> JobRequest {
        JobRequest {
            name: Some(self.label()),
            frontend: Some("polybench".to_string()),
            fopts: vec![
                ("kernel".to_string(), KERNELS[self.kernel].name.to_string()),
                ("n".to_string(), self.n.to_string()),
            ],
            backend: Some(BACKENDS[self.backend].to_string()),
            ..JobRequest::default()
        }
    }
}

fn kernels(minimal: bool) -> usize {
    if minimal {
        2
    } else {
        KERNELS.len()
    }
}

/// The direct path for one design: frontend, `lower`, each backend.
struct Reference {
    design: Design,
    unlowered: Context,
    lowered: Context,
    artifacts: [String; 3],
}

struct Setup {
    references: Vec<Reference>,
}

fn reference_index(key: Key) -> usize {
    key.kernel * SIZES.len() + SIZES.iter().position(|n| *n == key.n).expect("listed size")
}

fn setup(minimal: bool) -> Result<Setup, String> {
    let frontends = FrontendRegistry::default();
    let backends = BackendRegistry::default();
    let mut references = Vec::new();
    for (kernel, def) in KERNELS.iter().enumerate().take(kernels(minimal)) {
        for n in SIZES {
            let design = Design::Poly(kernel, n);
            let mut fopts = FrontendOpts::default();
            fopts.set("kernel", def.name);
            fopts.set("n", n.to_string());
            let unlowered = frontends
                .get("polybench", &fopts)
                .and_then(|f| f.parse(""))
                .map_err(|e| format!("{design}: {e}"))?;
            // Every backend of the queue requires `lower` or accepts
            // anything, which the service also resolves to `lower`.
            let mut lowered = unlowered.clone();
            PassManager::from_names(&["lower"])
                .and_then(|mut pm| pm.run(&mut lowered))
                .map_err(|e| format!("{design}: {e}"))?;
            let mut artifacts: [String; 3] = Default::default();
            for (artifact, name) in artifacts.iter_mut().zip(BACKENDS) {
                let backend = backends
                    .get(name, &BackendOpts::default())
                    .map_err(|e| e.to_string())?;
                let mut out = Vec::new();
                backend
                    .emit(&lowered, &mut out)
                    .map_err(|e| format!("{design}: {name}: {e}"))?;
                *artifact = String::from_utf8(out).map_err(|e| e.to_string())?;
            }
            references.push(Reference {
                design,
                unlowered,
                lowered,
                artifacts,
            });
        }
    }
    Ok(Setup { references })
}

/// One round's queue.
fn queue(minimal: bool, rng: &mut Rng) -> Vec<Key> {
    let jobs = if minimal { 8 } else { ROUND_JOBS };
    (0..jobs)
        .map(|_| Key {
            kernel: rng.below(kernels(minimal)),
            n: SIZES[rng.below(SIZES.len())],
            backend: rng.below(BACKENDS.len()),
        })
        .collect()
}

/// Jobs whose parse-cache key appeared earlier in the queue.
fn eligible(queue: &[Key]) -> usize {
    let mut seen = HashSet::new();
    queue
        .iter()
        .filter(|k| !seen.insert((k.kernel, k.n)))
        .count()
}

/// Labels of the first round's queue for `seed`.
pub fn job_list(seed: u64) -> Vec<String> {
    queue(true, &mut Rng::new(seed))
        .into_iter()
        .map(Key::label)
        .collect()
}

/// One client's results: queue index, latency, response.
type Done = Vec<(usize, Duration, JobResponse)>;

/// Parse-cache outcomes of the traced phase, for means and shares.
#[derive(Default)]
struct CacheOutcomes {
    hits: f64,
    hit_time: Duration,
    misses: f64,
    miss_time: Duration,
    eligible: f64,
}

fn round(s: &Setup, keys: &[Key], threads: usize, phase: &mut Phase, outcomes: &mut CacheOutcomes) {
    let service = CompileService::new();
    let defaults = JobDefaults {
        inline_output: true,
        ..JobDefaults::default()
    };
    let requests: Vec<JobRequest> = keys.iter().map(|k| k.request()).collect();
    let next = AtomicUsize::new(0);
    let base_job = phase.attempted;
    let started = Instant::now();
    let clients: Vec<(Done, Duration, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let mut rec = phase.recorder(tid);
                let (service, defaults, requests, next) = (&service, &defaults, &requests, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let client_start = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        rec.set_job(base_job + i as u64);
                        let t = Instant::now();
                        let resp = rec.span("job", |rec| {
                            let resp =
                                rec.span("service.execute", |_| service.execute(i, req, defaults));
                            // The service times its own stages; attribute them
                            // to the layers that ran them. A hit re-parses the
                            // cached canonical text instead of generating.
                            if let Some(st) = resp.stages {
                                let parse = match resp.cache {
                                    Some("hit") => "ir.parse",
                                    _ => "frontend.polybench",
                                };
                                rec.attribute_last(&[
                                    (parse, st.parse),
                                    ("pipeline.lower", st.passes),
                                    (EMIT_SPANS[keys[i].backend], st.emit),
                                ]);
                            }
                            resp
                        });
                        mine.push((i, t.elapsed(), resp));
                    }
                    (mine, client_start.elapsed(), rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("clients do not panic: the service catches job panics")
            })
            .collect()
    });
    phase.wall += started.elapsed();
    for (results, busy, mut rec) in clients {
        rec.drain_into(&mut phase.spans);
        phase.busy += busy;
        for (i, latency, resp) in results {
            let key = keys[i];
            let want = &s.references[reference_index(key)].artifacts[key.backend];
            let checked = match (&resp.status, &resp.output) {
                (Status::Ok, Some(out)) if out == want => Ok(()),
                (Status::Ok, _) => Err("output differs from the direct path".to_string()),
                (status, _) => Err(format!("{status}: {}", resp.error.as_deref().unwrap_or(""))),
            };
            if let Err(e) = checked {
                phase.fail(&key.label(), &e);
                continue;
            }
            phase.ok(latency);
            let layers = &mut phase.layers;
            if resp.cache == Some("hit") {
                outcomes.hits += 1.0;
                outcomes.hit_time += latency;
            } else {
                outcomes.misses += 1.0;
                outcomes.miss_time += latency;
            }
            if let Some(st) = resp.stages {
                add_ms(layers, "service.stage.parse.ms", st.parse);
                add_ms(layers, "service.stage.passes.ms", st.passes);
                add_ms(layers, "service.stage.emit.ms", st.emit);
                add_ms(
                    layers,
                    "service.stage.unattributed.ms",
                    st.total.saturating_sub(st.parse + st.passes + st.emit),
                );
            }
        }
    }
    let layers = &mut phase.layers;
    let stats = service.cache_stats();
    layers.add("service.parse_cache.hits", stats.hits as f64);
    layers.add("service.parse_cache.misses", stats.misses as f64);
    outcomes.eligible += eligible(keys) as f64;
}

/// Check the reference designs by simulation, off the clock; the first
/// check also records their cycles and area.
fn check_references(s: &Setup, designs: &mut DesignStats, first: bool) {
    for r in &s.references {
        match Stimulus::new(r.design) {
            Ok(stim) => designs.check(
                &r.design.to_string(),
                &r.lowered,
                Some(&r.unlowered),
                &stim,
                first,
            ),
            Err(e) => designs.fail(&e),
        }
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let (setup_time, s) = repeat_setup(setup_repeats(opts), || setup(opts.minimal))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut designs = DesignStats::default();
    designs.verilog_bytes = s
        .references
        .iter()
        .map(|r| r.artifacts[0].len() as u64)
        .sum();
    check_references(&s, &mut designs, true);
    let mut rng = Rng::new(opts.seed);
    let mut outcomes = CacheOutcomes::default();
    let mut go = |phase: &mut Phase| {
        let keys = queue(opts.minimal, &mut rng);
        round(&s, &keys, threads, phase, &mut outcomes);
        // Only the last phase's measured rounds are reported.
        if phase.warming_up {
            outcomes = CacheOutcomes::default();
        }
    };
    let min_samples = if opts.minimal { 0 } else { TAIL_SAMPLES };
    let base = measure(opts, min_samples, threads, 4, false, &mut go);
    let traced = opts
        .trace
        .then(|| measure(opts, min_samples, threads, 4, true, &mut go));
    let mut derived = Metrics::default();
    let o = &outcomes;
    let ms = |d: Duration, n: f64| ratio(d.as_secs_f64() * 1e3, n);
    derived.set("service.hit.ms", ms(o.hit_time, o.hits));
    derived.set("service.miss.ms", ms(o.miss_time, o.misses));
    derived.set(
        "service.parse_cache.hit_ratio",
        ratio(o.hits, o.hits + o.misses),
    );
    derived.set(
        "service.parse_cache.eligible_share",
        ratio(o.eligible, o.hits + o.misses),
    );

    check_references(&s, &mut designs, false);
    finish(
        "batch",
        opts,
        Report {
            setup: setup_time,
            base,
            traced,
            designs,
            tail_pct: tail_percentile(TAIL_SAMPLES),
            derived,
            notes: vec![format!(
                "{threads} client threads; {} jobs per round; {:.3} of traced jobs could hit the parse cache",
                if opts.minimal { 8 } else { ROUND_JOBS },
                ratio(o.eligible, o.hits + o.misses),
            )],
        },
    )
}
