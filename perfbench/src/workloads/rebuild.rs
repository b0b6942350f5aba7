//! `rebuild`: the edit–rebuild loop on disk, one thread.
//!
//! Set-up cold-builds the PolyBench kernels' Dahlia sources (n = 8) to
//! Verilog through `calyx_plan::execute`, filling a fresh artifact cache,
//! and writes every artifact to an output directory. Each rebuild then
//! edits four sources (two touch only a comment, two grow n by one),
//! rebuilds every source against the persistent cache, and writes each
//! artifact over its previous output with `write_atomic`, as
//! `futil build -o` does. Rebuilds start at most every
//! [`REBUILD_PERIOD`], the pause standing for the developer's edit; it
//! also bounds how much a run writes to disk. A round is as many rebuilds
//! as it takes to give every source, in a seeded order, one comment edit
//! and one resize, so that rounds hold the same jobs however costly each
//! kernel is to compile. This is the only workload that reaches the plan
//! cache and the output write.
//! Renaming over an existing file can stall for tens of milliseconds on
//! ext4; the write is timed (per-layer `write.ms`) but kept out of job
//! latency, see `rebuild_all`.

use super::{
    finish, guarded, measure, repeat_setup, setup_repeats, Outcome, Phase, Report, RunOpts,
};
use crate::designs::{Design, DesignStats, Stimulus};
use crate::metrics::{ratio, tail_percentile, Metrics};
use crate::rng::Rng;
use crate::trace::Recorder;
use calyx_backend::{BackendOpts, BackendRegistry};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_frontend::{FrontendOpts, FrontendRegistry};
use calyx_plan::{derive, execute, BuildOpts, ExecEnv, PlanGraph, StateId, StepStatus};
use calyx_polybench::KERNELS;
use calyx_service::write_atomic;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const BASE_N: u64 = 8;
/// Edits per rebuild: half touch only a comment, half grow n.
const EDITS_PER_REBUILD: usize = 4;
/// The shortest time from one rebuild's start to the next one's.
const REBUILD_PERIOD: Duration = Duration::from_millis(250);
/// Latencies a run's quiet rounds hold at least, three rounds; the tail
/// percentile is fixed by it.
const TAIL_SAMPLES: usize = 570;
/// Every round counts as quiet: when writes stall, a rebuild takes about
/// a second and a round ten, so a run has only a few rounds, and choosing
/// among them would need a run several times `--seconds` to hold the
/// tail's samples.
const QUIET_PART: usize = 1;

fn kernels(minimal: bool) -> usize {
    if minimal {
        3
    } else {
        KERNELS.len()
    }
}

/// The current text of one source: its kernel at size `n`, plus a
/// trailing comment that every edit changes, so an edited source is
/// always new to the cache.
#[derive(Clone, Copy)]
struct SourceState {
    n: u64,
    revision: u64,
}

impl SourceState {
    fn text(self, kernel: usize) -> String {
        format!(
            "{}\n// revision {}\n",
            Design::Poly(kernel, self.n).dahlia_source(),
            self.revision
        )
    }
}

/// One edit: which source, and whether it grows `n` or only a comment.
#[derive(Clone, Copy)]
struct Edit {
    kernel: usize,
    resize: bool,
}

/// The seeded edits of one round, by rebuild: two passes over the
/// sources in a seeded order, alternately a comment edit and a resize,
/// the second pass giving each source the kind of edit the first did not.
fn round_edits(kernels: usize, rng: &mut Rng) -> Vec<Vec<Edit>> {
    let mut order: Vec<usize> = (0..kernels).collect();
    rng.shuffle(&mut order);
    let pass = |second: bool| -> Vec<Edit> {
        order
            .iter()
            .enumerate()
            .map(|(i, &kernel)| Edit {
                kernel,
                resize: (i % 2 == 1) != second,
            })
            .collect()
    };
    [pass(false), pass(true)]
        .iter()
        .flat_map(|edits| edits.chunks(EDITS_PER_REBUILD).map(<[Edit]>::to_vec))
        .collect()
}

/// Labels of the first rounds' edits for `seed`.
pub fn job_list(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    (0..4)
        .flat_map(|_| round_edits(kernels(true), &mut rng).concat())
        .map(|e| {
            let what = if e.resize { "resize" } else { "comment" };
            format!("{} {what}", KERNELS[e.kernel].name)
        })
        .collect()
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// A design on the direct in-process path: Dahlia frontend, `lower`,
/// Verilog.
struct Direct {
    unlowered: Context,
    lowered: Context,
    verilog: String,
}

fn direct(
    frontends: &FrontendRegistry,
    backends: &BackendRegistry,
    design: Design,
) -> Result<Direct, String> {
    let unlowered = frontends
        .get("dahlia", &FrontendOpts::default())
        .and_then(|f| f.parse(&design.dahlia_source()))
        .map_err(|e| format!("{design}: {e}"))?;
    let mut lowered = unlowered.clone();
    PassManager::from_names(&["lower"])
        .and_then(|mut pm| pm.run(&mut lowered))
        .map_err(|e| format!("{design}: {e}"))?;
    let mut out = Vec::new();
    backends
        .get("verilog", &BackendOpts::default())
        .and_then(|b| b.emit(&lowered, &mut out))
        .map_err(|e| format!("{design}: {e}"))?;
    Ok(Direct {
        unlowered,
        lowered,
        verilog: String::from_utf8(out).map_err(|e| e.to_string())?,
    })
}

struct Setup {
    graph: PlanGraph,
    env: ExecEnv,
    build: BuildOpts,
    from: StateId,
    to: StateId,
    out_dir: PathBuf,
    sources: Vec<SourceState>,
    next_revision: u64,
    /// Digest of the direct path's Verilog, by design.
    references: BTreeMap<Design, u64>,
    /// The unedited designs on the direct path, for the simulation checks.
    unedited: Vec<(Design, Direct)>,
    /// Bytes of the unedited designs' Verilog.
    verilog_bytes: u64,
}

fn output_path(out_dir: &Path, kernel: usize) -> String {
    out_dir
        .join(format!("{}.sv", KERNELS[kernel].name))
        .to_string_lossy()
        .into_owned()
}

/// Fresh directories, the plan graph, the references and the cold build.
fn setup(minimal: bool, dir: &Path) -> Result<Setup, String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
    }
    let out_dir = dir.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let graph = derive::standard();
    let from = graph.expect_state("dahlia").map_err(|e| e.to_string())?;
    let to = graph.expect_state("verilog").map_err(|e| e.to_string())?;
    let env = ExecEnv::default();
    let build = BuildOpts {
        cache_dir: dir.join("cache"),
        ..BuildOpts::default()
    };
    let sources = vec![
        SourceState {
            n: BASE_N,
            revision: 0,
        };
        kernels(minimal)
    ];
    let mut references = BTreeMap::new();
    let mut unedited = Vec::with_capacity(sources.len());
    let mut verilog_bytes = 0;
    for kernel in 0..sources.len() {
        let design = Design::Poly(kernel, BASE_N);
        let d = direct(&env.frontends, &env.backends, design)?;
        verilog_bytes += d.verilog.len() as u64;
        references.insert(design, digest(d.verilog.as_bytes()));
        unedited.push((design, d));
    }
    let route = graph.plan(from, to).map_err(|e| e.to_string())?;
    for (kernel, state) in sources.iter().enumerate() {
        let built = execute(&graph, &route, &state.text(kernel), &env, &build)
            .map_err(|e| format!("cold build of {}: {e}", KERNELS[kernel].name))?;
        let path = output_path(&out_dir, kernel);
        write_atomic(&path, built.output.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(Setup {
        graph,
        env,
        build,
        from,
        to,
        out_dir,
        sources,
        next_revision: 1,
        references,
        unedited,
        verilog_bytes,
    })
}

/// One rebuild job: route, then execute through the cache.
fn rebuild(
    s: &Setup,
    text: &str,
    rec: &mut Recorder,
    layers: &mut Metrics,
) -> Result<String, String> {
    let route = rec
        .span("plan.route", |_| s.graph.plan(s.from, s.to))
        .map_err(|e| e.to_string())?;
    let built = rec
        .span("plan.execute", |_| {
            execute(&s.graph, &route, text, &s.env, &s.build)
        })
        .map_err(|e| e.to_string())?;
    if rec.enabled() {
        for step in &built.steps {
            let (name, status) = (format!("plan.op.{}.ms", step.op), step.status);
            layers.add(&name, step.micros as f64 / 1e3);
            match status {
                StepStatus::Ran => layers.add("plan.steps.ran", 1.0),
                StepStatus::Cached => layers.add("plan.steps.cached", 1.0),
            }
        }
    }
    Ok(built.output)
}

/// Apply `edits`, rebuild every source, write every artifact and check it.
fn rebuild_all(s: &mut Setup, edits: &[Edit], phase: &mut Phase) {
    let started = Instant::now();
    // Edits and their references are prepared off the clock.
    for edit in edits {
        let state = &mut s.sources[edit.kernel];
        state.revision = s.next_revision;
        s.next_revision += 1;
        if edit.resize {
            state.n += 1;
        }
        let design = Design::Poly(edit.kernel, state.n);
        if !s.references.contains_key(&design) {
            match direct(&s.env.frontends, &s.env.backends, design) {
                Ok(d) => {
                    s.references.insert(design, digest(d.verilog.as_bytes()));
                }
                Err(e) => phase.fail("reference", &e),
            }
        }
    }
    let mut rec = phase.recorder(0);
    let first_job = phase.attempted;
    let mut built = Vec::with_capacity(s.sources.len());
    for (kernel, state) in s.sources.iter().enumerate() {
        let text = state.text(kernel);
        rec.set_job(first_job + kernel as u64);
        let t = Instant::now();
        let result = rec.span("job", |rec| {
            guarded(|| rebuild(s, &text, rec, &mut phase.layers))
        });
        let latency = t.elapsed();
        phase.wall += latency;
        phase.busy += latency;
        built.push((kernel, result, latency));
    }
    // Then every artifact is written over its previous output. The writes
    // are timed apart from the jobs, and after all of them, so that no job
    // starts on a CPU left idle by a write: the rename stall depends on
    // the host's disk, and on a shared 2-vCPU ext4 host it came and went
    // over minutes, by a factor of a hundred.
    let mut results = Vec::with_capacity(built.len());
    for (kernel, result, latency) in built {
        let path = output_path(&s.out_dir, kernel);
        rec.set_job(first_job + kernel as u64);
        let t = Instant::now();
        let result = result.and_then(|out| {
            rec.span("write", |_| write_atomic(&path, out.as_bytes()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if rec.enabled() {
                phase.layers.add("write.files", 1.0);
                phase.layers.add("write.bytes", out.len() as f64);
            }
            Ok(out)
        });
        phase.busy += t.elapsed();
        results.push((kernel, path, result, latency));
    }
    rec.drain_into(&mut phase.spans);
    for (kernel, path, result, latency) in results {
        let design = Design::Poly(kernel, s.sources[kernel].n);
        let want = s.references.get(&design);
        let checked = result.and_then(|built| {
            let on_disk = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            match want {
                Some(want) if digest(built.as_bytes()) == *want && digest(&on_disk) == *want => {
                    Ok(())
                }
                Some(_) => Err("artifact differs from the direct path".to_string()),
                None => Err("no reference".to_string()),
            }
        });
        match checked {
            Ok(()) => phase.ok(latency),
            Err(e) => phase.fail(&design.to_string(), &e),
        }
    }
    if let Some(pause) = REBUILD_PERIOD.checked_sub(started.elapsed()) {
        std::thread::sleep(pause);
    }
}

/// Check the unedited designs by simulation, off the clock; the first
/// check also records their cycles and area. Edited designs depend on
/// the seed, so they are checked only against the direct path's bytes.
fn check_designs(s: &Setup, designs: &mut DesignStats, first: bool) {
    for (design, d) in &s.unedited {
        match Stimulus::new(*design) {
            Ok(stim) => designs.check(
                &design.to_string(),
                &d.lowered,
                Some(&d.unlowered),
                &stim,
                first,
            ),
            Err(e) => designs.fail(&e),
        }
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let dir = opts
        .work_dir
        .join(format!("rebuild-{}", std::process::id()));
    let result = run_in(opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &RunOpts, dir: &Path) -> Result<Outcome, String> {
    let (setup_time, mut s) = repeat_setup(setup_repeats(opts), || setup(opts.minimal, dir))?;
    let mut designs = DesignStats::default();
    designs.verilog_bytes = s.verilog_bytes;
    check_designs(&s, &mut designs, true);
    let mut rng = Rng::new(opts.seed);
    let mut go = |phase: &mut Phase| {
        let rebuilds = round_edits(s.sources.len(), &mut rng);
        // Set-up's cold builds have already run every step, so one rebuild
        // is warm-up enough; a whole round would take ten seconds when
        // writes stall.
        let take = if phase.warming_up { 1 } else { rebuilds.len() };
        for edits in &rebuilds[..take] {
            rebuild_all(&mut s, edits, phase);
        }
    };
    let min_samples = if opts.minimal { 0 } else { TAIL_SAMPLES };
    let base = measure(opts, min_samples, 1, QUIET_PART, false, &mut go);
    let traced = opts
        .trace
        .then(|| measure(opts, min_samples, 1, QUIET_PART, true, &mut go));
    let mut derived = Metrics::default();
    if let Some(tr) = &traced {
        let (ran, cached) = (
            tr.layers.get("plan.steps.ran"),
            tr.layers.get("plan.steps.cached"),
        );
        derived.set("plan.step_hit_ratio", ratio(cached, ran + cached));
    }
    check_designs(&s, &mut designs, false);
    finish(
        "rebuild",
        opts,
        Report {
            setup: setup_time,
            base,
            traced,
            designs,
            tail_pct: tail_percentile(TAIL_SAMPLES),
            derived,
            notes: vec![format!(
                "{} sources rebuilt per rebuild, up to {EDITS_PER_REBUILD} edited; a round edits \
                 each twice; rebuilds start at most every {} ms",
                s.sources.len(),
                REBUILD_PERIOD.as_millis()
            )],
        },
    )
}
