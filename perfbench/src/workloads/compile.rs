//! `compile`: the paper's §7.4 compile path, one thread, in process.
//!
//! Each pass runs a fixed matrix of jobs in a seeded order: the
//! PolyBench kernels from Dahlia source through three pipelines to
//! Verilog, the same kernels as printed Calyx through `opt` to Calyx and
//! area, systolic arrays of three sizes, and one lint report per
//! distinct source. Frontends, passes, emission and lints do the work;
//! simulation, the service and the plan cache do none. `minimize-regs`
//! on the 5×5 array and the lint report of the 8×8 array set the tail,
//! the small PolyBench jobs set the median.

use super::{
    count_ir, finish, guarded, measure, record_analysis, record_passes, repeat_setup,
    setup_repeats, Outcome, Phase, Report, RunOpts,
};
use crate::designs::{Design, DesignStats, Stimulus};
use crate::metrics::{tail_percentile, Metrics};
use crate::rng::Rng;
use crate::trace::Recorder;
use calyx_backend::{BackendOpts, BackendRegistry};
use calyx_core::analysis::AnalysisCache;
use calyx_core::ir::{parse_context, validate::validate_context, Context, Printer};
use calyx_core::lint::LintRegistry;
use calyx_core::passes::PassManager;
use calyx_frontend::{FrontendOpts, FrontendRegistry};
use calyx_polybench::KERNELS;
use std::collections::BTreeMap;
use std::time::Instant;

/// PolyBench problem size.
const N: u64 = 8;
const PIPELINES: [&str; 3] = ["lower", "lower-static", "opt"];

/// Systolic sizes and the pipelines each is compiled with. 5×5 is the
/// largest array `opt` finishes in about a second (`minimize-regs` grows
/// roughly as n⁷); 8×8 under `lower` emits about 10 MB of Verilog.
const SYSTOLIC: &[(usize, &[&str])] = &[
    (4, &["lower-static", "opt"]),
    (5, &["opt"]),
    (8, &["lower", "lower-static"]),
];
const SYSTOLIC_MINIMAL: &[(usize, &[&str])] = &[(2, &["lower-static", "opt"]), (3, &["lower"])];

/// One program text and the frontend that reads it.
struct Source {
    frontend: &'static str,
    span: &'static str,
    text: String,
    design: Design,
}

#[derive(Clone, Copy)]
enum Action {
    Compile {
        pipeline: &'static str,
        backend: &'static str,
    },
    Lint,
}

#[derive(Clone, Copy)]
struct Job {
    source: usize,
    action: Action,
}

struct Setup {
    frontends: FrontendRegistry,
    backends: BackendRegistry,
    lints: LintRegistry,
    sources: Vec<Source>,
    jobs: Vec<Job>,
}

fn pipeline_span(pipeline: &str) -> &'static str {
    match pipeline {
        "lower" => "pipeline.lower",
        "lower-static" => "pipeline.lower-static",
        _ => "pipeline.opt",
    }
}

fn emit_span(backend: &str) -> &'static str {
    match backend {
        "verilog" => "emit.verilog",
        "calyx" => "emit.calyx",
        _ => "emit.area",
    }
}

/// The job matrix, without generating any source.
fn matrix(minimal: bool) -> (Vec<(&'static str, &'static str, Design)>, Vec<Job>) {
    let kernels = if minimal { 2 } else { KERNELS.len() };
    let systolic = if minimal { SYSTOLIC_MINIMAL } else { SYSTOLIC };
    let mut sources = Vec::new();
    let mut jobs = Vec::new();
    let compile = |pipeline, backend| Action::Compile { pipeline, backend };
    for k in 0..kernels {
        for pipeline in PIPELINES {
            jobs.push(Job {
                source: sources.len(),
                action: compile(pipeline, "verilog"),
            });
        }
        sources.push(("dahlia", "frontend.dahlia", Design::Poly(k, N)));
    }
    for k in 0..kernels {
        for backend in ["calyx", "area"] {
            jobs.push(Job {
                source: sources.len(),
                action: compile("opt", backend),
            });
        }
        sources.push(("calyx", "frontend.calyx", Design::Poly(k, N)));
    }
    for (n, pipelines) in systolic {
        for pipeline in *pipelines {
            jobs.push(Job {
                source: sources.len(),
                action: compile(pipeline, "verilog"),
            });
        }
        sources.push(("systolic", "frontend.systolic", Design::Systolic(*n)));
    }
    jobs.extend((0..sources.len()).map(|source| Job {
        source,
        action: Action::Lint,
    }));
    (sources, jobs)
}

fn setup(minimal: bool) -> Result<Setup, String> {
    let frontends = FrontendRegistry::default();
    let (specs, jobs) = matrix(minimal);
    let mut sources = Vec::with_capacity(specs.len());
    for (frontend, span, design) in specs {
        let text = match (frontend, design) {
            ("calyx", _) => {
                let dahlia = frontends
                    .get("dahlia", &FrontendOpts::default())
                    .and_then(|f| f.parse(&design.dahlia_source()))
                    .map_err(|e| format!("{design}: {e}"))?;
                Printer::print_context(&dahlia)
            }
            (_, Design::Poly(..)) => design.dahlia_source(),
            (_, Design::Systolic(_)) => design.systolic_config(),
        };
        sources.push(Source {
            frontend,
            span,
            text,
            design,
        });
    }
    Ok(Setup {
        frontends,
        backends: BackendRegistry::default(),
        lints: LintRegistry::default(),
        sources,
        jobs,
    })
}

/// A job's artifact, plus the lowered program for compile jobs.
struct Output {
    artifact: Vec<u8>,
    lowered: Option<Context>,
}

fn parse(s: &Setup, source: &Source, rec: &mut Recorder) -> Result<Context, String> {
    let frontend = s
        .frontends
        .get(source.frontend, &FrontendOpts::default())
        .map_err(|e| e.to_string())?;
    rec.span(source.span, |_| frontend.parse(&source.text))
        .map_err(|e| format!("{}: {e}", source.design))
}

fn run_job(s: &Setup, job: Job, rec: &mut Recorder, phase: &mut Phase) -> Result<Output, String> {
    let source = &s.sources[job.source];
    let mut ctx = parse(s, source, rec)?;
    let traced = rec.enabled();
    match job.action {
        Action::Lint => {
            let mut cache = AnalysisCache::new();
            let (findings, report) = rec.span("lint.check", |_| {
                let sink = s.lints.check_all(&ctx, &mut cache);
                (sink.len(), sink.render_text("source", &source.text))
            });
            if traced {
                phase.layers.add("lint.findings", findings as f64);
                record_analysis(cache.stats(), &mut phase.layers);
            }
            Ok(Output {
                artifact: report.into_bytes(),
                lowered: None,
            })
        }
        Action::Compile { pipeline, backend } => {
            if traced {
                count_ir(&ctx, &mut phase.layers, false);
            }
            let mut pm = PassManager::from_names(&[pipeline]).map_err(|e| e.to_string())?;
            rec.span(pipeline_span(pipeline), |_| pm.run(&mut ctx))
                .map_err(|e| format!("{}: {pipeline}: {e}", source.design))?;
            let emitter = s
                .backends
                .get(backend, &BackendOpts::default())
                .map_err(|e| e.to_string())?;
            let mut artifact = Vec::new();
            rec.span(emit_span(backend), |_| {
                emitter.validate(&ctx)?;
                emitter.emit(&ctx, &mut artifact)
            })
            .map_err(|e| format!("{}: {backend}: {e}", source.design))?;
            if traced {
                count_ir(&ctx, &mut phase.layers, true);
                record_passes(&pm, &mut phase.layers);
                if backend == "verilog" {
                    phase.verilog_emitted += artifact.len() as u64;
                }
            }
            Ok(Output {
                artifact,
                lowered: Some(ctx),
            })
        }
    }
}

fn label(s: &Setup, job: Job) -> String {
    let source = &s.sources[job.source];
    match job.action {
        Action::Compile { pipeline, backend } => {
            format!(
                "{} [{}] {pipeline} -> {backend}",
                source.design, source.frontend
            )
        }
        Action::Lint => format!("{} [{}] lint", source.design, source.frontend),
    }
}

/// Checks every job of a pass against the first pass and the IR's own
/// invariants; the first pass's outputs also feed the simulation checks.
struct Checker {
    first: Vec<Option<Vec<u8>>>,
    /// The first pass's lowered designs, by job, for the simulation
    /// checks (the area job lowers the same program as the calyx job, so
    /// it keeps none).
    kept: Vec<(usize, Context)>,
    designs: DesignStats,
}

impl Checker {
    fn check(&mut self, s: &Setup, job: usize, out: &Output) -> Result<(), String> {
        match &self.first[job] {
            Some(first) if *first != out.artifact => {
                return Err("output differs from the first pass".to_string())
            }
            Some(_) => {}
            None => self.first[job] = Some(out.artifact.clone()),
        }
        if let Some(lowered) = &out.lowered {
            validate_context(lowered).map_err(|e| format!("lowered design is invalid: {e}"))?;
        }
        if let Action::Compile {
            backend: "calyx", ..
        } = s.jobs[job].action
        {
            let text = std::str::from_utf8(&out.artifact).map_err(|e| e.to_string())?;
            parse_context(text).map_err(|e| format!("printed Calyx does not re-parse: {e}"))?;
        }
        Ok(())
    }

    /// Simulate the first pass's designs against the references: every
    /// lowered design on the RTL simulator, every Dahlia program
    /// unlowered on the interpreter (with its `lower` job). The first
    /// call also records cycles and area.
    fn simulate(&mut self, s: &Setup, first: bool) {
        let designs = &mut self.designs;
        let mut stimuli = BTreeMap::new();
        for source in &s.sources {
            if stimuli.contains_key(&source.design) {
                continue;
            }
            match Stimulus::new(source.design) {
                Ok(stim) => {
                    stimuli.insert(source.design, stim);
                }
                Err(e) => designs.fail(&e),
            }
        }
        let mut rec = Recorder::new(false, Instant::now(), 0);
        for (job, lowered) in &self.kept {
            let job = s.jobs[*job];
            let source = &s.sources[job.source];
            let Some(stim) = stimuli.get(&source.design) else {
                continue;
            };
            // The interpreter runs each Dahlia program once; it does not
            // elaborate the systolic arrays' component instances.
            let unlowered = match (source.frontend, job.action) {
                (
                    "dahlia",
                    Action::Compile {
                        pipeline: "lower", ..
                    },
                ) => match parse(s, source, &mut rec) {
                    Ok(ctx) => Some(ctx),
                    Err(e) => {
                        designs.fail(&e);
                        None
                    }
                },
                _ => None,
            };
            designs.check(&label(s, job), lowered, unlowered.as_ref(), stim, first);
        }
    }
}

/// One pass: every job once, in seeded order; checks follow, off the
/// clock.
fn pass(s: &Setup, order: &[usize], checker: &mut Checker, phase: &mut Phase) {
    let mut rec = phase.recorder(0);
    let mut outputs = Vec::with_capacity(order.len());
    for &job in order {
        rec.set_job(phase.attempted + outputs.len() as u64);
        let t = Instant::now();
        let result = rec.span("job", |rec| guarded(|| run_job(s, s.jobs[job], rec, phase)));
        let latency = t.elapsed();
        phase.wall += latency;
        phase.busy += latency;
        phase.sample_host();
        outputs.push((job, result, latency));
    }
    rec.drain_into(&mut phase.spans);
    let first = checker.kept.is_empty();
    for (job, result, latency) in outputs {
        match result.and_then(|out| checker.check(s, job, &out).map(|()| out)) {
            Ok(out) => {
                phase.ok(latency);
                let Action::Compile { backend, .. } = s.jobs[job].action else {
                    continue;
                };
                if first && backend == "verilog" {
                    checker.designs.verilog_bytes += out.artifact.len() as u64;
                }
                if let (true, Some(lowered), false) = (first, out.lowered, backend == "area") {
                    checker.kept.push((job, lowered));
                }
            }
            Err(e) => phase.fail(&label(s, s.jobs[job]), &e),
        }
    }
    if first {
        checker.simulate(s, true);
    }
}

fn orders(jobs: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    rng.shuffle(&mut order);
    order
}

/// Labels of the first pass's jobs for `seed`.
pub fn job_list(seed: u64) -> Vec<String> {
    let s = setup(true).expect("minimal set-up succeeds");
    orders(s.jobs.len(), &mut Rng::new(seed))
        .into_iter()
        .map(|j| label(&s, s.jobs[j]))
        .collect()
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let (setup_time, s) = repeat_setup(setup_repeats(opts), || setup(opts.minimal))?;
    let mut rng = Rng::new(opts.seed);
    let mut checker = Checker {
        first: vec![None; s.jobs.len()],
        kept: Vec::new(),
        designs: DesignStats::default(),
    };
    // Every pass holds the whole matrix, so any quiet pass holds enough
    // samples for the tail; later passes are checked against the first.
    let min_samples = s.jobs.len();
    let mut round = |phase: &mut Phase| {
        let order = orders(s.jobs.len(), &mut rng);
        pass(&s, &order, &mut checker, phase);
    };
    let base = measure(opts, min_samples, 1, 4, false, &mut round);
    let traced = opts
        .trace
        .then(|| measure(opts, min_samples, 1, 4, true, &mut round));
    checker.simulate(&s, false);
    finish(
        "compile",
        opts,
        Report {
            setup: setup_time,
            base,
            traced,
            designs: checker.designs,
            // Every pass runs the same jobs, so a percentile with ten of
            // one pass's jobs beyond it lands on the same job class in
            // every run, however many passes fit in the time.
            tail_pct: tail_percentile(s.jobs.len()),
            derived: Metrics::default(),
            notes: vec![format!("{} jobs per pass", s.jobs.len())],
        },
    )
}
