//! `simulate`: the simulators' settle/tick loops, one thread.
//!
//! Set-up compiles the PolyBench kernels (n = 8) with `opt` and the 4×4
//! and 8×8 systolic arrays with `lower-static`. Each round then runs, in
//! seeded order, every lowered design on `calyx_sim::rtl` and every
//! unlowered kernel on `calyx_sim::interp`, checking final memories
//! against the Rust references. Passes run only in set-up, so compile
//! speed does not show here; the design-quality figures
//! (`design_cycles`, `design_luts`) do.

use super::{
    finish, guarded, measure, repeat_setup, setup_repeats, Outcome, Phase, Report, RunOpts,
};
use crate::designs::{simulate, Design, DesignStats, Engine, Stimulus};
use crate::metrics::{tail_percentile, Metrics};
use crate::rng::Rng;
use calyx_backend::{BackendOpts, BackendRegistry};
use calyx_core::ir::Context;
use calyx_core::passes::PassManager;
use calyx_frontend::{FrontendOpts, FrontendRegistry};
use calyx_polybench::KERNELS;

const N: u64 = 8;

/// Latencies a run's quiet rounds hold at least; the tail percentile is
/// fixed by it.
const TAIL_SAMPLES: usize = 500;

/// One simulation job.
struct SimJob {
    design: Design,
    engine: Engine,
    ctx: Context,
}

struct Setup {
    jobs: Vec<SimJob>,
    stimuli: Vec<Stimulus>,
}

fn designs(minimal: bool) -> Vec<(Design, &'static str)> {
    let kernels = if minimal { 2 } else { KERNELS.len() };
    let systolic: &[usize] = if minimal { &[2] } else { &[4, 8] };
    (0..kernels)
        .map(|k| (Design::Poly(k, N), "opt"))
        .chain(
            systolic
                .iter()
                .map(|n| (Design::Systolic(*n), "lower-static")),
        )
        .collect()
}

fn setup(minimal: bool) -> Result<Setup, String> {
    let frontends = FrontendRegistry::default();
    let mut jobs = Vec::new();
    let mut stimuli = Vec::new();
    for (design, pipeline) in designs(minimal) {
        let (frontend, text) = match design {
            Design::Poly(..) => ("dahlia", design.dahlia_source()),
            Design::Systolic(_) => ("systolic", design.systolic_config()),
        };
        let unlowered = frontends
            .get(frontend, &FrontendOpts::default())
            .and_then(|f| f.parse(&text))
            .map_err(|e| format!("{design}: {e}"))?;
        let mut lowered = unlowered.clone();
        PassManager::from_names(&[pipeline])
            .and_then(|mut pm| pm.run(&mut lowered))
            .map_err(|e| format!("{design}: {pipeline}: {e}"))?;
        jobs.push(SimJob {
            design,
            engine: Engine::Rtl,
            ctx: lowered,
        });
        if let Design::Poly(..) = design {
            jobs.push(SimJob {
                design,
                engine: Engine::Interp,
                ctx: unlowered,
            });
        }
        stimuli.push(Stimulus::new(design)?);
    }
    Ok(Setup { jobs, stimuli })
}

fn stimulus_index(s: &[(Design, &str)], design: Design) -> usize {
    s.iter()
        .position(|(d, _)| *d == design)
        .expect("every job's design is listed")
}

fn order(jobs: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).collect();
    rng.shuffle(&mut order);
    order
}

fn label(design: Design, engine: Engine) -> String {
    format!("{design} on {engine:?}")
}

/// Labels of the first round's jobs for `seed`.
pub fn job_list(seed: u64) -> Vec<String> {
    let mut labels = Vec::new();
    for (design, _) in designs(true) {
        labels.push(label(design, Engine::Rtl));
        if let Design::Poly(..) = design {
            labels.push(label(design, Engine::Interp));
        }
    }
    order(labels.len(), &mut Rng::new(seed))
        .into_iter()
        .map(|i| labels[i].clone())
        .collect()
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let (setup_time, s) = repeat_setup(setup_repeats(opts), || setup(opts.minimal))?;
    let listed = designs(opts.minimal);
    let mut rng = Rng::new(opts.seed);
    let mut design_cycles = Vec::new();
    // Simulated cycles and host time of each untraced round, per engine.
    let mut per_round: Vec<DesignStats> = Vec::new();
    let mut round = |phase: &mut Phase| {
        let mut rec = phase.recorder(0);
        let mut this_round = DesignStats::default();
        for i in order(s.jobs.len(), &mut rng) {
            let job = &s.jobs[i];
            let stim = &s.stimuli[stimulus_index(&listed, job.design)];
            rec.set_job(phase.attempted);
            let t = std::time::Instant::now();
            let result = rec.span("job", |rec| {
                guarded(|| simulate(job.engine, &job.ctx, stim, rec))
            });
            let latency = t.elapsed();
            phase.wall += latency;
            phase.busy += latency;
            phase.sample_host();
            match result {
                Ok(run) => {
                    phase.ok(latency);
                    this_round.add_run(job.engine, &run);
                    let cycles = match job.engine {
                        Engine::Rtl => "sim.rtl.cycles",
                        Engine::Interp => "sim.interp.cycles",
                    };
                    phase.layers.add(cycles, run.cycles as f64);
                    if phase.warming_up && !phase.traced && job.engine == Engine::Rtl {
                        design_cycles.push(run.cycles as f64);
                    }
                }
                Err(e) => phase.fail(&label(job.design, job.engine), &e),
            }
        }
        if !phase.traced && !phase.warming_up {
            per_round.push(this_round);
        }
        rec.drain_into(&mut phase.spans);
    };
    let min_samples = if opts.minimal { 0 } else { TAIL_SAMPLES };
    let base = measure(opts, min_samples, 1, 4, false, &mut round);
    let traced = opts
        .trace
        .then(|| measure(opts, min_samples, 1, 4, true, &mut round));
    let mut stats = DesignStats::default();
    stats.design_cycles = design_cycles;
    for r in base.quiet_rounds() {
        let quiet = &per_round[r];
        stats.rtl_cycles += quiet.rtl_cycles;
        stats.rtl_time += quiet.rtl_time;
        stats.interp_cycles += quiet.interp_cycles;
        stats.interp_time += quiet.interp_time;
    }

    // Size and area of the simulated designs, off the clock.
    let verilog = BackendRegistry::default()
        .get("verilog", &BackendOpts::default())
        .map_err(|e| e.to_string())?;
    for job in s.jobs.iter().filter(|j| j.engine == Engine::Rtl) {
        let mut out = Vec::new();
        match verilog.emit(&job.ctx, &mut out) {
            Ok(()) => stats.verilog_bytes += out.len() as u64,
            Err(e) => stats.fail(&format!("{}: verilog: {e}", job.design)),
        }
        match calyx_backend::area::estimate(&job.ctx, "main") {
            Ok(area) => stats.design_luts.push(area.luts as f64),
            Err(e) => stats.fail(&format!("{}: area estimate: {e}", job.design)),
        }
    }
    finish(
        "simulate",
        opts,
        Report {
            setup: setup_time,
            base,
            traced,
            designs: stats,
            tail_pct: tail_percentile(TAIL_SAMPLES),
            derived: Metrics::default(),
            notes: vec![format!("{} simulations per round", s.jobs.len())],
        },
    )
}
