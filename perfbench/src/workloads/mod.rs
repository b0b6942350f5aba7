//! The four workloads and what they share: the measuring loop, set-up
//! repetition, and the assembly of end-to-end and per-layer metrics.

pub mod batch;
pub mod compile;
pub mod rebuild;
pub mod simulate;

use crate::designs::DesignStats;
use crate::metrics::{add_ms, median, midpoint_median, percentile, ratio, Metrics, PER_LAYER};
use crate::trace::{layer_self_ms, write_chrome_trace, Recorder, Span, LAYERS};
use calyx_core::ir::Context;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them, and why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "compile",
        "the paper's compile path in one thread: frontends, passes, emission and lints do the work; \
         simulation, the service and the plan cache do none",
    ),
    (
        "simulate",
        "RTL simulator and interpreter on compiled PolyBench and systolic designs; passes run only \
         in set-up; carries the design-quality figures",
    ),
    (
        "batch",
        "one shared CompileService with nproc clients; the compile layers run concurrently and \
         about half the jobs can hit the parse cache, which compile bypasses",
    ),
    (
        "rebuild",
        "seeded edits then a rebuild of every source through the plan cache, each output written \
         over the last: the only workload reaching the plan cache and the output write",
    ),
];

/// How one run is made.
pub struct RunOpts {
    pub seed: u64,
    /// Time to measure for; a traced run splits it between its untraced
    /// and traced phases.
    pub seconds: f64,
    /// Add a traced phase and report per-layer metrics.
    pub trace: bool,
    /// Small inputs and one round: the benchmark's own tests.
    pub minimal: bool,
    /// Where run artifacts go (rebuild's cache and outputs, trace files).
    pub work_dir: PathBuf,
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Metrics,
    /// Human-readable context for the report.
    pub notes: Vec<String>,
}

/// Run `workload` (one of [`WORKLOADS`]).
pub fn run(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match workload {
        "compile" => compile::run(opts),
        "simulate" => simulate::run(opts),
        "batch" => batch::run(opts),
        "rebuild" => rebuild::run(opts),
        other => Err(format!(
            "unknown workload `{other}`; valid workloads: {}",
            WORKLOADS
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The job list a workload's first rounds would run for `seed`, one
/// label per job (for the determinism tests).
pub fn job_list(workload: &str, seed: u64) -> Vec<String> {
    match workload {
        "compile" => compile::job_list(seed),
        "simulate" => simulate::job_list(seed),
        "batch" => batch::job_list(seed),
        "rebuild" => rebuild::job_list(seed),
        _ => Vec::new(),
    }
}

/// One round of a phase: its job rate and median, how busy the host was
/// around it, and where its latencies sit in [`Phase::latencies`].
pub struct Round {
    /// Successful jobs per second of the round's measured time.
    pub rate: f64,
    /// The round's median job latency, in milliseconds.
    pub p50_ms: f64,
    /// The mean host calibration of the round: one just before it, one
    /// just after it, and any the round took between its jobs
    /// ([`Phase::sample_host`]).
    pub calibration: Duration,
    first: usize,
    len: usize,
}

/// The jobs of one measured phase.
pub struct Phase {
    pub traced: bool,
    /// The quiet rounds are the `1 / quiet_part` of all with the fastest
    /// host calibration.
    pub quiet_part: usize,
    /// Set during the phase's first, unmeasured round.
    pub warming_up: bool,
    /// Host calibrations of the current round.
    host_samples: Vec<Duration>,
    pub epoch: Instant,
    pub rounds: Vec<Round>,
    /// Latency of every job that succeeded, timed around its calls.
    pub latencies: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock time of the measured windows (checks excluded).
    pub wall: Duration,
    /// Time of the measured windows summed over client threads.
    pub busy: Duration,
    /// Per-layer counters the workload gathers itself (raw sums).
    pub layers: Metrics,
    /// Bytes of Verilog emitted inside `emit.verilog` spans.
    pub verilog_emitted: u64,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new(traced: bool, quiet_part: usize) -> Self {
        Phase {
            traced,
            quiet_part,
            warming_up: false,
            host_samples: Vec::new(),
            epoch: Instant::now(),
            rounds: Vec::new(),
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
            layers: Metrics::default(),
            verilog_emitted: 0,
            spans: Vec::new(),
        }
    }

    /// A recorder for client thread `tid` of this phase.
    pub fn recorder(&self, tid: usize) -> Recorder {
        Recorder::new(self.traced, self.epoch, tid)
    }

    /// Calibrate the host between two jobs of a one-thread round, off the
    /// clock: a long round is then judged by how busy the host was all
    /// through it, not only at its ends.
    pub fn sample_host(&mut self) {
        self.host_samples.push(crate::host::calibrate(1));
    }

    /// Count a job whose output passed its checks.
    pub fn ok(&mut self, latency: Duration) {
        self.attempted += 1;
        self.latencies.push(latency);
    }

    /// Count a job that failed, panicked or gave a wrong output.
    pub fn fail(&mut self, what: &str, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: {what}: {err}");
    }

    /// Indices of the quiet rounds, which the timed metrics come from:
    /// the `1 / quiet_part` of the rounds (at least one) whose host
    /// calibration ran fastest. Other tenants of a shared host slow whole
    /// stretches of a run by up to 40%. The calibration does fixed work
    /// apart from the program, so rounds are chosen by how busy the host
    /// was around them, never by how fast the program ran in them: a
    /// round the program itself slows stays in.
    pub fn quiet_rounds(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rounds.len()).collect();
        order.sort_by_key(|r| self.rounds[*r].calibration);
        order.truncate(self.rounds.len().div_ceil(self.quiet_part));
        order
    }

    /// Latencies of the quiet rounds, ascending.
    fn quiet_latencies(&self) -> Vec<Duration> {
        let mut lat: Vec<Duration> = self
            .quiet_rounds()
            .into_iter()
            .flat_map(|r| {
                let round = &self.rounds[r];
                self.latencies[round.first..round.first + round.len]
                    .iter()
                    .copied()
            })
            .collect();
        lat.sort();
        lat
    }

    /// The median job rate of the quiet rounds.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .quiet_rounds()
            .into_iter()
            .map(|r| self.rounds[r].rate)
            .collect();
        midpoint_median(&rates)
    }

    /// The median of the quiet rounds' median latencies, in milliseconds.
    fn p50_ms(&self) -> f64 {
        let p50s: Vec<f64> = self
            .quiet_rounds()
            .into_iter()
            .map(|r| self.rounds[r].p50_ms)
            .collect();
        midpoint_median(&p50s)
    }
}

/// Run `round` once to warm up, then for `--seconds` (half of it in each
/// phase of a traced run) and until its quiet rounds hold `min_samples`
/// latencies. `threads` is the number of client threads a round runs.
pub fn measure(
    opts: &RunOpts,
    min_samples: usize,
    threads: usize,
    quiet_part: usize,
    traced: bool,
    mut round: impl FnMut(&mut Phase),
) -> Phase {
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut phase = Phase::new(traced, quiet_part);
    // Builds the calibration chain, off the clock.
    crate::host::calibrate(threads);
    // A first, unmeasured round lets caches fill and lazy set-up finish;
    // its jobs are still checked and counted.
    phase.warming_up = true;
    round(&mut phase);
    phase.warming_up = false;
    phase.latencies.clear();
    phase.wall = Duration::ZERO;
    phase.busy = Duration::ZERO;
    phase.layers = Metrics::default();
    phase.verilog_emitted = 0;
    phase.spans.clear();
    let started = Instant::now();
    loop {
        let (first, wall) = (phase.latencies.len(), phase.wall);
        phase.host_samples.clear();
        phase.host_samples.push(crate::host::calibrate(threads));
        round(&mut phase);
        phase.host_samples.push(crate::host::calibrate(threads));
        let jobs = &phase.latencies[first..];
        let ms: Vec<f64> = jobs.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        phase.rounds.push(Round {
            rate: jobs.len() as f64 / (phase.wall - wall).as_secs_f64().max(1e-9),
            p50_ms: midpoint_median(&ms),
            calibration: phase.host_samples.iter().sum::<Duration>()
                / phase.host_samples.len() as u32,
            first,
            len: jobs.len(),
        });
        let quiet: usize = phase
            .quiet_rounds()
            .iter()
            .map(|r| phase.rounds[*r].len)
            .sum();
        let enough = quiet >= min_samples && started.elapsed().as_secs_f64() >= seconds;
        if enough || phase.failed > 0 {
            return phase;
        }
    }
}

/// Run `setup` `times` times; the median duration and the last result.
pub fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Duration, T), String> {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Drop the previous result first, so repeats do not stack memory.
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        durations.push(t.elapsed());
        last = Some(value);
    }
    Ok((median(&durations), last.expect("at least one set-up ran")))
}

/// How many times a run sets up; the median is reported as `setup_s`.
/// compile's set-up takes about 2 ms, so a steady median needs many.
pub fn setup_repeats(opts: &RunOpts) -> usize {
    if opts.minimal {
        1
    } else {
        11
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Count the IR a pipeline sees (`in`) or leaves (`out`), walked from
/// the public `Context`.
pub fn count_ir(ctx: &Context, layers: &mut Metrics, out: bool) {
    let mut assigns = 0usize;
    let mut guard_nodes = 0usize;
    let mut cells = 0usize;
    for comp in ctx.components.iter() {
        cells += comp.cells.iter().count();
        for a in comp.all_assignments() {
            assigns += 1;
            guard_nodes += a.guard.size();
        }
    }
    if out {
        layers.add("ir.assigns.out", assigns as f64);
        layers.add("ir.guard_nodes.out", guard_nodes as f64);
        layers.add("ir.cells.out", cells as f64);
    } else {
        layers.add("ir.assigns.in", assigns as f64);
    }
}

/// Record a pass manager's per-pass times and analysis-cache counters.
pub fn record_passes(pm: &calyx_core::passes::PassManager, layers: &mut Metrics) {
    for t in pm.timings() {
        add_ms(layers, &format!("pass.{}.ms", t.name), t.duration);
    }
    record_analysis(pm.total_cache_stats(), layers);
}

/// Record analysis-cache counters.
pub fn record_analysis(stats: calyx_core::analysis::CacheStats, layers: &mut Metrics) {
    layers.add("analysis.hits", stats.hits as f64);
    layers.add("analysis.misses", stats.misses as f64);
    layers.add("analysis.recomputes", stats.recomputes as f64);
}

/// The per-layer metric a span's duration adds to, if any.
fn span_metric(name: &str) -> Option<String> {
    let metric = match name {
        "sim.check" => "sim.check.ms".to_string(),
        n if n.starts_with("sim.") => format!("{n}_ms"),
        n => format!("{n}.ms"),
    };
    PER_LAYER.iter().any(|m| m.name == metric).then_some(metric)
}

/// What a workload hands to [`finish`].
pub struct Report {
    pub setup: Duration,
    /// The untraced phase: end-to-end metrics come from it.
    pub base: Phase,
    /// The traced phase, when tracing.
    pub traced: Option<Phase>,
    pub designs: DesignStats,
    /// The tail percentile, fixed per workload so that every run reports
    /// the same rank (see each workload's `TAIL_SAMPLES`).
    pub tail_pct: u32,
    /// Per-layer means and shares the workload forms itself; reported
    /// as they are, not per round.
    pub derived: Metrics,
    /// Workload-specific lines for the report.
    pub notes: Vec<String>,
}

/// Assemble a run's outcome from its phases.
pub fn finish(workload: &str, opts: &RunOpts, report: Report) -> Result<Outcome, String> {
    let Report {
        setup,
        base,
        traced,
        designs,
        tail_pct,
        derived,
        mut notes,
    } = report;
    let traced_counts = traced.as_ref().map_or((0, 0), |t| (t.attempted, t.failed));
    let attempted = base.attempted + designs.attempted + traced_counts.0;
    let failed = base.failed + designs.failed + traced_counts.1;
    let lat = base.quiet_latencies();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup.as_secs_f64());
    e2e.set("jobs_per_s", base.rate());
    e2e.set("job_p50_ms", base.p50_ms());
    e2e.set(
        "job_tail_ms",
        percentile(&lat, tail_pct).as_secs_f64() * 1e3,
    );
    designs.report(&mut e2e);
    e2e.set("peak_rss_mb", crate::host::peak_rss_mb());
    notes.push(format!(
        "timed metrics come from the {} quiet rounds of {} ({:.3} s of job time); job_tail_ms \
         is p{tail_pct} of their {} jobs",
        base.quiet_rounds().len(),
        base.rounds.len(),
        base.wall.as_secs_f64(),
        lat.len(),
    ));
    notes.push(format!(
        "failed_ratio {} ({failed} of {attempted} operations, checks included)",
        ratio(failed as f64, attempted as f64)
    ));
    notes.push(
        "design_luts comes from calyx_backend::area::estimate, a model not validated \
         against synthesis"
            .to_string(),
    );
    let Some(tr) = traced else {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: e2e,
            notes,
        });
    };

    let mut layers = tr.layers.clone();
    for s in &tr.spans {
        if let Some(metric) = span_metric(s.name) {
            layers.add(&metric, (s.end_ns - s.start_ns) as f64 / 1e6);
        }
        if s.name.starts_with("frontend.") {
            layers.add("frontend.calls", 1.0);
        }
    }
    let self_ms = layer_self_ms(&tr.spans);
    let attributed: f64 = self_ms.values().sum();
    for layer in LAYERS {
        layers.add(&format!("self.{layer}.ms"), self_ms[layer]);
    }
    let busy_ms = tr.busy.as_secs_f64() * 1e3;
    layers.add("unattributed.ms", busy_ms - attributed);
    // Everything above is a sum over the phase; report it per round.
    layers.scale(tr.rounds.len() as f64);
    layers.extend(&derived);
    layers.set(
        "unattributed.pct",
        100.0 * ratio(busy_ms - attributed, busy_ms),
    );
    let hits = layers.get("analysis.hits");
    layers.set(
        "analysis.hit_ratio",
        ratio(hits, hits + layers.get("analysis.misses")),
    );
    let verilog_s = layers.get("emit.verilog.ms") / 1e3;
    layers.set(
        "emit.verilog.bytes_per_s",
        ratio(
            tr.verilog_emitted as f64 / tr.rounds.len() as f64,
            verilog_s,
        ),
    );
    layers.set(
        "trace.overhead_pct",
        100.0 * (ratio(base.rate(), tr.rate()) - 1.0),
    );
    let path = opts
        .work_dir
        .join(format!("trace-{workload}-seed{}.json", opts.seed));
    write_chrome_trace(&path, &tr.spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!(
        "traced {} rounds ({} spans) written to {}; {:.1}% of {:.1} ms per round is unattributed",
        tr.rounds.len(),
        tr.spans.len(),
        path.display(),
        layers.get("unattributed.pct"),
        busy_ms / tr.rounds.len() as f64,
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers,
        notes,
    })
}
