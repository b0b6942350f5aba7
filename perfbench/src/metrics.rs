//! The metric tables, a value store checked against them, and the
//! statistics the workloads report.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::time::Duration;

/// One end-to-end metric: what a user of the compiler sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric and the end-to-end metric (with its workload)
/// it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported by every workload with tracing off. Host time on a shared
/// machine drifts by up to a quarter between identical runs, so timed
/// metrics get the largest bound allowed; the deterministic ones get a
/// small one.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_ms", "ms", "lower", 0.25),
    e2e("job_tail_ms", "ms", "lower", 0.25),
    e2e("verilog_bytes", "bytes", "lower", 0.02),
    e2e("rtl_cycles_per_s", "cycles/s", "higher", 0.25),
    e2e("interp_cycles_per_s", "cycles/s", "higher", 0.25),
    e2e("design_cycles", "cycles", "lower", 0.01),
    e2e("design_luts", "luts", "lower", 0.01),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

const PASS_MOVES: &str =
    "jobs_per_s, job_p50_ms and job_tail_ms on compile; jobs_per_s on batch; no change on simulate";
const FRONTEND_MOVES: &str = "job_p50_ms on compile and batch";
const IR_MOVES: &str = "verilog_bytes and job_tail_ms on compile; rtl_cycles_per_s on simulate";
const ANALYSIS_MOVES: &str = "jobs_per_s on compile";
const EMIT_MOVES: &str = "job_p50_ms on compile; jobs_per_s on batch";
const SIM_MOVES: &str = "rtl_cycles_per_s and interp_cycles_per_s on simulate";
const SERVICE_MOVES: &str = "jobs_per_s and job_tail_ms on batch; no change on compile";
const PLAN_MOVES: &str = "jobs_per_s on rebuild";
const WRITE_MOVES: &str =
    "no end-to-end metric: rebuild times the write apart from its jobs, since the rename stall depends on the host's disk";
const SELF_MOVES: &str = "the end-to-end time of every workload that calls the layer";

/// Reported by every workload with tracing on. Times and counts are per
/// round (one pass over the workload's job list) of the traced phase.
pub const PER_LAYER: &[PerLayer] = &[
    layer("frontend.dahlia.ms", "ms", "lower", FRONTEND_MOVES),
    layer("frontend.systolic.ms", "ms", "lower", FRONTEND_MOVES),
    layer("frontend.polybench.ms", "ms", "lower", FRONTEND_MOVES),
    layer("frontend.calyx.ms", "ms", "lower", FRONTEND_MOVES),
    layer("frontend.calls", "count", "lower", FRONTEND_MOVES),
    layer("ir.assigns.in", "count", "lower", IR_MOVES),
    layer("ir.assigns.out", "count", "lower", IR_MOVES),
    layer("ir.guard_nodes.out", "count", "lower", IR_MOVES),
    layer("ir.cells.out", "count", "lower", IR_MOVES),
    layer("pass.well-formed.ms", "ms", "lower", PASS_MOVES),
    layer("pass.collapse-control.ms", "ms", "lower", PASS_MOVES),
    layer("pass.dead-group-removal.ms", "ms", "lower", PASS_MOVES),
    layer("pass.dead-cell-removal.ms", "ms", "lower", PASS_MOVES),
    layer("pass.infer-static-timing.ms", "ms", "lower", PASS_MOVES),
    layer("pass.static-timing.ms", "ms", "lower", PASS_MOVES),
    layer("pass.compile-control.ms", "ms", "lower", PASS_MOVES),
    layer("pass.go-insertion.ms", "ms", "lower", PASS_MOVES),
    layer("pass.remove-groups.ms", "ms", "lower", PASS_MOVES),
    layer("pass.guard-simplify.ms", "ms", "lower", PASS_MOVES),
    layer("pass.resource-sharing.ms", "ms", "lower", PASS_MOVES),
    layer("pass.minimize-regs.ms", "ms", "lower", PASS_MOVES),
    layer("pipeline.lower.ms", "ms", "lower", PASS_MOVES),
    layer("pipeline.lower-static.ms", "ms", "lower", PASS_MOVES),
    layer("pipeline.opt.ms", "ms", "lower", PASS_MOVES),
    layer("analysis.hits", "count", "higher", ANALYSIS_MOVES),
    layer("analysis.misses", "count", "lower", ANALYSIS_MOVES),
    layer("analysis.recomputes", "count", "lower", ANALYSIS_MOVES),
    layer("analysis.hit_ratio", "ratio", "higher", ANALYSIS_MOVES),
    layer("lint.check.ms", "ms", "lower", ANALYSIS_MOVES),
    layer("lint.findings", "count", "lower", ANALYSIS_MOVES),
    layer("emit.verilog.ms", "ms", "lower", EMIT_MOVES),
    layer("emit.calyx.ms", "ms", "lower", EMIT_MOVES),
    layer("emit.area.ms", "ms", "lower", EMIT_MOVES),
    layer("emit.verilog.bytes_per_s", "bytes/s", "higher", EMIT_MOVES),
    layer("sim.rtl.build_ms", "ms", "lower", SIM_MOVES),
    layer("sim.rtl.run_ms", "ms", "lower", SIM_MOVES),
    layer("sim.rtl.cycles", "cycles", "lower", SIM_MOVES),
    layer("sim.interp.build_ms", "ms", "lower", SIM_MOVES),
    layer("sim.interp.run_ms", "ms", "lower", SIM_MOVES),
    layer("sim.interp.cycles", "cycles", "lower", SIM_MOVES),
    layer("sim.check.ms", "ms", "lower", SIM_MOVES),
    layer("service.execute.ms", "ms", "lower", SERVICE_MOVES),
    layer("service.parse_cache.hits", "count", "higher", SERVICE_MOVES),
    layer(
        "service.parse_cache.misses",
        "count",
        "lower",
        SERVICE_MOVES,
    ),
    layer(
        "service.parse_cache.hit_ratio",
        "ratio",
        "higher",
        SERVICE_MOVES,
    ),
    layer(
        "service.parse_cache.eligible_share",
        "ratio",
        "higher",
        SERVICE_MOVES,
    ),
    layer("service.hit.ms", "ms", "lower", SERVICE_MOVES),
    layer("service.miss.ms", "ms", "lower", SERVICE_MOVES),
    layer("service.stage.parse.ms", "ms", "lower", SERVICE_MOVES),
    layer("service.stage.passes.ms", "ms", "lower", SERVICE_MOVES),
    layer("service.stage.emit.ms", "ms", "lower", SERVICE_MOVES),
    layer(
        "service.stage.unattributed.ms",
        "ms",
        "lower",
        SERVICE_MOVES,
    ),
    layer("plan.route.ms", "ms", "lower", PLAN_MOVES),
    layer("plan.execute.ms", "ms", "lower", PLAN_MOVES),
    layer("plan.steps.ran", "count", "lower", PLAN_MOVES),
    layer("plan.steps.cached", "count", "higher", PLAN_MOVES),
    layer("plan.step_hit_ratio", "ratio", "higher", PLAN_MOVES),
    layer("plan.op.dahlia-to-calyx.ms", "ms", "lower", PLAN_MOVES),
    layer("plan.op.emit-verilog.ms", "ms", "lower", PLAN_MOVES),
    layer("write.ms", "ms", "lower", WRITE_MOVES),
    layer("write.files", "count", "lower", WRITE_MOVES),
    layer("write.bytes", "bytes", "lower", WRITE_MOVES),
    layer("self.frontend.ms", "ms", "lower", SELF_MOVES),
    layer("self.ir.ms", "ms", "lower", SELF_MOVES),
    layer("self.passes.ms", "ms", "lower", SELF_MOVES),
    layer("self.lint.ms", "ms", "lower", SELF_MOVES),
    layer("self.backend.ms", "ms", "lower", SELF_MOVES),
    layer("self.sim.ms", "ms", "lower", SELF_MOVES),
    layer("self.service.ms", "ms", "lower", SELF_MOVES),
    layer("self.plan.ms", "ms", "lower", SELF_MOVES),
    layer("self.write.ms", "ms", "lower", SELF_MOVES),
    layer("unattributed.ms", "ms", "lower", SELF_MOVES),
    layer("unattributed.pct", "%", "lower", SELF_MOVES),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "nothing: the cost of tracing itself",
    ),
];

/// Metric values by name. Names outside the tables are a bug in the
/// benchmark and panic.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

fn known(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(known(name), "metric `{name}` is not in the tables");
        self.0.insert(name.to_string(), value);
    }

    /// Add `value` to `name` (starting from zero).
    pub fn add(&mut self, name: &str, value: f64) {
        assert!(known(name), "metric `{name}` is not in the tables");
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The value of `name`, zero when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Whether `name` was set.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Set every value of `other` in this store.
    pub fn extend(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.set(k, *v);
        }
    }

    /// Divide every value by `by` (per-round normalisation).
    pub fn scale(&mut self, by: f64) {
        for v in self.0.values_mut() {
            *v /= by;
        }
    }
}

/// Add a duration to a millisecond metric.
pub fn add_ms(m: &mut Metrics, name: &str, d: Duration) {
    m.add(name, d.as_secs_f64() * 1e3);
}

/// Nearest-rank percentile of an ascending slice (zero when empty).
pub fn percentile(sorted: &[Duration], pct: u32) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile (at most 99) that leaves at least ten of
/// `samples` beyond it.
pub fn tail_percentile(samples: usize) -> u32 {
    (50..=99u32)
        .rev()
        .find(|p| samples * (100 - *p as usize) >= 1000)
        .unwrap_or(50)
}

/// The median of a list of durations.
pub fn median(values: &[Duration]) -> Duration {
    let mut v = values.to_vec();
    v.sort();
    percentile(&v, 50)
}

/// The median of `values`, averaging the middle two of an even count
/// (zero for an empty list).
pub fn midpoint_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values (zero for an empty list). The
/// values are summed in sorted order, so the result does not depend on
/// the order a seeded run produced them in, down to the last bit.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut logs: Vec<f64> = values.iter().map(|v| v.ln()).collect();
    logs.sort_by(f64::total_cmp);
    (logs.iter().sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, zero when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_does_not_depend_on_order() {
        let values = [17613.0, 74608.0, 8273.0, 33434.0, 15457.0, 64939.0, 99742.0];
        let mut reversed = values;
        reversed.reverse();
        assert_eq!(geomean(&values).to_bits(), geomean(&reversed).to_bits());
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(141), 92);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(250), 96);
        for n in [20usize, 141, 333, 5000] {
            let p = tail_percentile(n) as usize;
            assert!(n * (100 - p) >= 1000, "{n} samples at p{p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile(&v, 50), Duration::from_millis(5));
        assert_eq!(percentile(&v, 91), Duration::from_millis(10));
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is listed twice");
        }
    }

    #[test]
    fn every_pass_has_a_metric() {
        for pass in calyx_core::passes::PassRegistry::default().passes() {
            let name = format!("pass.{}.ms", pass.name);
            assert!(known(&name), "{name}");
        }
    }
}
