//! Spans recorded around the benchmark's calls into each layer.
//!
//! A [`Recorder`] belongs to one thread. When tracing is off its
//! [`Recorder::span`] runs the closure and records nothing, so the
//! untraced run pays one branch per layer call. Spans stay in memory and
//! are written once, at exit, as Chrome trace-event JSON (the format
//! Perfetto and `chrome://tracing` open).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers spans are attributed to, in report order. Each is one
/// crate (or one public function) of the compiler.
pub const LAYERS: &[&str] = &[
    "frontend", "ir", "passes", "lint", "backend", "sim", "service", "plan", "write",
];

/// The layer a span name belongs to; `None` for the benchmark's own
/// spans (the per-job root), whose self time is harness time.
pub fn layer_of(name: &str) -> Option<&'static str> {
    match name.split('.').next()? {
        "frontend" => Some("frontend"),
        "ir" => Some("ir"),
        "pipeline" => Some("passes"),
        "lint" => Some("lint"),
        "emit" => Some("backend"),
        "sim" => Some("sim"),
        "service" => Some("service"),
        "plan" => Some("plan"),
        "write" => Some("write"),
        _ => None,
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `frontend.dahlia` or `pipeline.opt`.
    pub name: &'static str,
    /// The job the call served.
    pub job: u64,
    /// The recording thread.
    pub tid: usize,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    tid: usize,
    job: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant, tid: usize) -> Self {
        Recorder {
            enabled,
            epoch,
            tid,
            job: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            tid: self.tid,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        // A panicking call still closes its span, so the stack stays
        // balanced for the jobs that follow.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Record stages a layer timed itself as children of the span that
    /// closed last, laid end to end from its start. The stages' order is
    /// known but not the gaps between them, so positions are approximate
    /// while durations are as the layer measured them.
    pub fn attribute_last(&mut self, stages: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let Some(parent) = self.spans.len().checked_sub(1) else {
            return;
        };
        let mut start_ns = self.spans[parent].start_ns;
        for (name, duration) in stages {
            let end_ns = start_ns + u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name,
                job: self.job,
                tid: self.tid,
                start_ns,
                end_ns,
                parent: Some(parent),
            });
            start_ns = end_ns;
        }
    }

    /// Move this recorder's spans onto `all`, re-basing parent indices.
    pub fn drain_into(&mut self, all: &mut Vec<Span>) {
        let base = all.len();
        all.extend(self.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run on its thread one after another, so
/// the sum of their durations is the time they cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Self time per layer, in milliseconds; every layer of [`LAYERS`] is
/// present.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if let Some(layer) = layer_of(s.name) {
            *out.get_mut(layer).expect("every layer is listed") += self_ns as f64 / 1e6;
        }
    }
    out
}

/// Write `spans` as Chrome trace-event JSON (complete events, times in
/// microseconds).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",\n")?;
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{i},\"job\":{},\"parent\":{parent}}}}}",
            s.name,
            layer_of(s.name).unwrap_or("harness"),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.job,
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |name, start_ns, end_ns, parent| Span {
            name,
            job: 0,
            tid: 0,
            start_ns,
            end_ns,
            parent,
        };
        let spans = vec![
            mk("job", 0, 100, None),
            mk("frontend.dahlia", 10, 30, Some(0)),
            mk("pipeline.opt", 30, 90, Some(0)),
            mk("emit.verilog", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["passes"], 50e-6);
        assert_eq!(layers["backend"], 10e-6);
        assert_eq!(layers["plan"], 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        assert_eq!(rec.span("frontend.dahlia", |_| 7), 7);
        let mut all = Vec::new();
        rec.drain_into(&mut all);
        assert!(all.is_empty());
    }
}
