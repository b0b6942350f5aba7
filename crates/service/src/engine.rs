//! The compilation engine: one [`CompileService`] executing
//! [`JobRequest`]s over the frontend/pass/backend registries.
//!
//! A service is a cheaply-clonable handle (`Arc` inside) shared by every
//! worker thread. Each job is one run of the [compile core](crate::compile)
//! — the same [`Compiler`] single-shot `futil` and the plan ops drive —
//! wrapped in what only a service needs: request fields falling back to
//! [`JobDefaults`], the shared [`ParseCache`] around the core's parse
//! phase, and the job's output path. A job terminates in a
//! [`JobResponse`] instead of a process exit, with per-stage wall times
//! attached. Jobs are bulkheaded: a panicking pass or generator becomes a
//! [`Status::Panic`] response, and a job that overruns its `timeout_ms`
//! budget is abandoned ([`Status::Timeout`]) without taking its worker
//! down.

use crate::cache::{digest64, CacheStats, ParseCache};
use crate::compile::{Compiler, Names};
use crate::metrics::{BatchSummary, StageTimes};
use crate::pool::{catch_job_panic, WorkerPool};
use crate::protocol::{JobRequest, JobResponse, Status, LIST_KINDS};
use calyx_backend::{BackendOpts, BackendRegistry, ReportFormat};
use calyx_core::lint::LintRegistry;
use calyx_core::passes::PassRegistry;
use calyx_frontend::FrontendRegistry;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Per-invocation defaults a [`JobRequest`]'s unset fields fall back to
/// — the batch/serve equivalent of `futil`'s own flags (`-f`, `--fopt`,
/// `-p`, `-b`, `--cycles`, `--format`, `--timeout`, `--out-dir`).
#[derive(Debug, Clone)]
pub struct JobDefaults {
    /// Frontend for jobs that name none (else inferred per job from the
    /// input extension, falling back to `calyx`).
    pub frontend: Option<String>,
    /// Base generator options; a job's own `fopts` append to (and thus
    /// override) these.
    pub fopts: Vec<(String, String)>,
    /// Pipeline for jobs that name none (else the backend's
    /// [default](crate::compile::default_pipeline)).
    pub pipeline: Option<Vec<String>>,
    /// Backend for jobs that name none.
    pub backend: String,
    /// Simulation cycle budget.
    pub cycles: u64,
    /// Report format for report-style backends.
    pub format: ReportFormat,
    /// Wall-clock budget per job, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Directory for jobs without an `out` path: each writes
    /// `<out_dir>/<name>.<backend extension>`.
    pub out_dir: Option<String>,
    /// Return the output inline (serve mode) when a job has no output
    /// path; otherwise pathless output is discarded.
    pub inline_output: bool,
}

impl Default for JobDefaults {
    fn default() -> Self {
        JobDefaults {
            frontend: None,
            fopts: Vec::new(),
            pipeline: None,
            backend: "calyx".to_string(),
            cycles: BackendOpts::default().cycles,
            format: ReportFormat::Text,
            timeout_ms: None,
            out_dir: None,
            inline_output: false,
        }
    }
}

struct ServiceInner {
    frontends: FrontendRegistry,
    passes: PassRegistry,
    backends: BackendRegistry,
    cache: ParseCache,
}

/// A long-lived compilation service: warm registries plus the shared
/// [`ParseCache`]. Clones share everything.
#[derive(Clone)]
pub struct CompileService {
    inner: Arc<ServiceInner>,
}

impl Default for CompileService {
    fn default() -> Self {
        Self::new()
    }
}

/// The label a job is reported under: its `name`, else its input's file
/// stem, else `job<id>`.
fn job_name(req: &JobRequest, id: usize) -> String {
    if let Some(name) = &req.name {
        return name.clone();
    }
    req.input
        .as_deref()
        .and_then(|p| Path::new(p).file_stem())
        .and_then(|s| s.to_str())
        .map_or_else(|| format!("job{id}"), str::to_string)
}

/// Write `bytes` to `path` atomically (see [`write_atomic_with`]).
/// Shared with the plan executor's artifact cache, which needs the same
/// no-partial-files guarantee.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, |out| out.write_all(bytes))
}

/// Stream `write`'s output to a sibling `.tmp` of `path` and rename it
/// into place, so a failure never leaves partial output and never
/// touches an existing file at `path`. Missing parent directories are
/// created.
///
/// # Errors
///
/// Returns `write`'s error or the underlying I/O error; the `.tmp`
/// sibling is removed on failure.
pub fn write_atomic_with<E: From<std::io::Error>>(
    path: &str,
    write: impl FnOnce(&mut dyn Write) -> Result<(), E>,
) -> Result<(), E> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = format!("{path}.tmp");
    let result = (|| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        drop(out);
        Ok(std::fs::rename(&tmp, path)?)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

impl CompileService {
    /// A service over the standard registries and an empty cache.
    pub fn new() -> Self {
        Self::with_registries(FrontendRegistry::default(), BackendRegistry::default())
    }

    /// A service over custom registries — drivers that register extra
    /// frontends/backends, and tests that inject misbehaving ones.
    pub fn with_registries(frontends: FrontendRegistry, backends: BackendRegistry) -> Self {
        CompileService {
            inner: Arc::new(ServiceInner {
                frontends,
                passes: PassRegistry::default(),
                backends,
                cache: ParseCache::new(),
            }),
        }
    }

    /// The shared parse cache's hit/miss counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The `(name, description)` rows of one registry, for `list`
    /// requests and `--list-*` flags. `kind` is one of [`LIST_KINDS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid kinds when `kind` is not one.
    pub fn list_items(&self, kind: &str) -> Result<Vec<(String, String)>, String> {
        match kind {
            "frontends" => Ok(self
                .inner
                .frontends
                .frontends()
                .iter()
                .map(|f| (f.name.to_string(), f.description.to_string()))
                .collect()),
            "backends" => Ok(self
                .inner
                .backends
                .backends()
                .iter()
                .map(|b| (b.name.to_string(), b.description.to_string()))
                .collect()),
            "passes" => {
                let registry = &self.inner.passes;
                let mut items: Vec<(String, String)> = registry
                    .passes()
                    .iter()
                    .map(|p| (p.name.to_string(), p.description.to_string()))
                    .collect();
                items.extend(registry.aliases().map(|(alias, expansion)| {
                    (
                        alias.to_string(),
                        format!("alias: {}", expansion.join(" -> ")),
                    )
                }));
                Ok(items)
            }
            "lints" => Ok(LintRegistry::default()
                .lints()
                .iter()
                .map(|l| (l.name.to_string(), l.description.to_string()))
                .collect()),
            other => Err(format!(
                "unknown listing `{other}`; valid kinds: {}",
                LIST_KINDS.join(", ")
            )),
        }
    }

    /// Execute one job to completion, honoring its timeout and catching
    /// its panics. This is the entry point workers call; it always
    /// returns a response, never unwinds.
    pub fn execute(&self, id: usize, req: &JobRequest, defaults: &JobDefaults) -> JobResponse {
        let cancelled = Arc::new(AtomicBool::new(false));
        let Some(ms) = req.timeout_ms.or(defaults.timeout_ms) else {
            return self.guarded(id, req, defaults, &cancelled);
        };
        // Run the job in a dedicated thread so this caller can give up
        // on it: a wedged pass must not wedge the worker. The abandoned
        // thread sees `cancelled` and discards its output.
        let name = job_name(req, id);
        let (tx, rx) = mpsc::channel();
        let service = self.clone();
        let req = req.clone();
        let defaults = defaults.clone();
        let flag = Arc::clone(&cancelled);
        let spawned = std::thread::Builder::new()
            .name(format!("futil-job-{id}"))
            .spawn(move || {
                let _ = tx.send(service.guarded(id, &req, &defaults, &flag));
            });
        if spawned.is_err() {
            return JobResponse::fail(id, name, Status::Error, "cannot spawn a job thread");
        }
        match rx.recv_timeout(Duration::from_millis(ms)) {
            Ok(resp) => resp,
            Err(_) => {
                cancelled.store(true, Ordering::SeqCst);
                JobResponse::fail(
                    id,
                    name,
                    Status::Timeout,
                    format!("job exceeded its {ms}ms timeout and was abandoned"),
                )
            }
        }
    }

    fn guarded(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
        cancelled: &AtomicBool,
    ) -> JobResponse {
        catch_job_panic(|| self.run_job(id, req, defaults, cancelled)).unwrap_or_else(|msg| {
            JobResponse::fail(
                id,
                job_name(req, id),
                Status::Panic,
                format!("job panicked: {msg}"),
            )
        })
    }

    /// One compile job, start to finish: the compile core plus request
    /// defaults, the parse cache, and the output path. Any structured
    /// failure becomes a [`Status::Error`] response.
    fn run_job(
        &self,
        id: usize,
        req: &JobRequest,
        defaults: &JobDefaults,
        cancelled: &AtomicBool,
    ) -> JobResponse {
        let started = Instant::now();
        let name = job_name(req, id);
        let fail = |msg: String| JobResponse::fail(id, name.clone(), Status::Error, msg);
        let inner = &*self.inner;

        // Unset request fields fall back to the invocation's defaults;
        // the frontend is otherwise inferred from the input's extension.
        let frontend = inner
            .frontends
            .resolve_name(
                req.frontend.as_deref().or(defaults.frontend.as_deref()),
                req.input.as_deref(),
            )
            .0;
        let mut fopts = defaults.fopts.clone();
        fopts.extend(req.fopts.iter().cloned());
        let names = Names {
            frontend,
            fopts: &fopts,
            pipeline: req.pipeline.as_deref().or(defaults.pipeline.as_deref()),
            backend: req.backend.as_deref().unwrap_or(&defaults.backend),
            backend_opts: BackendOpts {
                cycles: req.cycles.unwrap_or(defaults.cycles),
                format: match req.format.as_deref() {
                    Some("json") => ReportFormat::Json,
                    Some(_) => ReportFormat::Text,
                    None => defaults.format,
                },
            },
        };
        let mut compiler =
            match Compiler::resolve(&inner.frontends, &inner.passes, &inner.backends, &names) {
                Ok(c) => c,
                Err(e) => return fail(e.to_string()),
            };

        // Source: a file, inline text, or empty (pure generators).
        let src = match (&req.input, &req.source) {
            (Some(path), _) => match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => return fail(format!("cannot read `{path}`: {e}")),
            },
            (None, Some(text)) => text.clone(),
            (None, None) => String::new(),
        };

        // Parse through the shared cache: identical jobs share one
        // frontend run.
        let parse_started = Instant::now();
        let fingerprint = ParseCache::fingerprint(frontend, &fopts);
        let digest = digest64(src.as_bytes());
        let (mut ctx, hit) = match inner
            .cache
            .get_or_parse(&fingerprint, digest, || compiler.parse(&src))
        {
            Ok(parsed) => parsed,
            // Same caret diagnostics as single-shot futil, folded into
            // the response's error string.
            Err(e) => {
                let shown = req.input.as_deref().unwrap_or("<request>");
                return fail(
                    e.caret_diagnostic(shown, &src)
                        .unwrap_or_else(|| format!("frontend `{frontend}`: {e}")),
                );
            }
        };
        let parse = parse_started.elapsed();

        // Emit into memory: batch outputs are per-job files (or inline
        // responses), never interleaved stdout.
        let mut buffer = Vec::new();
        let stages = match compiler.finish(&mut ctx, &mut buffer) {
            Ok(stages) => stages,
            Err(e) => return fail(e.to_string()),
        };

        let mut resp = JobResponse::new(id, name.clone(), Status::Ok);
        resp.cache = Some(if hit { "hit" } else { "miss" });
        let out_path = req.out.clone().or_else(|| {
            defaults
                .out_dir
                .as_ref()
                .map(|dir| format!("{dir}/{name}.{}", compiler.backend().extension()))
        });
        match out_path {
            // A timed-out job may still be running here, abandoned; it
            // must not race a retry for the output file.
            Some(path) if !cancelled.load(Ordering::SeqCst) => {
                if let Err(e) = write_atomic(&path, &buffer) {
                    return fail(format!("cannot write `{path}`: {e}"));
                }
                resp.out = Some(path);
            }
            Some(_) => {}
            None if defaults.inline_output => {
                resp.output = Some(String::from_utf8_lossy(&buffer).into_owned());
            }
            None => {}
        }
        resp.stages = Some(StageTimes {
            parse,
            total: started.elapsed(),
            ..stages
        });
        resp
    }

    /// Run a whole batch on `jobs` workers and aggregate the responses.
    ///
    /// With `fail_fast`, the first failure aborts the queue: jobs not
    /// yet started report [`Status::Skipped`] (in-flight ones finish).
    /// The summary's cache counters cover this batch only.
    pub fn run_batch(
        &self,
        reqs: &[JobRequest],
        jobs: usize,
        fail_fast: bool,
        defaults: &JobDefaults,
    ) -> BatchSummary {
        let started = Instant::now();
        let before = self.cache_stats();
        let abort = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<JobResponse>();
        {
            let pool = WorkerPool::new(jobs);
            for (id, req) in reqs.iter().enumerate() {
                let service = self.clone();
                let req = req.clone();
                let defaults = defaults.clone();
                let abort = Arc::clone(&abort);
                let tx = tx.clone();
                pool.submit(move || {
                    let resp = if abort.load(Ordering::SeqCst) {
                        JobResponse::fail(
                            id,
                            job_name(&req, id),
                            Status::Skipped,
                            "not run: an earlier job failed (--fail-fast)",
                        )
                    } else {
                        service.execute(id, &req, &defaults)
                    };
                    if fail_fast && !resp.is_ok() && resp.status != Status::Skipped {
                        abort.store(true, Ordering::SeqCst);
                    }
                    let _ = tx.send(resp);
                });
            }
        } // joins the workers: every job has reported
        drop(tx);
        let mut results: Vec<JobResponse> = rx.iter().collect();
        results.sort_unstable_by_key(|r| r.id);
        let after = self.cache_stats();
        BatchSummary {
            results,
            wall: started.elapsed(),
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "component main() -> () {
        cells { r = std_reg(8); }
        wires { group g { r.in = 8'd7; r.write_en = 1'd1; g[done] = r.done; } }
        control { g; }
      }";

    fn source_job(backend: &str) -> JobRequest {
        JobRequest {
            source: Some(PROGRAM.to_string()),
            backend: Some(backend.to_string()),
            ..JobRequest::default()
        }
    }

    #[test]
    fn a_job_compiles_like_single_shot_futil() {
        let service = CompileService::new();
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let resp = service.execute(0, &source_job("verilog"), &defaults);
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.cache, Some("miss"));
        assert!(resp.output.as_deref().unwrap().contains("module main"));
        let stages = resp.stages.unwrap();
        assert!(stages.total >= stages.passes);

        // Same source again: a cache hit, byte-identical output.
        let again = service.execute(1, &source_job("verilog"), &defaults);
        assert_eq!(again.cache, Some("hit"));
        assert_eq!(again.output, resp.output);
        assert_eq!(service.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn structured_failures_name_the_stage() {
        let service = CompileService::new();
        let defaults = JobDefaults::default();

        let resp = service.execute(0, &source_job("verilgo"), &defaults);
        assert_eq!(resp.status, Status::Error);
        assert!(resp.error.as_deref().unwrap().contains("valid backends"));

        let mut bad_pass = source_job("calyx");
        bad_pass.pipeline = Some(vec!["no-such-pass".to_string()]);
        let resp = service.execute(1, &bad_pass, &defaults);
        assert_eq!(resp.status, Status::Error);

        let mut bad_src = source_job("calyx");
        bad_src.source = Some("component main( {".to_string());
        let resp = service.execute(2, &bad_src, &defaults);
        assert_eq!(resp.status, Status::Error);
        // Parse failures carry the caret diagnostic.
        assert!(
            resp.error.as_deref().unwrap().contains('^'),
            "{:?}",
            resp.error
        );

        let missing = JobRequest {
            input: Some("/no/such/file.futil".to_string()),
            ..JobRequest::default()
        };
        let resp = service.execute(3, &missing, &defaults);
        assert_eq!(resp.status, Status::Error);
        assert!(resp.error.as_deref().unwrap().contains("cannot read"));
    }

    #[test]
    fn generator_jobs_need_no_source() {
        let service = CompileService::new();
        let req = JobRequest {
            frontend: Some("systolic".to_string()),
            fopts: vec![
                ("rows".to_string(), "2".to_string()),
                ("cols".to_string(), "2".to_string()),
                ("inner".to_string(), "2".to_string()),
            ],
            backend: Some("verilog".to_string()),
            name: Some("sa2x2".to_string()),
            ..JobRequest::default()
        };
        let defaults = JobDefaults {
            inline_output: true,
            ..JobDefaults::default()
        };
        let resp = service.execute(0, &req, &defaults);
        assert_eq!(resp.status, Status::Ok, "{:?}", resp.error);
        assert_eq!(resp.name, "sa2x2");
        assert!(resp.output.as_deref().unwrap().contains("module"));
    }

    #[test]
    fn batches_preserve_job_order_and_count_cache_deltas() {
        let service = CompileService::new();
        let reqs: Vec<JobRequest> = (0..6).map(|_| source_job("calyx")).collect();
        let summary = service.run_batch(&reqs, 3, false, &JobDefaults::default());
        assert_eq!(summary.results.len(), 6);
        assert!(summary.all_ok());
        for (i, r) in summary.results.iter().enumerate() {
            assert_eq!(r.id, i);
        }
        // Six identical sources: one miss, five hits — regardless of
        // which worker got there first.
        assert_eq!(summary.cache.misses, 1);
        assert_eq!(summary.cache.hits, 5);

        // A second batch reuses the warm cache but reports only its own
        // lookups.
        let summary = service.run_batch(&reqs[..2], 2, false, &JobDefaults::default());
        assert_eq!(summary.cache, CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn fail_fast_skips_later_jobs() {
        let service = CompileService::new();
        let mut reqs: Vec<JobRequest> = Vec::new();
        reqs.push(JobRequest {
            source: Some("component main( {".to_string()),
            ..JobRequest::default()
        });
        // Enough trailing work that the queue cannot drain before the
        // failure lands.
        for _ in 0..16 {
            reqs.push(source_job("calyx"));
        }
        let summary = service.run_batch(&reqs, 1, true, &JobDefaults::default());
        assert_eq!(summary.failed(), 1);
        assert_eq!(summary.skipped(), 16, "{}", summary.render_text(false));
        assert!(!summary.all_ok());
    }

    /// A frontend that stalls in `parse` long past any test deadline —
    /// a deterministic stand-in for a job that will not finish in time.
    struct StallFrontend;

    impl calyx_frontend::Frontend for StallFrontend {
        const NAME: &'static str = "stall";
        const DESCRIPTION: &'static str = "sleeps in parse (test only)";

        fn extensions() -> &'static [&'static str] {
            &[]
        }

        fn from_opts(_: &calyx_frontend::FrontendOpts) -> calyx_core::errors::CalyxResult<Self> {
            Ok(StallFrontend)
        }

        fn parse(&self, _: &str) -> calyx_core::errors::CalyxResult<calyx_core::ir::Context> {
            std::thread::sleep(std::time::Duration::from_secs(5));
            calyx_core::ir::parse_context("component main() -> () { cells {} wires {} control {} }")
        }
    }

    /// Frontend runs of [`CountingFrontend`], across the whole test binary.
    static COUNTED_PARSES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A native parser that counts its runs and dawdles, so identical
    /// jobs on other workers arrive while its parse is in flight. With
    /// single-flight lookups the counts below hold for any interleaving.
    struct CountingFrontend;

    impl calyx_frontend::Frontend for CountingFrontend {
        const NAME: &'static str = "counting";
        const DESCRIPTION: &'static str = "counts and delays its parses (test only)";

        fn extensions() -> &'static [&'static str] {
            &[]
        }

        fn from_opts(_: &calyx_frontend::FrontendOpts) -> calyx_core::errors::CalyxResult<Self> {
            Ok(CountingFrontend)
        }

        fn parse(&self, src: &str) -> calyx_core::errors::CalyxResult<calyx_core::ir::Context> {
            COUNTED_PARSES.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(50));
            calyx_core::ir::parse_context(src)
        }
    }

    #[test]
    fn identical_jobs_in_flight_share_one_parse() {
        let mut frontends = calyx_frontend::FrontendRegistry::default();
        frontends.register::<CountingFrontend>();
        let service = CompileService::with_registries(frontends, BackendRegistry::default());
        let defaults = JobDefaults {
            frontend: Some("counting".to_string()),
            ..JobDefaults::default()
        };
        let n = 6;
        let reqs: Vec<JobRequest> = (0..n).map(|_| source_job("calyx")).collect();
        let summary = service.run_batch(&reqs, 3, false, &defaults);
        assert!(summary.all_ok(), "{}", summary.render_text(false));
        assert_eq!(COUNTED_PARSES.load(Ordering::SeqCst), 1);
        assert_eq!(
            summary.cache,
            CacheStats {
                hits: n - 1,
                misses: 1
            }
        );

        // A failed parse is not cached: every identical job parses
        // again, misses, and reports the same error.
        let mut bad = source_job("calyx");
        bad.source = Some("component main( {".to_string());
        let summary = service.run_batch(&vec![bad; 4], 2, false, &defaults);
        assert_eq!(summary.failed(), 4);
        assert_eq!(COUNTED_PARSES.load(Ordering::SeqCst), 5);
        assert_eq!(summary.cache, CacheStats { hits: 0, misses: 4 });
        let first = summary.results[0].error.clone();
        assert!(first.as_deref().unwrap().contains('^'), "{first:?}");
        assert!(summary.results.iter().all(|r| r.error == first));
    }

    #[test]
    fn timeouts_abandon_the_job() {
        let mut frontends = calyx_frontend::FrontendRegistry::default();
        frontends.register::<StallFrontend>();
        let service =
            CompileService::with_registries(frontends, calyx_backend::BackendRegistry::default());
        let req = JobRequest {
            frontend: Some("stall".to_string()),
            source: Some(String::new()),
            timeout_ms: Some(10),
            ..JobRequest::default()
        };
        let resp = service.execute(0, &req, &JobDefaults::default());
        assert_eq!(resp.status, Status::Timeout, "{:?}", resp.error);
        assert!(resp.error.as_deref().unwrap().contains("10ms"));
    }

    #[test]
    fn listings_cover_every_kind() {
        let service = CompileService::new();
        for kind in LIST_KINDS {
            let items = service.list_items(kind).unwrap();
            assert!(!items.is_empty(), "no items for `{kind}`");
        }
        assert_eq!(service.list_items("frontends").unwrap()[0].0, "calyx");
        let err = service.list_items("register").unwrap_err();
        assert!(err.contains("valid kinds"), "{err}");
    }
}
